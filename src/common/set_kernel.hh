/**
 * @file
 * The set-associative kernel: the way scans and the LRU victim choice
 * of CacheModel, SetAssocTable and PredictionTable.
 *
 * A set is a run of contiguous lanes indexed by way: keys, and 64-bit
 * recency words that are 0 for an invalid way and a unique, nonzero
 * use-clock stamp otherwise (larger is more recent). findTag() scans
 * 32-bit tag lanes whose invalid ways hold a sentinel tag; findKey()
 * scans key lanes with no spare sentinel (DP's PageDelta keys make
 * -1 and 0 live) and masks them by recency. victimWay() is the one
 * replacement choice, first-invalid-else-LRU (DESIGN.md §14).
 */

#ifndef MORRIGAN_COMMON_SET_KERNEL_HH
#define MORRIGAN_COMMON_SET_KERNEL_HH

#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace morrigan::set_kernel
{

/** findTag() rows are padded to whole vectors of this many tags. */
inline constexpr std::uint32_t tagLanes = 8;

/** Lanes per findTag() row of @p ways ways. */
constexpr std::uint32_t
paddedWays(std::uint32_t ways)
{
    return (ways + tagLanes - 1) / tagLanes * tagLanes;
}

/** Way of the row at @p tags (paddedWays(@p ways) lanes, invalid
 * and padding lanes holding a sentinel never looked up) holding
 * @p tag, or -1. */
inline int
findTag(const std::uint32_t *tags, std::uint32_t ways, std::uint32_t tag)
{
#if defined(__AVX2__)
    const __m256i needle = _mm256_set1_epi32(static_cast<int>(tag));
    for (std::uint32_t w = 0; w < paddedWays(ways); w += tagLanes) {
        __m256i row = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tags + w));
        int m = _mm256_movemask_epi8(_mm256_cmpeq_epi32(row, needle));
        if (m)
            return static_cast<int>(w) +
                   (__builtin_ctz(static_cast<unsigned>(m)) >> 2);
    }
    return -1;
#else
    for (std::uint32_t w = 0; w < ways; ++w)
        if (tags[w] == tag)
            return static_cast<int>(w);
    return -1;
#endif
}

/** First valid way (nonzero @p rec word) whose key in @p keys equals
 * @p key, or -1. */
template <typename KeyT>
inline int
findKey(const KeyT *keys, const std::uint64_t *rec, std::uint32_t ways,
        KeyT key)
{
    for (std::uint32_t w = 0; w < ways; ++w)
        if (keys[w] == key && rec[w] != 0)
            return static_cast<int>(w);
    return -1;
}

/** First of @p ways ways holding the smallest word of @p rec: the
 * first invalid way if any, else the LRU way. Branch-free; a vector
 * min and equality mask when ways % 4 == 0 and ways <= 64 (AVX2). */
inline std::uint32_t
victimWay(const std::uint64_t *rec, std::uint32_t ways)
{
#if defined(__AVX2__)
    if (ways % 4 == 0 && ways <= 64) {
        // AVX2 has only a signed 64-bit compare; recency words stay
        // below 2^63 (validRecency()), so it orders them as unsigned.
        auto row = [rec](std::uint32_t w) {
            return _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(rec + w));
        };
        auto vmin = [](__m256i a, __m256i b) {
            return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
        };
        __m256i m = row(0);
        for (std::uint32_t w = 4; w < ways; w += 4)
            m = vmin(m, row(w));
        // Fold the four lanes so each holds the set minimum.
        m = vmin(m, _mm256_permute4x64_epi64(m, 0x4e));
        m = vmin(m, _mm256_shuffle_epi32(m, 0x4e));
        std::uint64_t equal = 0;
        for (std::uint32_t w = 0; w < ways; w += 4) {
            int lanes = _mm256_movemask_pd(_mm256_castsi256_pd(
                _mm256_cmpeq_epi64(row(w), m)));
            equal |= static_cast<std::uint64_t>(lanes) << w;
        }
        return static_cast<std::uint32_t>(__builtin_ctzll(equal));
    }
#endif
    std::uint32_t victim = 0;
    std::uint64_t best = rec[0];
    for (std::uint32_t w = 1; w < ways; ++w) {
        bool older = rec[w] < best;
        victim = older ? w : victim;
        best = older ? rec[w] : best;
    }
    return victim;
}

/** Whether a valid way may hold recency word @p use: nonzero, and
 * below 2^63, the range victimWay()'s vector path orders. Only a
 * corrupt snapshot breaks this; restores reject it. */
constexpr bool
validRecency(std::uint64_t use)
{
    return use != 0 && use < (std::uint64_t{1} << 63);
}

} // namespace morrigan::set_kernel

#endif // MORRIGAN_COMMON_SET_KERNEL_HH
