/**
 * @file
 * Tag-only set-associative cache model.
 *
 * The reproduction needs hit/miss behaviour and per-level service
 * latencies, not data movement, so the cache stores tags only. LRU
 * replacement, true-LRU via a per-set sequence counter. MSHR capacity
 * is recorded for configuration fidelity (Table 1) and exposed to the
 * timing model, which uses it to bound the data-side overlap window.
 *
 * Hot-path layout: the model is physically addressed and physical
 * memory is bounded well below 2^32 lines, so way tags live in a flat
 * 32-bit lane (set rows padded to the SIMD width) -- a whole set is
 * one or two vector compares under AVX2, and at most a 64-byte scan
 * otherwise. Invalid ways hold the sentinel tag noLine, folding the
 * validity check into the tag compare. Recency words in a parallel
 * lane pack (lastUse << 1) | prefetched: clock values are unique, so
 * comparing packed words orders ways exactly like comparing lastUse,
 * and an invalid way's 0 always loses -- the victim is the first way
 * holding the set's minimum word, which is the first invalid way when
 * one exists and the true LRU way otherwise, exactly the old
 * first-invalid-else-LRU policy. The minimum is taken without
 * data-dependent branches: a vector min and an equality mask when the
 * way count is a multiple of four (AVX2), a conditional-select loop
 * otherwise. Fills of a line the caller has just seen miss
 * (fillMissed) skip the residency probe insert() repeats.
 */

#ifndef MORRIGAN_MEM_CACHE_MODEL_HH
#define MORRIGAN_MEM_CACHE_MODEL_HH

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/fields.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace morrigan
{

/** Static configuration of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 8;
    Cycle latency = 4;          //!< Hit latency contribution.
    std::uint32_t mshrs = 8;    //!< Miss status holding registers.

    /** The fields, with their cache-key names (common/fields.hh). */
    template <RecordOf<CacheParams> Self, class V>
    friend constexpr void visitFields(Self &c, V &&v)
    {
        v("name", c.name, FieldTag::Unrecorded);
        v("size", c.sizeBytes);
        v("ways", c.ways);
        v("lat", c.latency);
        v("mshrs", c.mshrs);
    }
};
static_assert(visitsEveryField<CacheParams>());

/**
 * A set-associative, LRU, tag-only cache.
 *
 * Lines are identified by line address (byte address >> lineShift).
 */
class CacheModel
{
  public:
    CacheModel(const CacheParams &params, StatGroup *parent = nullptr);

    /**
     * Demand lookup. Updates LRU on hit and counts stats. Does NOT
     * install on miss; callers install explicitly once the fill
     * returns, which lets prefetch fills be distinguished.
     *
     * Defined inline: this and insert() run a couple of times per
     * simulated instruction, and inlining the short lane scan into
     * the hierarchy's traversal loop is worth real wall clock.
     *
     * @param line Line address.
     * @return true on hit.
     */
    bool
    lookup(Addr line)
    {
        ++accesses_;
        std::uint32_t base = baseOf(line);
        int w = findWay(base, checkedTag(line));
        if (w >= 0) {
            rec_[base + w] = ++useClock_ << 1;
            return true;
        }
        ++misses_;
        return false;
    }

    /** Probe without LRU update or stats side effects. */
    bool
    contains(Addr line) const
    {
        return findWay(baseOf(line), checkedTag(line)) >= 0;
    }

    /**
     * Install a line, evicting the LRU way if the set is full. A line
     * already resident is refreshed in place instead (racing fills),
     * keeping its prefetched bit.
     *
     * @param line Line address.
     * @param is_prefetch Fill caused by a prefetch rather than demand.
     * @return true if a valid line was evicted.
     */
    bool
    insert(Addr line, bool is_prefetch = false)
    {
        std::uint32_t base = baseOf(line);
        std::uint32_t tag = checkedTag(line);
        int hit = findWay(base, tag);
        if (hit >= 0) {
            std::uint64_t pf = rec_[base + hit] & 1;
            rec_[base + hit] = (++useClock_ << 1) | pf;
            return false;
        }
        return fillAt(base, tag, is_prefetch);
    }

    /**
     * Install a line the caller has just seen miss (lookup() or
     * contains() returned false with no fill of it since), skipping
     * insert()'s residency probe. Same result as insert() for such a
     * line.
     */
    bool
    fillMissed(Addr line, bool is_prefetch = false)
    {
        std::uint32_t base = baseOf(line);
        std::uint32_t tag = checkedTag(line);
        assert(findWay(base, tag) < 0 && "fillMissed of a resident line");
        return fillAt(base, tag, is_prefetch);
    }

    /**
     * Hint the host to pull this line's set rows into its own cache.
     * No architectural effect; callers issue it for the levels a
     * traversal is about to scan so the row fetches overlap instead
     * of serialising one level at a time.
     */
    void
    prefetchSet(Addr line) const
    {
        std::uint32_t base = baseOf(line);
        __builtin_prefetch(tags_.data() + base);
        for (std::uint32_t w = 0; w < params_.ways; w += 8)
            __builtin_prefetch(rec_.data() + base + w);
    }

    /** Drop a line if present. @return true if it was present. */
    bool invalidate(Addr line);

    /** Drop every line. */
    void flush();

    const CacheParams &params() const { return params_; }
    std::uint32_t numSets() const { return numSets_; }

    void save(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);

    std::uint64_t demandAccesses() const { return accesses_.value(); }
    std::uint64_t demandMisses() const { return misses_.value(); }

  private:
    /** Sentinel tag of an invalid way. The model is physically
     * addressed and physical memory tops out well below 2^32 lines,
     * so all-ones cannot occur (enforced by checkedTag). */
    static constexpr std::uint32_t noLine = ~std::uint32_t{0};

    /** Tag-row padding so a set is whole SIMD vectors. */
    static constexpr std::uint32_t tagLanes = 8;

    /** First lane index of the set holding @p line. */
    std::uint32_t baseOf(Addr line) const
    {
        return (static_cast<std::uint32_t>(line) & (numSets_ - 1)) *
               tagStride_;
    }

    /** Narrow a line address to its 32-bit tag, rejecting lines the
     * narrow lane cannot represent (impossible for physical lines;
     * the check is one never-taken branch). */
    static std::uint32_t
    checkedTag(Addr line)
    {
        fatal_if(line >= noLine,
                 "cache line address 0x%llx exceeds the 32-bit tag "
                 "lane",
                 static_cast<unsigned long long>(line));
        return static_cast<std::uint32_t>(line);
    }

    /** Way holding @p tag in the set at @p base, or -1. At most one
     * way can match: insert() refreshes instead of duplicating, and
     * fillMissed() is only handed absent lines. */
    int
    findWay(std::uint32_t base, std::uint32_t tag) const
    {
#if defined(__AVX2__)
        const __m256i needle =
            _mm256_set1_epi32(static_cast<int>(tag));
        for (std::uint32_t w = 0; w < tagStride_; w += tagLanes) {
            __m256i row = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(tags_.data() +
                                                  base + w));
            int m = _mm256_movemask_epi8(
                _mm256_cmpeq_epi32(row, needle));
            if (m)
                return static_cast<int>(w) +
                       (__builtin_ctz(static_cast<unsigned>(m)) >> 2);
        }
        return -1;
#else
        for (std::uint32_t w = 0; w < params_.ways; ++w)
            if (tags_[base + w] == tag)
                return static_cast<int>(w);
        return -1;
#endif
    }

    /** Put @p tag into the victim way of the set at @p base. */
    bool
    fillAt(std::uint32_t base, std::uint32_t tag, bool is_prefetch)
    {
        std::uint32_t victim = base + victimWay(base);
        bool evicted = tags_[victim] != noLine;
        if (evicted)
            ++evictions_;
        if (is_prefetch)
            ++prefetchFills_;
        tags_[victim] = tag;
        rec_[victim] = (++useClock_ << 1) | (is_prefetch ? 1 : 0);
        return evicted;
    }

    /** First way of the set at @p base holding the minimum packed
     * recency word (padding lanes are excluded: they would otherwise
     * masquerade as invalid ways). */
    std::uint32_t
    victimWay(std::uint32_t base) const
    {
        const std::uint64_t *rec = rec_.data() + base;
#if defined(__AVX2__)
        if (vectorVictim_) {
            // AVX2 has only a signed 64-bit compare; packed words
            // stay below 2^63 (the clock would need 2^62 ticks), so
            // it orders them as unsigned.
            auto row = [rec](std::uint32_t w) {
                return _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(rec + w));
            };
            auto vmin = [](__m256i a, __m256i b) {
                return _mm256_blendv_epi8(a, b,
                                          _mm256_cmpgt_epi64(a, b));
            };
            __m256i m = row(0);
            for (std::uint32_t w = 4; w < params_.ways; w += 4)
                m = vmin(m, row(w));
            // Fold the four lanes so each holds the set minimum.
            m = vmin(m, _mm256_permute4x64_epi64(m, 0x4e));
            m = vmin(m, _mm256_shuffle_epi32(m, 0x4e));
            std::uint64_t equal = 0;
            for (std::uint32_t w = 0; w < params_.ways; w += 4) {
                int lanes = _mm256_movemask_pd(_mm256_castsi256_pd(
                    _mm256_cmpeq_epi64(row(w), m)));
                equal |= static_cast<std::uint64_t>(lanes) << w;
            }
            return static_cast<std::uint32_t>(__builtin_ctzll(equal));
        }
#endif
        std::uint32_t victim = 0;
        std::uint64_t best = rec[0];
        for (std::uint32_t w = 1; w < params_.ways; ++w) {
            bool older = rec[w] < best;
            victim = older ? w : victim;
            best = older ? rec[w] : best;
        }
        return victim;
    }

    CacheParams params_;
    std::uint32_t numSets_;
    /** Lane words per set: ways rounded up to the SIMD width. */
    std::uint32_t tagStride_;
    /** Victim choice takes the vector path: ways % 4 == 0 and the
     * equality mask fits 64 bits. */
    bool vectorVictim_;
    /** 32-bit way tags; padding lanes stay noLine forever. */
    std::vector<std::uint32_t> tags_;
    /** Packed recency, (lastUse << 1) | prefetched; same indexing as
     * tags_, padding lanes stay 0 and are never scanned. */
    std::vector<std::uint64_t> rec_;
    std::uint64_t useClock_ = 0;

    StatGroup stats_;
    Counter accesses_;
    Counter misses_;
    Counter prefetchFills_;
    Counter evictions_;
};

} // namespace morrigan

#endif // MORRIGAN_MEM_CACHE_MODEL_HH
