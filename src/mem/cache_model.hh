/**
 * @file
 * Tag-only set-associative cache model.
 *
 * The reproduction needs hit/miss behaviour and per-level service
 * latencies, not data movement, so the cache stores tags only. LRU
 * replacement, true-LRU via a per-set sequence counter. Misses are not
 * queued: Table 1's MSHRs are not modelled, so a level serves any
 * number of outstanding misses at its fixed latency.
 *
 * Hot-path layout: the lanes and scans of common/set_kernel.hh. The
 * model is physically addressed and physical memory is bounded well
 * below 2^32 lines, so way tags live in a flat 32-bit lane (set rows
 * padded to the SIMD width) scanned by the kernel's sentinel form:
 * invalid ways hold the tag noLine, folding the validity check into
 * the tag compare. Recency words in a parallel lane pack
 * (lastUse << 1) | prefetched: clock values are unique, so comparing
 * packed words orders ways exactly like comparing lastUse, and an
 * invalid way's 0 always loses to the kernel's victim choice. Fills
 * of a line the caller has just seen miss (fillMissed) skip the
 * residency probe insert() repeats.
 */

#ifndef MORRIGAN_MEM_CACHE_MODEL_HH
#define MORRIGAN_MEM_CACHE_MODEL_HH

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.hh"
#include "common/logging.hh"
#include "common/set_kernel.hh"
#include "common/snapshot.hh"
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

    /** The fields, with their cache-key names (common/fields.hh). */
    template <RecordOf<CacheParams> Self, class V>
    friend constexpr void visitFields(Self &c, V &&v)
    {
        v("name", c.name, FieldTag::Unrecorded);
        v("size", c.sizeBytes);
        v("ways", c.ways);
        v("lat", c.latency);
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
    /** Counters (common/fields.hh); the visit names are the --stats
     * names. */
    struct Stats
    {
        /** demand lookups */
        std::uint64_t accesses = 0;
        /** demand lookup misses */
        std::uint64_t misses = 0;
        /** lines filled by prefetch */
        std::uint64_t prefetchFills = 0;
        /** valid lines evicted */
        std::uint64_t evictions = 0;

        template <RecordOf<Stats> Self, class V>
        friend constexpr void visitFields(Self &s, V &&v)
        {
            v("accesses", s.accesses);
            v("misses", s.misses);
            v("prefetch_fills", s.prefetchFills);
            v("evictions", s.evictions);
        }
    };

    explicit CacheModel(const CacheParams &params);

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
        ++stats_.accesses;
        std::uint32_t base = baseOf(line);
        int w = findWay(base, checkedTag(line));
        if (w >= 0) {
            rec_[base + w] = ++useClock_ << 1;
            return true;
        }
        ++stats_.misses;
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

    const Stats &stats() const { return stats_; }
    Stats &stats() { return stats_; }

  private:
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

    /** Sentinel tag of an invalid way. The model is physically
     * addressed and physical memory tops out well below 2^32 lines,
     * so all-ones cannot occur (enforced by checkedTag). */
    static constexpr std::uint32_t noLine = ~std::uint32_t{0};

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
        return set_kernel::findTag(tags_.data() + base, params_.ways,
                                   tag);
    }

    /** Put @p tag into the victim way of the set at @p base. */
    bool
    fillAt(std::uint32_t base, std::uint32_t tag, bool is_prefetch)
    {
        std::uint32_t victim =
            base + set_kernel::victimWay(rec_.data() + base,
                                         params_.ways);
        bool evicted = tags_[victim] != noLine;
        if (evicted)
            ++stats_.evictions;
        if (is_prefetch)
            ++stats_.prefetchFills;
        tags_[victim] = tag;
        rec_[victim] = (++useClock_ << 1) | (is_prefetch ? 1 : 0);
        return evicted;
    }

    CacheParams params_;
    std::uint32_t numSets_;
    /** Lane words per set: set_kernel::paddedWays(ways). */
    std::uint32_t tagStride_;
    /** 32-bit way tags; padding lanes stay noLine forever. */
    std::vector<std::uint32_t> tags_;
    /** Packed recency, (lastUse << 1) | prefetched; same indexing as
     * tags_, padding lanes stay 0 and are never scanned (they would
     * otherwise masquerade as invalid ways). */
    std::vector<std::uint64_t> rec_;
    std::uint64_t useClock_ = 0;
    Stats stats_;
};
static_assert(visitsEveryField<CacheModel::Stats>());

} // namespace morrigan

#endif // MORRIGAN_MEM_CACHE_MODEL_HH
