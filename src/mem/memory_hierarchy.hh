/**
 * @file
 * Composition of the cache hierarchy and DRAM (Table 1).
 *
 * L1I 32KB/8w 4-cycle, L1D 32KB/8w 4-cycle, unified L2 512KB/8w
 * 8-cycle with a lightweight stride prefetcher standing in for SPP,
 * LLC 2MB/16w 10-cycle, and the DRAM model. Page-walker references
 * take the data path (L1D -> L2 -> LLC -> DRAM), matching the paper's
 * observation that walk references can be served from any level.
 */

#ifndef MORRIGAN_MEM_MEMORY_HIERARCHY_HH
#define MORRIGAN_MEM_MEMORY_HIERARCHY_HH

#include <cstdint>
#include <optional>

#include "common/types.hh"
#include "mem/cache_model.hh"
#include "mem/dram_model.hh"

namespace morrigan
{

/** Hierarchy level that finally served a reference. */
enum class MemLevel : std::uint8_t { L1, L2, LLC, Dram };

/** Outcome of one reference through the hierarchy. */
struct MemAccessResult
{
    Cycle latency = 0;
    MemLevel servedBy = MemLevel::L1;
};

/** Lines fetched ahead by the L2 prefetcher on a demand miss. */
inline constexpr std::uint32_t l2PrefetchDepth = 2;

/** Static configuration of the full memory hierarchy. */
struct MemoryHierarchyParams
{
    CacheParams l1i{"l1i", 32 * 1024, 8, 4};
    CacheParams l1d{"l1d", 32 * 1024, 8, 4};
    CacheParams l2{"l2", 512 * 1024, 8, 8};
    CacheParams llc{"llc", 2 * 1024 * 1024, 16, 10};
    DramParams dram{};
    /** Enable the simple L2 stride prefetcher (SPP stand-in). */
    bool l2Prefetcher = true;

    /** The fields, with their cache-key names (common/fields.hh). */
    template <RecordOf<MemoryHierarchyParams> Self, class V>
    friend constexpr void visitFields(Self &m, V &&v)
    {
        v("l1i", m.l1i);
        v("l1d", m.l1d);
        v("l2", m.l2);
        v("llc", m.llc);
        v("dram", m.dram);
        v("l2Prefetcher", m.l2Prefetcher);
    }
};
static_assert(visitsEveryField<MemoryHierarchyParams>());

/**
 * The cache hierarchy + DRAM. All addresses are physical byte
 * addresses; the hierarchy converts to line addresses internally.
 */
class MemoryHierarchy
{
  public:
    /** Counters (common/fields.hh); the visit names are the --stats
     * names. Each level counts in its own CacheModel::Stats. */
    struct Stats
    {
        /** lines prefetched into L2 by the SPP stand-in */
        std::uint64_t l2Prefetches = 0;

        template <RecordOf<Stats> Self, class V>
        friend constexpr void visitFields(Self &s, V &&v)
        {
            v("l2_prefetches", s.l2Prefetches);
        }
    };

    explicit MemoryHierarchy(const MemoryHierarchyParams &params);

    /** Demand instruction fetch or data access. */
    MemAccessResult access(Addr paddr, AccessType type);

    /** Page-walker reference (takes the data path). */
    MemAccessResult walkerAccess(Addr paddr);

    /**
     * Start an instruction-line prefetch: fills L2/LLC immediately
     * (the fill is in flight there) and returns the latency until the
     * line could reach the L1I, or nothing when the line already sits
     * in the L1I. The caller schedules commitInstructionPrefetch() at
     * that time, which models prefetch timeliness: a line whose fill
     * (or translation) has not completed cannot serve a demand fetch.
     */
    std::optional<Cycle> prefetchInstructionLine(Addr paddr);

    /** Complete an in-flight instruction prefetch into the L1I. */
    void commitInstructionPrefetch(Addr paddr);

    CacheModel &l1i() { return l1i_; }
    CacheModel &l1d() { return l1d_; }
    CacheModel &l2() { return l2_; }
    CacheModel &llc() { return llc_; }
    DramModel &dram() { return dram_; }
    const CacheModel &l1i() const { return l1i_; }
    const CacheModel &l1d() const { return l1d_; }
    const CacheModel &l2() const { return l2_; }
    const CacheModel &llc() const { return llc_; }
    const DramModel &dram() const { return dram_; }

    const Stats &stats() const { return stats_; }
    Stats &stats() { return stats_; }

    void save(SnapshotWriter &w) const { transfer(*this, w); }
    void restore(SnapshotReader &r) { transfer(*this, r); }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("mem_hierarchy");
        ar.io(self.l1i_);
        ar.io(self.l1d_);
        ar.io(self.l2_);
        ar.io(self.llc_);
        ar.io(self.dram_);
    }

    MemAccessResult accessThrough(Addr line, CacheModel &l1);
    void maybeL2Prefetch(Addr missed_line);

    MemoryHierarchyParams params_;
    CacheModel l1i_;
    CacheModel l1d_;
    CacheModel l2_;
    CacheModel llc_;
    DramModel dram_;
    Stats stats_;
};
static_assert(visitsEveryField<MemoryHierarchy::Stats>());

} // namespace morrigan

#endif // MORRIGAN_MEM_MEMORY_HIERARCHY_HH
