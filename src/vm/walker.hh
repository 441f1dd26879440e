/**
 * @file
 * Hardware page table walker.
 *
 * On an STLB (or prefetch-buffer) miss, the walker traverses the
 * radix page table. The split PSC short-circuits upper levels; each
 * remaining level issues one reference into the cache hierarchy via
 * the data path. References are serialized -- the address of each
 * level's entry depends on the previous level's contents -- which is
 * exactly why page walks are long-latency events (tens to hundreds of
 * cycles) and why iSTLB misses stall the frontend.
 *
 * A small number of walker ports is shared by demand and prefetch
 * walks; prefetch walks therefore consume real walker bandwidth and
 * can delay demand walks (the effect behind the FNL+MMA degradation
 * in Section 3.5).
 *
 * The optional ASAP mode models Prefetched Address Translation
 * (Margaritov et al., MICRO'19): the non-leaf references of a walk
 * are fetched ahead of time, so the serialized chain collapses to the
 * slowest single reference.
 */

#ifndef MORRIGAN_VM_WALKER_HH
#define MORRIGAN_VM_WALKER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/distribution.hh"
#include "common/types.hh"
#include "mem/memory_hierarchy.hh"
#include "vm/page_table.hh"
#include "vm/psc.hh"

namespace morrigan
{

/** Static configuration of the walker. */
struct WalkerParams
{
    /** Concurrent walks in flight (Table 1: 4-entry STLB MSHR). */
    std::uint32_t ports = 4;
    /** Model ASAP-style page-walk prefetching. */
    bool asap = false;
    PscParams psc{};

    /** The fields, with their cache-key names (common/fields.hh). */
    template <RecordOf<WalkerParams> Self, class V>
    friend constexpr void visitFields(Self &w, V &&v)
    {
        v("ports", w.ports);
        v("asap", w.asap);
        v("psc", w.psc);
    }
};
static_assert(visitsEveryField<WalkerParams>());

/** Outcome of one page walk. */
struct WalkResult
{
    /** Translation obtained (false only for non-faulting prefetches
     * to unmapped pages, which are dropped). */
    bool success = false;
    /** Frame of the referenced 4KB page. */
    Pfn pfn = 0;
    /** Translation is a 2MB large page; basePfn is the group base. */
    bool large = false;
    Pfn basePfn = 0;
    /** Cycle the walk actually started (>= request time if the
     * walker was busy). */
    Cycle startCycle = 0;
    /** Cycle the walk completed. */
    Cycle completeCycle = 0;
    /** completeCycle - request time; includes port queueing. */
    Cycle latency = 0;
    /** References issued into the memory hierarchy. */
    unsigned memRefs = 0;
    /** memRefs broken down by serving level (MemLevel index). */
    std::array<unsigned, 4> refsByLevel{};
};

/** The page table walker. */
class PageTableWalker
{
  public:
    /** The counts of one WalkKind (common/fields.hh); its walks are
     * latency.count. */
    struct KindStats
    {
        /** memory references by serving level (MemLevel index) */
        std::array<std::uint64_t, 4> refsByLevel{};
        /** walk latency (cycles), port queueing included */
        Distribution latency;

        template <RecordOf<KindStats> Self, class V>
        friend constexpr void visitFields(Self &s, V &&v)
        {
            v("refs_by_level", s.refsByLevel);
            v("latency", s.latency);
        }
    };

    /** Counters (common/fields.hh); the visit names are the --stats
     * names. */
    struct Stats
    {
        KindStats demandInstr;
        KindStats demandData;
        KindStats prefetch;
        KindStats correcting;
        /** non-faulting walks to unmapped pages */
        std::uint64_t droppedPrefetchWalks = 0;
        /**
         * Cumulative port-cycles occupied by walks (each walk
         * contributes its start-to-complete duration on one port).
         * Occupancy over an interval is delta(busyPortCycles) /
         * (delta(cycles) * ports()); the interval sampler reports
         * exactly that.
         */
        std::uint64_t busyPortCycles = 0;

        template <RecordOf<Stats> Self, class V>
        friend constexpr void visitFields(Self &s, V &&v)
        {
            v("demand_instr", s.demandInstr);
            v("demand_data", s.demandData);
            v("prefetch", s.prefetch);
            v("correcting", s.correcting);
            v("dropped_prefetch_walks", s.droppedPrefetchWalks);
            v("busy_port_cycles", s.busyPortCycles);
        }
    };
    /** The record each WalkKind counts in, indexed by WalkKind. */
    static constexpr KindStats Stats::*kindStats[] = {
        &Stats::demandInstr, &Stats::demandData, &Stats::prefetch,
        &Stats::correcting};

    PageTableWalker(const WalkerParams &params, PageTable &table,
                    MemoryHierarchy &mem);

    /**
     * Perform a page walk.
     *
     * @param vpn Virtual page to translate.
     * @param kind What the walk serves: the record it counts in, and
     * its fault policy (only demand walks allocate on a fault).
     * @param now Request cycle.
     */
    WalkResult walk(Vpn vpn, WalkKind kind, Cycle now);

    /** Earliest cycle a new walk could start if requested at @p now. */
    Cycle earliestStart(Cycle now) const;

    PageStructureCache &psc() { return psc_; }
    const PageStructureCache &psc() const { return psc_; }

    const Stats &stats() const { return stats_; }
    Stats &stats() { return stats_; }

    unsigned ports() const { return params_.ports; }

    /** Serialize port occupancy + PSC (the page table saves
     * itself; the simulator saves the counter records). */
    void save(SnapshotWriter &w) const { transfer(*this, w); }
    void restore(SnapshotReader &r) { transfer(*this, r); }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("walker");
        ar.io(self.psc_);
        ar.expect(self.portBusyUntil_.size(), "walker port count");
        ar.io(self.portBusyUntil_);
    }

    WalkerParams params_;
    PageTable &table_;
    MemoryHierarchy &mem_;
    PageStructureCache psc_;
    std::vector<Cycle> portBusyUntil_;
    Stats stats_;
};
static_assert(visitsEveryField<PageTableWalker::KindStats>());
static_assert(visitsEveryField<PageTableWalker::Stats>());

} // namespace morrigan

#endif // MORRIGAN_VM_WALKER_HH
