/**
 * @file
 * The simulator's measurement counters and its cycle ledger.
 *
 * Every cycle the simulator advances is charged to exactly one
 * bucket (Stall) at one site, Simulator::charge(), so the five
 * bucket counters add up to the measured cycles. The result's cycle
 * fractions, the snapshot and the interval epochs all read this one
 * record through visitFields().
 */

#ifndef MORRIGAN_SIM_RUN_COUNTERS_HH
#define MORRIGAN_SIM_RUN_COUNTERS_HH

#include <array>
#include <cfloat>
#include <cstdint>

#include "common/fields.hh"

namespace morrigan
{

/** Where a charged cycle is counted. */
enum class Stall : std::uint8_t
{
    Istlb,          //!< STLB lookups, PB probes and waits, iSTLB walks
    Icache,         //!< exposed L1I miss latency
    Data,           //!< MLP-damped data-side TLB and cache stalls
    Base,           //!< 1/width per retired instruction
    ContextSwitch,  //!< the direct cost of each context switch
};
inline constexpr unsigned numStalls = 5;

/** Measurement counters, reset after warmup: only facts no
 * component record counts (SimResult reads those from the records). */
struct RunCounters
{
    std::uint64_t instructions = 0;
    std::uint64_t pbHitsIrip = 0;
    std::uint64_t pbHitsSdp = 0;
    std::uint64_t pbHitsICache = 0;
    double istlbStallCycles = 0.0;
    double icacheStallCycles = 0.0;
    double dataStallCycles = 0.0;
    std::uint64_t prefetchesDiscarded = 0;
    std::uint64_t icachePrefetches = 0;
    std::uint64_t icacheCrossPage = 0;
    std::uint64_t icacheCrossPageNeedingWalk = 0;
    std::uint64_t icacheCrossPagePbHits = 0;
    std::uint64_t contextSwitches = 0;
    /** PB hit use-distance histogram: buckets <=1,2,4,...,>64
     * misses between insert and hit. */
    std::array<std::uint64_t, 8> pbHitDistance{};
    double baseCycles = 0.0;
    double contextSwitchCycles = 0.0;

    /** The fields, in snapshot order (common/fields.hh). */
    template <RecordOf<RunCounters> Self, class V>
    friend constexpr void visitFields(Self &c, V &&v)
    {
        v("instructions", c.instructions);
        v("pbHitsIrip", c.pbHitsIrip);
        v("pbHitsSdp", c.pbHitsSdp);
        v("pbHitsICache", c.pbHitsICache);
        v("istlbStallCycles", c.istlbStallCycles);
        v("icacheStallCycles", c.icacheStallCycles);
        v("dataStallCycles", c.dataStallCycles);
        v("prefetchesDiscarded", c.prefetchesDiscarded);
        v("icachePrefetches", c.icachePrefetches);
        v("icacheCrossPage", c.icacheCrossPage);
        v("icacheCrossPageNeedingWalk",
          c.icacheCrossPageNeedingWalk);
        v("icacheCrossPagePbHits", c.icacheCrossPagePbHits);
        v("contextSwitches", c.contextSwitches);
        v("pbHitDistance", c.pbHitDistance);
        v("baseCycles", c.baseCycles);
        v("contextSwitchCycles", c.contextSwitchCycles);
    }
};
static_assert(visitsEveryField<RunCounters>());

/** The bucket each Stall charges, indexed by Stall. */
inline constexpr double RunCounters::*stallBucket[numStalls] = {
    &RunCounters::istlbStallCycles, &RunCounters::icacheStallCycles,
    &RunCounters::dataStallCycles,  &RunCounters::baseCycles,
    &RunCounters::contextSwitchCycles,
};

/**
 * Relative bound on |sum of the buckets - measured cycles| after @p
 * instructions. A charge adds to the clock and to a bucket, each
 * addition rounding by at most half an ulp of its running sum, so n
 * charges drift at most n * DBL_EPSILON of the clock apart. An
 * instruction makes at most 8 charges: the base charge, a context
 * switch, three iSTLB charges, one I-cache and two data stalls. One
 * more instruction's worth covers rounding the cycle fractions.
 */
inline double
ledgerTolerance(std::uint64_t instructions)
{
    return 8.0 * static_cast<double>(instructions + 1) * DBL_EPSILON;
}

} // namespace morrigan

#endif // MORRIGAN_SIM_RUN_COUNTERS_HH
