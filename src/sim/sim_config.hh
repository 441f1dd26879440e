/**
 * @file
 * Simulation configuration and results.
 *
 * SimConfig bundles every structural parameter of Table 1 plus the
 * study switches the evaluation needs (perfect iSTLB, P2TLB, ASAP,
 * I-cache translation-cost modelling, SMT). SimResult carries every
 * number the paper's figures report. Both list their fields once, in
 * visitFields() (common/fields.hh): SimConfig's names are its
 * experiment-key names, SimResult's its JSON record keys.
 */

#ifndef MORRIGAN_SIM_SIM_CONFIG_HH
#define MORRIGAN_SIM_SIM_CONFIG_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/fields.hh"
#include "mem/memory_hierarchy.hh"
#include "sim/run_counters.hh"
#include "vm/page_table.hh"
#include "tlb/tlb_hierarchy.hh"
#include "vm/walker.hh"

namespace morrigan
{

/** Which I-cache prefetcher the frontend uses. */
enum class ICachePrefKind : std::uint8_t
{
    None,
    NextLine,   //!< baseline (Table 1); stays within the page
    FnlMma,     //!< crosses page boundaries (Sections 3.5/6.5)
};

/** Prefetch buffer access latency (Table 1: 2 cycles). */
inline constexpr Cycle pbLatency = 2;

/** Core issue width (Table 1: 4-wide OoO); every retired
 * instruction charges 1/coreWidth cycles. */
inline constexpr unsigned coreWidth = 4;

/**
 * Fraction of data-side miss latency exposed on the critical
 * path. Out-of-order execution and MLP hide most data-side
 * stalls, unlike instruction-side stalls which serialize the
 * frontend (Section 1). Calibrated so the iSTLB share of cycles
 * lands in the paper's 6.6-11.7% band (Figure 4).
 */
inline constexpr double dataMlpFactor = 0.08;

/**
 * Fraction of I-cache miss latency exposed on the critical path.
 * Fetch-ahead and the decoupled frontend overlap much of the
 * latency of sequential line misses; iSTLB misses, in contrast,
 * serialize completely (the fetch address cannot even be formed).
 */
inline constexpr double fetchOverlapFactor = 0.12;

/**
 * Pipeline-refill penalty charged after a demand iSTLB walk: by
 * the time the translation returns, the frontend has drained and
 * must re-steer and refill (akin to a branch-resteer bubble).
 * PB hits resolve in a couple of cycles and avoid the drain,
 * which is part of why eliminating demand walks pays so well.
 */
inline constexpr Cycle frontendRedirectPenalty = 45;

/** Full system configuration. */
struct SimConfig
{
    MemoryHierarchyParams mem{};
    TlbHierarchyParams tlb{};
    WalkerParams walker{};

    /** Prefetch buffer entries (Table 1: 64, fully associative;
     * its latency is pbLatency). */
    std::uint32_t pbEntries = 64;

    /** Radix depth of the page table: 4 (default) or 5 (LA57;
     * Section 4.3 extension study). */
    unsigned pageTableDepth = 4;

    /** Page table organisation: radix (default) or hashed
     * (Section 4.3: "Morrigan would operate the same since hashed
     * page tables preserve page table locality"). */
    PageTableFormat pageTableFormat = PageTableFormat::Radix;

    /**
     * Simulated context-switch interval in instructions; 0 disables.
     * On a switch the TLBs, PB, PSCs and the prefetcher state flush
     * (Section 4.3: IRIP's small tables refill quickly).
     */
    std::uint64_t contextSwitchInterval = 0;

    /**
     * Engage the STLB prefetcher on STLB hits as well as misses
     * (Section 4.3's alternative TLB prefetching strategy).
     */
    bool prefetchOnStlbHits = false;

    /**
     * Issue correcting page walks to reset the access bit of PTEs
     * evicted from the PB without providing a hit (Section 4.3's
     * optional mechanism for keeping the OS page-replacement policy
     * unpolluted). Issued only when a walker port is idle.
     */
    bool correctingWalks = false;

    /** Idealisation: all iSTLB lookups hit (Figure 9/18 bound). */
    bool perfectIstlb = false;

    /** Prefetch directly into the STLB instead of the PB
     * (Figure 18's P2TLB configuration). */
    bool prefetchIntoStlb = false;

    /** Frontend I-cache prefetcher. */
    ICachePrefKind icachePref = ICachePrefKind::NextLine;

    /** Model translation cost for beyond-page I-cache prefetches;
     * turning this off reproduces the raw IPC-1 idealisation of
     * Figure 10's "FNL+MMA" line. */
    bool icacheTranslationCost = true;

    /** Instructions to warm structures before measuring. */
    std::uint64_t warmupInstructions = 1'000'000;
    /** Instructions measured. */
    std::uint64_t simInstructions = 4'000'000;

    /** Record the iSTLB miss stream for Figures 5-8 analyses. */
    bool collectMissStream = false;

    /** VPN offset applied to thread 1 in SMT mode (distinct address
     * spaces of the two colocated workloads). */
    Vpn smtThread1VpnOffset = Vpn{1} << 34;

    /**
     * Differential-check level. 0 (default) disables checking; at 1
     * and above every completed demand translation is cross-checked
     * against the golden reference model (check/ref_translator.hh)
     * and divergences are recorded in the result. The level mirrors
     * MORRIGAN_CHECK_LEVEL for the structural hooks, but is carried
     * in the config so the run itself is reproducible from the
     * config alone.
     */
    int checkLevel = 0;

    /**
     * Fault-injection knob for validating the checker: every Nth
     * instruction-side demand walk flips bit 0 of the translated
     * frame before it is installed. 0 disables. A checked run with
     * injection enabled must report mismatches naming the faulting
     * VPNs; this is exercised by tests and by morrigan-fuzz
     * --inject.
     */
    std::uint64_t injectWalkerBugPeriod = 0;

    /** The fields, in experiment-key order (common/fields.hh). */
    template <RecordOf<SimConfig> Self, class V>
    friend constexpr void visitFields(Self &c, V &&v)
    {
        v("mem", c.mem);
        v("tlb", c.tlb);
        v("walker", c.walker);
        v("pbEntries", c.pbEntries);
        v("pageTableDepth", c.pageTableDepth);
        v("pageTableFormat", c.pageTableFormat);
        v("contextSwitchInterval", c.contextSwitchInterval);
        v("prefetchOnStlbHits", c.prefetchOnStlbHits);
        v("correctingWalks", c.correctingWalks);
        v("perfectIstlb", c.perfectIstlb);
        v("prefetchIntoStlb", c.prefetchIntoStlb);
        v("icachePref", c.icachePref);
        v("icacheTranslationCost", c.icacheTranslationCost);
        v("warmupInstructions", c.warmupInstructions);
        v("simInstructions", c.simInstructions, FieldTag::MeasureOnly);
        v("collectMissStream", c.collectMissStream,
          FieldTag::MeasureOnly);
        v("smtThread1VpnOffset", c.smtThread1VpnOffset);
        v("checkLevel", c.checkLevel);
        v("injectWalkerBugPeriod", c.injectWalkerBugPeriod);
    }
};
static_assert(visitsEveryField<SimConfig>());

/** Everything a simulation run reports. */
struct SimResult
{
    std::string workload;
    std::string prefetcher = "none";

    std::uint64_t instructions = 0;
    double cycles = 0.0;
    double ipc = 0.0;

    // --- frontend MPKIs (Figure 3) ---
    double l1iMpki = 0.0;
    double itlbMpki = 0.0;
    double istlbMpki = 0.0;
    double dstlbMpki = 0.0;

    // --- iSTLB handling (Figures 4/9/13-20) ---
    std::uint64_t istlbMisses = 0;
    std::uint64_t dstlbMisses = 0;
    std::uint64_t pbHits = 0;
    std::uint64_t pbHitsIrip = 0;
    std::uint64_t pbHitsSdp = 0;
    std::uint64_t pbHitsICache = 0;
    double istlbCycleFraction = 0.0;
    /** Fraction of cycles stalled on I-cache misses. */
    double icacheCycleFraction = 0.0;
    /** Fraction of cycles charged to the data side. */
    double dataCycleFraction = 0.0;
    /** Fraction of cycles that are the 1/width base charge. */
    double baseCycleFraction = 0.0;
    /** Fraction of cycles charged to context switches. The five
     * fractions sum to 1 up to rounding (cycleFractionSum()). */
    double contextSwitchCycleFraction = 0.0;
    /** Fraction of iSTLB misses served by the PB (miss coverage). */
    double coverage = 0.0;

    // --- page walk accounting (Figure 16) ---
    std::uint64_t demandWalks = 0;
    std::uint64_t demandWalksInstr = 0;
    std::uint64_t demandWalkRefs = 0;
    std::uint64_t demandWalkRefsInstr = 0;
    std::uint64_t prefetchWalks = 0;
    std::uint64_t prefetchWalkRefs = 0;
    std::array<std::uint64_t, 4> prefetchWalkRefsByLevel{};
    double meanDemandWalkLatencyInstr = 0.0;
    double meanDemandWalkLatencyData = 0.0;

    // --- I-cache prefetching (Figures 10/19) ---
    std::uint64_t icachePrefetches = 0;
    std::uint64_t icacheCrossPagePrefetches = 0;
    /** Cross-page prefetches whose translation was absent from the
     * TLBs (i.e. that require a page walk). */
    std::uint64_t icacheCrossPageNeedingWalk = 0;
    std::uint64_t icacheCrossPagePbHits = 0;

    /** PB hit use-distance histogram (<=1,2,4,8,16,32,64,>64 misses
     * between insert and consumption). */
    std::array<std::uint64_t, 8> pbHitDistance{};

    /** Context switches simulated during measurement. */
    std::uint64_t contextSwitches = 0;

    /** Correcting page walks issued (Section 4.3). */
    std::uint64_t correctingWalks = 0;

    // --- differential checking (checkLevel > 0) ---
    /** Demand translations cross-checked against the reference. */
    std::uint64_t checkedTranslations = 0;
    /** Divergences between simulator and reference model. */
    std::uint64_t checkMismatches = 0;
    /** 4KB pages mapped in this address space at the end of the
     * run (reference-model view; 0 when checking is off). */
    std::uint64_t checkMappedPages = 0;
    /**
     * Human-readable mismatch report (empty when clean). Not part of
     * the result record: checked runs are never cached
     * (ExperimentJob::cacheable()), and the campaign journal carries
     * the report beside the record.
     */
    std::string checkReport;

    /** The fields, with their JSON record keys (common/fields.hh). */
    template <RecordOf<SimResult> Self, class V>
    friend constexpr void visitFields(Self &r, V &&v)
    {
        v("workload", r.workload);
        v("prefetcher", r.prefetcher);
        v("instructions", r.instructions);
        v("cycles", r.cycles);
        v("ipc", r.ipc);
        v("l1i_mpki", r.l1iMpki);
        v("itlb_mpki", r.itlbMpki);
        v("istlb_mpki", r.istlbMpki);
        v("dstlb_mpki", r.dstlbMpki);
        v("istlb_misses", r.istlbMisses);
        v("dstlb_misses", r.dstlbMisses);
        v("pb_hits", r.pbHits);
        v("pb_hits_irip", r.pbHitsIrip);
        v("pb_hits_sdp", r.pbHitsSdp);
        v("pb_hits_icache", r.pbHitsICache);
        v("istlb_cycle_fraction", r.istlbCycleFraction);
        v("icache_cycle_fraction", r.icacheCycleFraction);
        v("data_cycle_fraction", r.dataCycleFraction);
        v("base_cycle_fraction", r.baseCycleFraction);
        v("context_switch_cycle_fraction",
          r.contextSwitchCycleFraction);
        v("coverage", r.coverage);
        v("demand_walks", r.demandWalks);
        v("demand_walks_instr", r.demandWalksInstr);
        v("demand_walk_refs", r.demandWalkRefs);
        v("demand_walk_refs_instr", r.demandWalkRefsInstr);
        v("prefetch_walks", r.prefetchWalks);
        v("prefetch_walk_refs", r.prefetchWalkRefs);
        v("prefetch_walk_refs_by_level", r.prefetchWalkRefsByLevel);
        v("mean_demand_walk_latency_instr",
          r.meanDemandWalkLatencyInstr);
        v("mean_demand_walk_latency_data", r.meanDemandWalkLatencyData);
        v("icache_prefetches", r.icachePrefetches);
        v("icache_cross_page_prefetches", r.icacheCrossPagePrefetches);
        v("icache_cross_page_needing_walk",
          r.icacheCrossPageNeedingWalk);
        v("icache_cross_page_pb_hits", r.icacheCrossPagePbHits);
        v("pb_hit_distance", r.pbHitDistance);
        v("context_switches", r.contextSwitches);
        v("correcting_walks", r.correctingWalks);
        v("checked_translations", r.checkedTranslations);
        v("check_mismatches", r.checkMismatches);
        v("check_mapped_pages", r.checkMappedPages);
        v("check_report", r.checkReport, FieldTag::Unrecorded);
    }
};
static_assert(visitsEveryField<SimResult>());

/** The result's share of each cycle bucket, indexed by Stall. */
inline constexpr double SimResult::*cycleFraction[numStalls] = {
    &SimResult::istlbCycleFraction, &SimResult::icacheCycleFraction,
    &SimResult::dataCycleFraction,  &SimResult::baseCycleFraction,
    &SimResult::contextSwitchCycleFraction,
};

/** The cycle fractions' sum: 1 up to ledgerTolerance() whenever the
 * run measured cycles. */
inline double
cycleFractionSum(const SimResult &r)
{
    double sum = 0.0;
    for (double SimResult::*f : cycleFraction)
        sum += r.*f;
    return sum;
}

} // namespace morrigan

#endif // MORRIGAN_SIM_SIM_CONFIG_HH
