/**
 * @file
 * Tests for the Section 4.3 extension features: 5-level page tables,
 * context switches, and the prefetch-on-STLB-hits strategy.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "vm/walker.hh"
#include "workload/workload_factory.hh"

using namespace morrigan;

namespace
{

SimConfig
quickConfig()
{
    SimConfig cfg;
    cfg.warmupInstructions = 150'000;
    cfg.simInstructions = 500'000;
    return cfg;
}

} // namespace

TEST(FiveLevelPaging, WalkTouchesFiveLevels)
{
    PhysMem phys(1 << 20, 1);
    PageTable pt(phys, 5);
    EXPECT_EQ(pt.levels(), 5u);
    WalkPath p = pt.walk(0x1234, true);
    EXPECT_TRUE(p.mapped);
    EXPECT_EQ(p.levels, 5u);
    for (unsigned d = 0; d < 5; ++d)
        EXPECT_NE(p.entryAddr[d], 0u);
}

TEST(FiveLevelPaging, ColdWalkCostsMoreThanFourLevel)
{
    auto walk_latency = [](unsigned levels) {
        PhysMem phys(1 << 20, 1);
        PageTable pt(phys, levels);
        MemoryHierarchyParams mp;
        mp.l2Prefetcher = false;
        MemoryHierarchy mem(mp);
        PageTableWalker walker(WalkerParams{}, pt, mem);
        return walker.walk(0x42, WalkKind::DemandData, 0).latency;
    };
    EXPECT_GT(walk_latency(5), walk_latency(4));
}

TEST(FiveLevelPaging, PscStillShortCircuits)
{
    PhysMem phys(1 << 20, 1);
    PageTable pt(phys, 5);
    MemoryHierarchyParams mp;
    mp.l2Prefetcher = false;
    MemoryHierarchy mem(mp);
    PageTableWalker walker(WalkerParams{}, pt, mem);
    pt.mapRange(0x100, 8);
    WalkResult cold = walker.walk(0x100, WalkKind::DemandData, 0);
    EXPECT_EQ(cold.memRefs, 5u);
    WalkResult warm =
        walker.walk(0x101, WalkKind::DemandData, 1000);
    EXPECT_EQ(warm.memRefs, 1u);  // PD hit: leaf only
}

TEST(FiveLevelPaging, HigherDepthHurtsBaselinePerformance)
{
    SimConfig cfg4 = quickConfig();
    SimConfig cfg5 = quickConfig();
    cfg5.pageTableDepth = 5;
    ServerWorkloadParams wl = qmmWorkloadParams(0);
    SimResult r4 = runWorkload(cfg4, "none", wl);
    SimResult r5 = runWorkload(cfg5, "none", wl);
    EXPECT_GE(r5.meanDemandWalkLatencyInstr,
              r4.meanDemandWalkLatencyInstr);
    EXPECT_LE(r5.ipc, r4.ipc * 1.001);
}

TEST(ContextSwitches, HappenOnSchedule)
{
    SimConfig cfg = quickConfig();
    cfg.contextSwitchInterval = 100'000;
    SimResult r = runWorkload(cfg, "morrigan",
                              qmmWorkloadParams(0));
    EXPECT_GE(r.contextSwitches, 4u);
    EXPECT_LE(r.contextSwitches, 6u);
}

TEST(ContextSwitches, ZeroIntervalDisables)
{
    SimConfig cfg = quickConfig();
    SimResult r = runWorkload(cfg, "morrigan",
                              qmmWorkloadParams(0));
    EXPECT_EQ(r.contextSwitches, 0u);
}

TEST(ContextSwitches, FrequentSwitchingCostsPerformance)
{
    SimConfig base = quickConfig();
    SimConfig switchy = quickConfig();
    switchy.contextSwitchInterval = 50'000;
    ServerWorkloadParams wl = qmmWorkloadParams(0);
    SimResult r0 = runWorkload(base, "morrigan", wl);
    SimResult r1 = runWorkload(switchy, "morrigan", wl);
    EXPECT_LT(r1.ipc, r0.ipc);
    EXPECT_GT(r1.istlbMisses, r0.istlbMisses);  // refill misses
}

TEST(ContextSwitches, MorriganStillCoversAfterSwitches)
{
    // Section 4.3: the small prediction tables refill quickly after
    // a flush, so coverage survives moderate switching rates.
    SimConfig cfg = quickConfig();
    cfg.contextSwitchInterval = 200'000;
    SimResult r = runWorkload(cfg, "morrigan",
                              qmmWorkloadParams(0));
    EXPECT_GT(r.coverage, 0.10);
}

TEST(PrefetchOnHits, GeneratesMorePrefetchTraffic)
{
    SimConfig cfg = quickConfig();
    ServerWorkloadParams wl = qmmWorkloadParams(0);
    SimResult on_miss = runWorkload(cfg, "morrigan",
                                    wl);
    cfg.prefetchOnStlbHits = true;
    SimResult on_hit = runWorkload(cfg, "morrigan",
                                   wl);
    EXPECT_GT(on_hit.prefetchWalks, on_miss.prefetchWalks);
}

TEST(CorrectingWalks, IssuedOnlyWhenEnabled)
{
    SimConfig cfg = quickConfig();
    SimResult off = runWorkload(cfg, "morrigan",
                                qmmWorkloadParams(0));
    EXPECT_EQ(off.correctingWalks, 0u);
    cfg.correctingWalks = true;
    SimResult on = runWorkload(cfg, "morrigan",
                               qmmWorkloadParams(0));
    EXPECT_GT(on.correctingWalks, 0u);
}

TEST(CorrectingWalks, NegligiblePerformanceImpact)
{
    // Section 4.3: correcting walks go out only when the walker is
    // idle, so they must not slow the system down measurably.
    SimConfig cfg = quickConfig();
    SimResult off = runWorkload(cfg, "morrigan",
                                qmmWorkloadParams(1));
    cfg.correctingWalks = true;
    SimResult on = runWorkload(cfg, "morrigan",
                               qmmWorkloadParams(1));
    EXPECT_NEAR(on.ipc, off.ipc, off.ipc * 0.02);
}
