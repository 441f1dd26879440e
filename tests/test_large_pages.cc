/** @file Tests for 2MB large-page support (Section 4.3). */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "tlb/tlb_hierarchy.hh"
#include "vm/walker.hh"
#include "workload/workload_factory.hh"

using namespace morrigan;

TEST(LargePages, MapAndWalk)
{
    PhysMem phys(1 << 22, 1);
    PageTable pt(phys);
    Vpn base = largePageBase(0x123456);
    EXPECT_TRUE(pt.mapLargePage(0x123456));
    EXPECT_FALSE(pt.mapLargePage(base + 5));  // same 2MB page
    EXPECT_TRUE(pt.isMapped(base));
    EXPECT_TRUE(pt.isMapped(base + 511));
    EXPECT_FALSE(pt.isMapped(base + 512));

    WalkPath p = pt.walk(base + 7, false);
    EXPECT_TRUE(p.mapped);
    EXPECT_TRUE(p.large);
    // The walk terminates at the PD level: one fewer reference.
    EXPECT_EQ(p.levels, pt.levels() - 1);
}

TEST(LargePages, ContiguousFramesWithinPage)
{
    PhysMem phys(1 << 22, 1);
    PageTable pt(phys);
    Vpn base = largePageBase(0x40000);
    pt.mapLargePage(base);
    Pfn first = pt.walk(base, false).pfn;
    for (unsigned i = 1; i < 16; ++i)
        EXPECT_EQ(pt.walk(base + i, false).pfn, first + i);
}

TEST(LargePages, WalkerReportsLargeResult)
{
    PhysMem phys(1 << 22, 1);
    PageTable pt(phys);
    MemoryHierarchyParams mp;
    mp.l2Prefetcher = false;
    MemoryHierarchy mem(mp);
    PageTableWalker walker(WalkerParams{}, pt, mem);
    Vpn base = largePageBase(0x80000);
    pt.mapLargePage(base);
    WalkResult r = walker.walk(base + 3, WalkKind::DemandData, 0);
    EXPECT_TRUE(r.success);
    EXPECT_TRUE(r.large);
    EXPECT_EQ(r.basePfn, r.pfn - 3);
    EXPECT_EQ(r.memRefs, pt.levels() - 1);  // cold walk, PD leaf
}

TEST(LargePages, TlbDualSizeLookup)
{
    Tlb tlb({"t", 64, 4, 1});
    Vpn base = largePageBase(0x200000);
    tlb.fillLarge(base + 17, 0x5000, AccessType::Data);
    // Any page of the 2MB region hits the large entry.
    TlbHit h = tlb.lookupAny(base + 3, AccessType::Data);
    ASSERT_NE(h.entry, nullptr);
    EXPECT_TRUE(h.entry->large);
    EXPECT_EQ(h.pagePfn, 0x5000u + 3);
    // Pages outside it miss.
    EXPECT_EQ(tlb.lookupAny(base + 512, AccessType::Data).entry,
              nullptr);
}

TEST(LargePages, OneEntryCoversWholeRegion)
{
    TlbHierarchy h{TlbHierarchyParams{}};
    Vpn base = largePageBase(0x300000);
    h.fill(base, 0x9000, AccessType::Data, true);
    for (Vpn v = base; v < base + 512; v += 37) {
        TlbLookupResult r = h.lookup(v, AccessType::Data);
        EXPECT_NE(r.level, TlbHitLevel::Miss);
        EXPECT_EQ(r.pfn, 0x9000u + (v - base));
    }
}

TEST(LargePages, ThpCollapsesDstlbMisses)
{
    // The paper's Figure 2 methodology: with THP for data, the dSTLB
    // footprint collapses while code (4KB pages) still misses.
    SimConfig cfg;
    cfg.warmupInstructions = 200'000;
    cfg.simInstructions = 800'000;
    ServerWorkloadParams wl = qmmWorkloadParams(0);
    SimResult small = runWorkload(cfg, "none", wl);
    wl.dataHugePages = true;
    SimResult huge = runWorkload(cfg, "none", wl);
    EXPECT_LT(huge.dstlbMpki, small.dstlbMpki * 0.5);
    EXPECT_GT(huge.istlbMpki, 0.05);  // code still misses
    EXPECT_GT(huge.ipc, small.ipc);   // fewer walks overall
}

TEST(LargePages, MorriganStillWorksUnderThp)
{
    SimConfig cfg;
    cfg.warmupInstructions = 200'000;
    cfg.simInstructions = 800'000;
    ServerWorkloadParams wl = qmmWorkloadParams(1);
    wl.dataHugePages = true;
    SimResult base = runWorkload(cfg, "none", wl);
    SimResult morr = runWorkload(cfg, "morrigan", wl);
    EXPECT_GT(morr.coverage, 0.10);
    EXPECT_GE(morr.ipc, base.ipc);
}

TEST(LargePagesDeathTest, RejectsMixedMappings)
{
    PhysMem phys(1 << 22, 1);
    PageTable pt(phys);
    pt.mapPage(0x400000);  // 4KB mapping inside the region
    EXPECT_DEATH(pt.mapLargePage(0x400000),
                 "2MB mapping over existing 4KB");
}
