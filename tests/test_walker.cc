/** @file Unit tests for the page table walker. */

#include <gtest/gtest.h>

#include "mem/memory_hierarchy.hh"
#include "vm/walker.hh"

using namespace morrigan;

namespace
{

struct Fixture
{
    PhysMem phys{1 << 20, 1};
    PageTable pt{phys};
    MemoryHierarchyParams memParams{};
    MemoryHierarchy mem{[this] {
        memParams.l2Prefetcher = false;
        return memParams;
    }()};
    WalkerParams wp{};
    PageTableWalker walker{wp, pt, mem};
};

} // namespace

TEST(Walker, DemandWalkAllocatesAndSucceeds)
{
    Fixture f;
    WalkResult r = f.walker.walk(0x100, WalkKind::Demand, 0, true);
    EXPECT_TRUE(r.success);
    EXPECT_TRUE(f.pt.isMapped(0x100));
    EXPECT_GT(r.latency, 0u);
    EXPECT_EQ(r.memRefs, pageTableLevels);  // cold PSC
}

TEST(Walker, PscCutsReferencesOnRepeatWalks)
{
    Fixture f;
    f.pt.mapRange(0x200, 16);
    f.walker.walk(0x200, WalkKind::Demand, 0, true);
    WalkResult r = f.walker.walk(0x201, WalkKind::Demand, 100, true);
    EXPECT_EQ(r.memRefs, 1u);  // PD hit: leaf only
}

TEST(Walker, PrefetchWalkToUnmappedIsDropped)
{
    Fixture f;
    WalkResult r =
        f.walker.walk(0x9999, WalkKind::Prefetch, 0, false);
    EXPECT_FALSE(r.success);
    EXPECT_FALSE(f.pt.isMapped(0x9999));
}

TEST(WalkerDeathTest, FaultingPrefetchIsABug)
{
    Fixture f;
    EXPECT_DEATH(f.walker.walk(0x1, WalkKind::Prefetch, 0, true),
                 "non-faulting");
}

TEST(Walker, PortContentionDelaysLaterWalks)
{
    Fixture f;
    f.pt.mapRange(0x300, 64);
    // Saturate all ports at cycle 0.
    Cycle busiest = 0;
    for (std::uint32_t i = 0; i <= f.wp.ports; ++i) {
        WalkResult r = f.walker.walk(0x300 + i * 8,
                                     WalkKind::Prefetch, 0, false);
        busiest = std::max(busiest, r.startCycle);
    }
    // The (ports+1)-th walk cannot start at cycle 0.
    EXPECT_GT(busiest, 0u);
}

TEST(Walker, EarliestStartTracksBusyPorts)
{
    Fixture f;
    f.pt.mapRange(0x400, 16);
    EXPECT_EQ(f.walker.earliestStart(5), 5u);
    for (std::uint32_t i = 0; i < f.wp.ports; ++i)
        f.walker.walk(0x400 + i, WalkKind::Demand, 0, true);
    EXPECT_GT(f.walker.earliestStart(0), 0u);
}

TEST(Walker, LatencyIncludesQueueing)
{
    Fixture f;
    f.pt.mapRange(0x500, 16);
    for (std::uint32_t i = 0; i < f.wp.ports; ++i)
        f.walker.walk(0x500 + i, WalkKind::Demand, 0, true);
    WalkResult r = f.walker.walk(0x50f, WalkKind::Demand, 0, true);
    EXPECT_EQ(r.completeCycle - 0, r.latency);
    EXPECT_GE(r.startCycle, 1u);
}

TEST(Walker, StatsSplitDemandAndPrefetch)
{
    Fixture f;
    f.pt.mapRange(0x600, 8);
    f.walker.walk(0x600, WalkKind::Demand, 0, true);
    f.walker.walk(0x601, WalkKind::Prefetch, 0, false);
    EXPECT_EQ(f.walker.stats().demandWalks, 1u);
    EXPECT_EQ(f.walker.stats().prefetchWalks, 1u);
    EXPECT_GT(f.walker.stats().demandMemRefs, 0u);
    EXPECT_GT(f.walker.stats().prefetchMemRefs, 0u);
}

TEST(Walker, RefsByLevelSumsToMemRefs)
{
    Fixture f;
    WalkResult r = f.walker.walk(0x700, WalkKind::Demand, 0, true);
    unsigned total = 0;
    for (unsigned lvl = 0; lvl < 4; ++lvl)
        total += r.refsByLevel[lvl];
    EXPECT_EQ(total, r.memRefs);
}

TEST(Walker, AsapCollapsesSerializedChain)
{
    // Two identical systems, one with ASAP; compare the cold-walk
    // latency: serialized sum vs slowest single reference.
    PhysMem phys_a(1 << 20, 1), phys_b(1 << 20, 1);
    PageTable pt_a(phys_a), pt_b(phys_b);
    MemoryHierarchyParams mp;
    mp.l2Prefetcher = false;
    MemoryHierarchy mem_a(mp), mem_b(mp);
    WalkerParams wa, wb;
    wb.asap = true;
    PageTableWalker walker_a(wa, pt_a, mem_a);
    PageTableWalker walker_b(wb, pt_b, mem_b);

    WalkResult ra = walker_a.walk(0x42, WalkKind::Demand, 0, true);
    WalkResult rb = walker_b.walk(0x42, WalkKind::Demand, 0, true);
    EXPECT_EQ(ra.memRefs, rb.memRefs);
    EXPECT_LT(rb.latency, ra.latency);
}

TEST(Walker, WalkLatencyReflectsCacheLocality)
{
    Fixture f;
    f.pt.mapRange(0x800, 8);
    WalkResult cold = f.walker.walk(0x800, WalkKind::Demand, 0, true);
    // Neighbouring page: PSC hit + leaf line already in L1D.
    WalkResult warm =
        f.walker.walk(0x801, WalkKind::Demand, 1000, true);
    EXPECT_LT(warm.latency, cold.latency);
}
