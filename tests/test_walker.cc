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
    WalkResult r = f.walker.walk(0x100, WalkKind::DemandData, 0);
    EXPECT_TRUE(r.success);
    EXPECT_TRUE(f.pt.isMapped(0x100));
    EXPECT_GT(r.latency, 0u);
    EXPECT_EQ(r.memRefs, pageTableLevels);  // cold PSC
}

TEST(Walker, PscCutsReferencesOnRepeatWalks)
{
    Fixture f;
    f.pt.mapRange(0x200, 16);
    f.walker.walk(0x200, WalkKind::DemandData, 0);
    WalkResult r = f.walker.walk(0x201, WalkKind::DemandData, 100);
    EXPECT_EQ(r.memRefs, 1u);  // PD hit: leaf only
}

TEST(Walker, PrefetchWalkToUnmappedIsDropped)
{
    Fixture f;
    WalkResult r =
        f.walker.walk(0x9999, WalkKind::Prefetch, 0);
    EXPECT_FALSE(r.success);
    EXPECT_FALSE(f.pt.isMapped(0x9999));
}

TEST(Walker, OnlyDemandWalksAllocate)
{
    // The fault policy follows from the kind: demand walks map the
    // page on a fault, prefetch and correcting walks never do.
    Fixture f;
    f.walker.walk(0x10, WalkKind::Prefetch, 0);
    f.walker.walk(0x11, WalkKind::Correcting, 0);
    EXPECT_FALSE(f.pt.isMapped(0x10));
    EXPECT_FALSE(f.pt.isMapped(0x11));
    EXPECT_EQ(f.walker.stats().droppedPrefetchWalks, 2u);
    EXPECT_TRUE(f.walker.walk(0x12, WalkKind::DemandInstr, 0).success);
    EXPECT_TRUE(f.walker.walk(0x13, WalkKind::DemandData, 0).success);
    EXPECT_TRUE(f.pt.isMapped(0x12));
    EXPECT_TRUE(f.pt.isMapped(0x13));
}

TEST(Walker, PortContentionDelaysLaterWalks)
{
    Fixture f;
    f.pt.mapRange(0x300, 64);
    // Saturate all ports at cycle 0.
    Cycle busiest = 0;
    for (std::uint32_t i = 0; i <= f.wp.ports; ++i) {
        WalkResult r = f.walker.walk(0x300 + i * 8,
                                     WalkKind::Prefetch, 0);
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
        f.walker.walk(0x400 + i, WalkKind::DemandData, 0);
    EXPECT_GT(f.walker.earliestStart(0), 0u);
}

TEST(Walker, LatencyIncludesQueueing)
{
    Fixture f;
    f.pt.mapRange(0x500, 16);
    for (std::uint32_t i = 0; i < f.wp.ports; ++i)
        f.walker.walk(0x500 + i, WalkKind::DemandData, 0);
    WalkResult r = f.walker.walk(0x50f, WalkKind::DemandData, 0);
    EXPECT_EQ(r.completeCycle - 0, r.latency);
    EXPECT_GE(r.startCycle, 1u);
}

TEST(Walker, StatsSplitDemandAndPrefetch)
{
    // Each kind counts in its own record.
    Fixture f;
    f.pt.mapRange(0x600, 8);
    const WalkKind kinds[] = {WalkKind::DemandInstr, WalkKind::DemandData,
                              WalkKind::Prefetch, WalkKind::Correcting};
    for (unsigned i = 0; i < 4; ++i) {
        for (unsigned n = 0; n <= i; ++n)
            f.walker.walk(0x600 + i, kinds[i], 0);
    }
    const PageTableWalker::Stats &s = f.walker.stats();
    unsigned i = 0;
    for (const PageTableWalker::KindStats *k :
         {&s.demandInstr, &s.demandData, &s.prefetch, &s.correcting}) {
        SCOPED_TRACE(i);
        EXPECT_GT(k->refsByLevel[0] + k->refsByLevel[1] +
                      k->refsByLevel[2] + k->refsByLevel[3],
                  0u);
        EXPECT_EQ(k->latency.count, i + 1);
        ++i;
    }
}

TEST(Walker, RefsByLevelSumsToMemRefs)
{
    Fixture f;
    WalkResult r = f.walker.walk(0x700, WalkKind::DemandData, 0);
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

    WalkResult ra = walker_a.walk(0x42, WalkKind::DemandData, 0);
    WalkResult rb = walker_b.walk(0x42, WalkKind::DemandData, 0);
    EXPECT_EQ(ra.memRefs, rb.memRefs);
    EXPECT_LT(rb.latency, ra.latency);
}

TEST(Walker, WalkLatencyReflectsCacheLocality)
{
    Fixture f;
    f.pt.mapRange(0x800, 8);
    WalkResult cold = f.walker.walk(0x800, WalkKind::DemandData, 0);
    // Neighbouring page: PSC hit + leaf line already in L1D.
    WalkResult warm =
        f.walker.walk(0x801, WalkKind::DemandData, 1000);
    EXPECT_LT(warm.latency, cold.latency);
}
