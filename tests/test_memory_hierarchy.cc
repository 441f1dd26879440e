/** @file Unit tests for the composed memory hierarchy. */

#include <gtest/gtest.h>

#include "mem/memory_hierarchy.hh"

using namespace morrigan;

namespace
{

MemoryHierarchyParams
noPrefetchParams()
{
    MemoryHierarchyParams p;
    p.l2Prefetcher = false;
    return p;
}

} // namespace

TEST(MemoryHierarchy, ColdAccessServedByDram)
{
    MemoryHierarchy m(noPrefetchParams());
    MemAccessResult r = m.access(0x1000, AccessType::Data);
    EXPECT_EQ(r.servedBy, MemLevel::Dram);
    // Latency accumulates L1 + L2 + LLC + DRAM components.
    EXPECT_GT(r.latency, m.l1d().params().latency +
                         m.l2().params().latency +
                         m.llc().params().latency);
}

TEST(MemoryHierarchy, SecondAccessHitsL1)
{
    MemoryHierarchy m(noPrefetchParams());
    m.access(0x1000, AccessType::Data);
    MemAccessResult r = m.access(0x1000, AccessType::Data);
    EXPECT_EQ(r.servedBy, MemLevel::L1);
    EXPECT_EQ(r.latency, m.l1d().params().latency);
}

TEST(MemoryHierarchy, InstructionAndDataL1AreSeparate)
{
    MemoryHierarchy m(noPrefetchParams());
    m.access(0x2000, AccessType::Instruction);
    // Same line via the data side: L1D misses but L2 has it.
    MemAccessResult r = m.access(0x2000, AccessType::Data);
    EXPECT_EQ(r.servedBy, MemLevel::L2);
}

TEST(MemoryHierarchy, WalkerUsesDataPath)
{
    MemoryHierarchy m(noPrefetchParams());
    m.walkerAccess(0x3000);
    MemAccessResult r = m.access(0x3000, AccessType::Data);
    EXPECT_EQ(r.servedBy, MemLevel::L1);
}

TEST(MemoryHierarchy, L2PrefetcherWarmsNextLines)
{
    MemoryHierarchyParams p;
    p.l2Prefetcher = true;
    static_assert(l2PrefetchDepth == 2);
    MemoryHierarchy m(p);
    m.access(0x4000, AccessType::Data);  // miss; prefetch 2 next lines
    MemAccessResult r = m.access(0x4040, AccessType::Data);
    EXPECT_EQ(r.servedBy, MemLevel::L2);
    r = m.access(0x4080, AccessType::Data);
    EXPECT_EQ(r.servedBy, MemLevel::L2);
    r = m.access(0x40c0, AccessType::Data);
    EXPECT_NE(r.servedBy, MemLevel::L2);  // beyond depth
}

TEST(MemoryHierarchy, InstructionPrefetchDeferredCommit)
{
    MemoryHierarchy m(noPrefetchParams());
    std::optional<Cycle> lat = m.prefetchInstructionLine(0x5000);
    ASSERT_TRUE(lat.has_value());
    EXPECT_GT(*lat, 0u);
    // Not yet in L1I: the fill is still in flight.
    EXPECT_FALSE(m.l1i().contains(lineOf(0x5000)));
    m.commitInstructionPrefetch(0x5000);
    EXPECT_TRUE(m.l1i().contains(lineOf(0x5000)));
    MemAccessResult r = m.access(0x5000, AccessType::Instruction);
    EXPECT_EQ(r.servedBy, MemLevel::L1);
}

TEST(MemoryHierarchy, PrefetchOfResidentLineIsFree)
{
    MemoryHierarchy m(noPrefetchParams());
    m.access(0x6000, AccessType::Instruction);
    // A resident line needs no fill: nothing to schedule.
    EXPECT_FALSE(m.prefetchInstructionLine(0x6000).has_value());
}

TEST(MemoryHierarchy, LatencyOrderingAcrossLevels)
{
    MemoryHierarchy m(noPrefetchParams());
    MemAccessResult dram = m.access(0x7000, AccessType::Data);
    m.l1d();  // keep line in L2 by evicting L1? simpler: new lines
    MemAccessResult l1 = m.access(0x7000, AccessType::Data);
    EXPECT_GT(dram.latency, l1.latency);
}
