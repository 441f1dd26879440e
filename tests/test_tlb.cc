/** @file Unit tests for a single TLB level. */

#include <gtest/gtest.h>

#include "tlb/tlb.hh"

using namespace morrigan;

namespace
{

TlbParams
tinyTlb()
{
    return TlbParams{"tiny", 8, 2, 1};
}

} // namespace

TEST(Tlb, MissThenFillThenHit)
{
    Tlb tlb(tinyTlb());
    EXPECT_EQ(tlb.lookup(0x10, AccessType::Instruction), nullptr);
    tlb.fill(0x10, 0x99, AccessType::Instruction);
    const TlbEntry *e = tlb.lookup(0x10, AccessType::Instruction);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->pfn, 0x99u);
}

TEST(Tlb, StatsSplitBySide)
{
    Tlb tlb(tinyTlb());
    tlb.lookup(0x1, AccessType::Instruction);
    tlb.lookup(0x2, AccessType::Data);
    tlb.lookup(0x3, AccessType::Data);
    EXPECT_EQ(tlb.stats().instrAccesses, 1u);
    EXPECT_EQ(tlb.stats().dataAccesses, 2u);
    EXPECT_EQ(tlb.stats().instrMisses, 1u);
    EXPECT_EQ(tlb.stats().dataMisses, 2u);
}

TEST(Tlb, CrossEvictionsCounted)
{
    // 8 entries, 2 ways => 4 sets; keys 0, 4, 8 share set 0.
    Tlb tlb(tinyTlb());
    tlb.fill(0, 1, AccessType::Data);
    tlb.fill(4, 2, AccessType::Data);
    tlb.fill(8, 3, AccessType::Instruction);  // evicts a data entry
    EXPECT_EQ(tlb.stats().crossEvictions, 1u);
    tlb.fill(12, 4, AccessType::Instruction); // evicts data again
    EXPECT_EQ(tlb.stats().crossEvictions, 2u);
    tlb.fill(16, 5, AccessType::Instruction); // evicts instruction
    EXPECT_EQ(tlb.stats().crossEvictions, 2u);
}

TEST(Tlb, InvalidateAndFlush)
{
    Tlb tlb(tinyTlb());
    tlb.fill(0x1, 1, AccessType::Data);
    tlb.fill(0x2, 2, AccessType::Data);
    EXPECT_TRUE(tlb.invalidate(0x1));
    EXPECT_FALSE(tlb.invalidate(0x1));
    EXPECT_FALSE(tlb.contains(0x1));
    tlb.flush();
    EXPECT_FALSE(tlb.contains(0x2));
}

TEST(Tlb, ProbeEntryHasNoStatEffects)
{
    Tlb tlb(tinyTlb());
    tlb.fill(0x5, 0x50, AccessType::Instruction);
    const TlbEntry *e = tlb.probeEntry(0x5);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->pfn, 0x50u);
    EXPECT_EQ(tlb.stats().instrAccesses + tlb.stats().dataAccesses, 0u);
}

TEST(Tlb, LruWithinSet)
{
    Tlb tlb(tinyTlb());
    tlb.fill(0, 1, AccessType::Data);
    tlb.fill(4, 2, AccessType::Data);
    tlb.lookup(0, AccessType::Data);   // refresh 0
    tlb.fill(8, 3, AccessType::Data);  // evicts 4
    EXPECT_TRUE(tlb.contains(0));
    EXPECT_FALSE(tlb.contains(4));
}
