/** @file Unit tests for the two-level TLB hierarchy. */

#include <gtest/gtest.h>

#include "tlb/tlb_hierarchy.hh"

using namespace morrigan;

TEST(TlbHierarchy, ColdLookupMissesEverywhere)
{
    TlbHierarchy h{TlbHierarchyParams{}};
    TlbLookupResult r = h.lookup(0x10, AccessType::Instruction);
    EXPECT_EQ(r.level, TlbHitLevel::Miss);
    EXPECT_EQ(r.latency, h.itlb().params().latency +
                         h.stlb().params().latency);
}

TEST(TlbHierarchy, FillPopulatesBothLevels)
{
    TlbHierarchy h{TlbHierarchyParams{}};
    h.fill(0x10, 0x99, AccessType::Instruction);
    TlbLookupResult r = h.lookup(0x10, AccessType::Instruction);
    EXPECT_EQ(r.level, TlbHitLevel::L1);
    EXPECT_EQ(r.pfn, 0x99u);
}

TEST(TlbHierarchy, StlbHitRefillsL1)
{
    TlbHierarchy h{TlbHierarchyParams{}};
    h.fillStlbOnly(0x20, 0x88, AccessType::Instruction);
    TlbLookupResult first = h.lookup(0x20, AccessType::Instruction);
    EXPECT_EQ(first.level, TlbHitLevel::Stlb);
    TlbLookupResult second = h.lookup(0x20, AccessType::Instruction);
    EXPECT_EQ(second.level, TlbHitLevel::L1);
}

TEST(TlbHierarchy, InstructionAndDataUseSeparateL1s)
{
    TlbHierarchy h{TlbHierarchyParams{}};
    h.fill(0x30, 0x77, AccessType::Instruction);
    // Data lookup of the same page: D-TLB misses, STLB (shared) hits.
    TlbLookupResult r = h.lookup(0x30, AccessType::Data);
    EXPECT_EQ(r.level, TlbHitLevel::Stlb);
}

TEST(TlbHierarchy, SharedStlbContention)
{
    // Fill the STLB with data translations mapping to one set until
    // an instruction translation in that set is evicted.
    TlbHierarchyParams p;
    p.stlb = TlbParams{"stlb", 8, 2, 8};  // tiny shared STLB
    TlbHierarchy h{p};
    h.fillStlbOnly(0, 1, AccessType::Instruction);
    h.fillStlbOnly(4, 2, AccessType::Data);   // same set (4 sets)
    h.fillStlbOnly(8, 3, AccessType::Data);   // evicts the instr entry
    EXPECT_FALSE(h.stlb().contains(0));
    EXPECT_EQ(h.stlb().stats().crossEvictions, 1u);
}

TEST(TlbHierarchy, FlushClearsAllLevels)
{
    TlbHierarchy h{TlbHierarchyParams{}};
    h.fill(0x40, 1, AccessType::Instruction);
    h.fill(0x41, 2, AccessType::Data);
    h.flush();
    EXPECT_EQ(h.lookup(0x40, AccessType::Instruction).level,
              TlbHitLevel::Miss);
    EXPECT_EQ(h.lookup(0x41, AccessType::Data).level,
              TlbHitLevel::Miss);
}

TEST(TlbHierarchy, TableOneGeometries)
{
    TlbHierarchy h{TlbHierarchyParams{}};
    EXPECT_EQ(h.itlb().params().entries, 128u);
    EXPECT_EQ(h.itlb().params().ways, 8u);
    EXPECT_EQ(h.dtlb().params().entries, 64u);
    EXPECT_EQ(h.dtlb().params().ways, 4u);
    EXPECT_EQ(h.stlb().params().entries, 1536u);
    EXPECT_EQ(h.stlb().params().ways, 6u);
    EXPECT_EQ(h.stlb().params().latency, 8u);
}
