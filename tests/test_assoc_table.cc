/** @file Unit tests for the set-associative kernel and the generic
 * set-associative table. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/assoc_table.hh"
#include "common/rng.hh"
#include "common/set_kernel.hh"
#include "common/types.hh"

using namespace morrigan;

TEST(AssocTable, InsertFind)
{
    SetAssocTable<Vpn, int> t(16, 4);
    t.insert(100, 7);
    ASSERT_NE(t.find(100), nullptr);
    EXPECT_EQ(*t.find(100), 7);
    EXPECT_EQ(t.find(101), nullptr);
}

TEST(AssocTable, OverwriteExisting)
{
    SetAssocTable<Vpn, int> t(8, 2);
    t.insert(5, 1);
    t.insert(5, 2);
    EXPECT_EQ(*t.find(5), 2);
    EXPECT_EQ(t.population(), 1u);
}

TEST(AssocTable, LruEvictionOrder)
{
    // Fully associative 2-entry table.
    SetAssocTable<Vpn, int> t(2, 2);
    t.insert(1, 1);
    t.insert(2, 2);
    t.find(1);               // make key 2 the LRU
    Vpn victim = 0;
    bool evicted = t.insert(3, 3, &victim);
    EXPECT_TRUE(evicted);
    EXPECT_EQ(victim, 2u);
    EXPECT_NE(t.find(1), nullptr);
    EXPECT_EQ(t.find(2), nullptr);
}

TEST(AssocTable, ProbeDoesNotTouchLru)
{
    SetAssocTable<Vpn, int> t(2, 2);
    t.insert(1, 1);
    t.insert(2, 2);
    t.probe(1);              // must NOT refresh key 1
    Vpn victim = 0;
    t.insert(3, 3, &victim);
    EXPECT_EQ(victim, 1u);   // 1 is still LRU
}

TEST(AssocTable, EvictedValueReturned)
{
    SetAssocTable<Vpn, int> t(1, 1);
    t.insert(1, 42);
    Vpn victim_key = 0;
    int victim_val = 0;
    EXPECT_TRUE(t.insert(2, 43, &victim_key, &victim_val));
    EXPECT_EQ(victim_key, 1u);
    EXPECT_EQ(victim_val, 42);
}

TEST(AssocTable, InsertNoEvictRespectsFullSet)
{
    SetAssocTable<Vpn, int> t(2, 2);
    EXPECT_TRUE(t.insertNoEvict(1, 1));
    EXPECT_TRUE(t.insertNoEvict(2, 2));
    EXPECT_FALSE(t.insertNoEvict(3, 3));
    EXPECT_EQ(t.find(3), nullptr);
    EXPECT_EQ(t.population(), 2u);
}

TEST(AssocTable, EraseAndPopulation)
{
    SetAssocTable<Vpn, int> t(8, 2);
    t.insert(1, 1);
    t.insert(2, 2);
    EXPECT_EQ(t.population(), 2u);
    EXPECT_TRUE(t.erase(1));
    EXPECT_FALSE(t.erase(1));
    EXPECT_EQ(t.population(), 1u);
    EXPECT_EQ(t.find(1), nullptr);
}

TEST(AssocTable, FlushEmptiesEverything)
{
    SetAssocTable<Vpn, int> t(8, 4);
    for (Vpn v = 0; v < 8; ++v)
        t.insert(v, static_cast<int>(v));
    t.flush();
    EXPECT_EQ(t.population(), 0u);
    for (Vpn v = 0; v < 8; ++v)
        EXPECT_EQ(t.find(v), nullptr);
}

TEST(AssocTable, SetConflictsOnlyWithinSet)
{
    // 4 entries, 1 way => 4 direct-mapped sets indexed by low bits.
    SetAssocTable<Vpn, int> t(4, 1);
    t.insert(0, 0);
    t.insert(4, 4);          // same set as 0, evicts it
    EXPECT_EQ(t.find(0), nullptr);
    t.insert(1, 1);          // different set, no interaction
    EXPECT_NE(t.find(4), nullptr);
    EXPECT_NE(t.find(1), nullptr);
}

TEST(AssocTable, ForEachVisitsAllValid)
{
    SetAssocTable<Vpn, int> t(8, 8);
    for (Vpn v = 10; v < 15; ++v)
        t.insert(v, 1);
    int count = 0;
    t.forEach([&](Vpn, const int &) { ++count; });
    EXPECT_EQ(count, 5);
}

/** Geometry sweep: capacity is always reachable and never exceeded. */
struct Geometry
{
    std::uint32_t entries;
    std::uint32_t ways;
};

class AssocTableGeometry : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(AssocTableGeometry, FillsToCapacity)
{
    auto [entries, ways] = GetParam();
    SetAssocTable<Vpn, int> t(entries, ways);
    std::uint32_t sets = entries / ways;
    // Insert exactly `ways` keys per set.
    for (std::uint32_t s = 0; s < sets; ++s)
        for (std::uint32_t w = 0; w < ways; ++w)
            t.insert(s + w * sets, 1);
    EXPECT_EQ(t.population(), entries);
    // All keys must still be present (no premature eviction).
    for (std::uint32_t s = 0; s < sets; ++s)
        for (std::uint32_t w = 0; w < ways; ++w)
            EXPECT_NE(t.find(s + w * sets), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AssocTableGeometry,
    ::testing::Values(Geometry{64, 64}, Geometry{64, 4},
                      Geometry{128, 32}, Geometry{1536, 6},
                      Geometry{2, 2}, Geometry{32, 1}));

TEST(SetKernel, VictimIsFirstSmallestWord)
{
    // Way counts 1..64 cover the vector path (multiples of four) and
    // the scalar one. Ties -- several invalid ways, whose word is 0 --
    // go to the lowest way, so a fill's storage position (and with it
    // the snapshot byte order) is fixed.
    Rng rng(5, 0x99);
    std::vector<std::uint64_t> rec(64);
    for (std::uint32_t ways = 1; ways <= 64; ++ways) {
        for (int trial = 0; trial < 200; ++trial) {
            for (std::uint32_t w = 0; w < ways; ++w)
                rec[w] = rng.chance(0.3) ? 0 : 1 + rng.below(8);
            auto want = std::min_element(rec.begin(), rec.begin() + ways) -
                        rec.begin();
            ASSERT_EQ(set_kernel::victimWay(rec.data(), ways), want)
                << ways << " ways, trial " << trial;
        }
    }
}

TEST(SetKernel, MaskedScanMatchesOnlyValidWays)
{
    // -1 and 0 are live PageDelta keys; only the recency word tells
    // a valid way from an invalid one.
    const PageDelta keys[4] = {-1, 0, -1, 0};
    const std::uint64_t rec[4] = {0, 0, 7, 3};
    EXPECT_EQ(set_kernel::findKey(keys, rec, 4, PageDelta{-1}), 2);
    EXPECT_EQ(set_kernel::findKey(keys, rec, 4, PageDelta{0}), 3);
    EXPECT_EQ(set_kernel::findKey(keys, rec, 2, PageDelta{0}), -1);
}
