/** @file Unit tests for the tag-only cache model. */

#include <gtest/gtest.h>

#include "mem/cache_model.hh"

using namespace morrigan;

namespace
{

CacheParams
smallCache()
{
    // 8 lines, 2-way => 4 sets.
    return CacheParams{"test", 8 * 64, 2, 3};
}

} // namespace

TEST(CacheModel, MissThenHitAfterInsert)
{
    CacheModel c(smallCache());
    EXPECT_FALSE(c.lookup(0x100));
    c.insert(0x100);
    EXPECT_TRUE(c.lookup(0x100));
    EXPECT_EQ(c.stats().accesses, 2u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(CacheModel, ContainsHasNoSideEffects)
{
    CacheModel c(smallCache());
    c.insert(0x1);
    EXPECT_TRUE(c.contains(0x1));
    EXPECT_FALSE(c.contains(0x2));
    EXPECT_EQ(c.stats().accesses, 0u);
}

TEST(CacheModel, LruEvictionWithinSet)
{
    CacheModel c(smallCache());  // 4 sets, 2 ways
    // Lines 0, 4, 8 all map to set 0.
    c.insert(0);
    c.insert(4);
    c.lookup(0);           // refresh 0; 4 becomes LRU
    c.insert(8);           // evicts 4
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(4));
    EXPECT_TRUE(c.contains(8));
}

TEST(CacheModel, InvalidateRemovesLine)
{
    CacheModel c(smallCache());
    c.insert(0x10);
    EXPECT_TRUE(c.invalidate(0x10));
    EXPECT_FALSE(c.invalidate(0x10));
    EXPECT_FALSE(c.contains(0x10));
}

TEST(CacheModel, FlushClearsAll)
{
    CacheModel c(smallCache());
    for (Addr l = 0; l < 8; ++l)
        c.insert(l);
    c.flush();
    for (Addr l = 0; l < 8; ++l)
        EXPECT_FALSE(c.contains(l));
}

TEST(CacheModel, InsertReportsEviction)
{
    CacheModel c({"t", 1 * 64, 1, 1});  // single line
    EXPECT_FALSE(c.insert(1));
    EXPECT_TRUE(c.insert(2));
}

TEST(CacheModel, DuplicateInsertDoesNotEvict)
{
    CacheModel c({"t", 2 * 64, 2, 1});
    c.insert(1);
    c.insert(3);
    EXPECT_FALSE(c.insert(1));  // refresh, no eviction
    EXPECT_TRUE(c.contains(3));
}

class CacheGeometry
    : public ::testing::TestWithParam<std::pair<std::uint32_t,
                                                std::uint32_t>>
{
};

TEST_P(CacheGeometry, HoldsExactlyCapacityLines)
{
    auto [size, ways] = GetParam();
    CacheModel c({"g", size, ways, 1});
    std::uint32_t lines = size / 64;
    std::uint32_t sets = c.numSets();
    for (std::uint32_t s = 0; s < sets; ++s)
        for (std::uint32_t w = 0; w < ways; ++w)
            c.insert(s + w * sets);
    for (std::uint32_t s = 0; s < sets; ++s)
        for (std::uint32_t w = 0; w < ways; ++w)
            EXPECT_TRUE(c.contains(s + w * sets));
    EXPECT_EQ(lines, sets * ways);
}

INSTANTIATE_TEST_SUITE_P(
    TableOneCaches, CacheGeometry,
    ::testing::Values(std::pair{32u * 1024, 8u},     // L1
                      std::pair{512u * 1024, 8u},    // L2
                      std::pair{2048u * 1024, 16u},  // LLC
                      std::pair{4u * 1024, 4u}));
