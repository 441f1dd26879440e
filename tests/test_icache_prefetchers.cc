/** @file Unit tests for the I-cache prefetchers. */

#include <gtest/gtest.h>

#include "icache/fnl_mma.hh"
#include "icache/icache_prefetcher.hh"

using namespace morrigan;

namespace
{

std::vector<Addr>
fetch(ICachePrefetcher &p, Addr pc, bool miss)
{
    std::vector<Addr> out;
    p.onFetch(pc, miss, out);
    return out;
}

} // namespace

TEST(NextLine, PrefetchesFollowingLineOnMiss)
{
    NextLinePrefetcher nl(1);
    auto out = fetch(nl, 0x1000, true);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x1040u);
}

TEST(NextLine, RunsAheadOnHitsToo)
{
    // The frontend prefetcher runs ahead of the fetch stream on
    // every access, not only on misses.
    NextLinePrefetcher nl(1);
    auto out = fetch(nl, 0x1000, false);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x1040u);
}

TEST(NextLine, NeverCrossesPageBoundary)
{
    NextLinePrefetcher nl(4);
    // Fetch in the last line of a page.
    Addr pc = 0x1000 * 4096 + 4096 - 64;
    auto out = fetch(nl, pc, true);
    EXPECT_TRUE(out.empty());
    EXPECT_FALSE(nl.crossesPageBoundaries());
}

TEST(FnlMma, CrossesPageBoundary)
{
    FnlMmaPrefetcher fm;
    Addr pc = 0x1000 * 4096 + 4096 - 64;  // last line of page
    auto out = fetch(fm, pc, true);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(pageOf(out[0]), 0x1001u);
    EXPECT_TRUE(fm.crossesPageBoundaries());
}

TEST(FnlMma, NextLineDegreeRespected)
{
    FnlMmaParams p;
    p.missLookahead = 2;
    FnlMmaPrefetcher fm(p);
    // A first miss finds the MMA table empty: only the
    // fnlMmaNextLineDegree (2) next lines come out.
    auto out = fetch(fm, 0x10000, true);
    ASSERT_EQ(out.size(), fnlMmaNextLineDegree);
    EXPECT_EQ(out[0], 0x10040u);
    EXPECT_EQ(out[1], 0x10080u);
}

TEST(FnlMma, MmaLearnsMissAheadPattern)
{
    FnlMmaParams p;
    p.missLookahead = 2;
    FnlMmaPrefetcher fm(p);
    // Repeat a miss sequence A B C D A B C D ...; MMA should learn
    // to predict lines ~lookahead misses ahead of each trigger.
    Addr seq[4] = {0x100000, 0x200000, 0x300000, 0x400000};
    for (int round = 0; round < 8; ++round)
        for (Addr a : seq)
            fetch(fm, a, true);
    auto out = fetch(fm, seq[0], true);
    // Prediction of the line expected a few misses out (seq[2] or
    // seq[3] depending on ring alignment).
    bool found = false;
    for (Addr a : out)
        found |= lineOf(a) == lineOf(seq[2]) ||
                 lineOf(a) == lineOf(seq[3]);
    EXPECT_TRUE(found);
}

TEST(FnlMma, HitsDoNotTrainMma)
{
    FnlMmaPrefetcher fm;
    for (int i = 0; i < 100; ++i) {
        auto out = fetch(fm, 0x5000, false);
        // FNL still runs ahead, but the MMA component stays idle:
        // only the next-line prefetches come out.
        EXPECT_EQ(out.size(), fnlMmaNextLineDegree);
    }
}
