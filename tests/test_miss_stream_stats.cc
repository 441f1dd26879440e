/** @file Unit tests for the miss-stream analyser (Figures 5-8). */

#include <gtest/gtest.h>

#include "workload/miss_stream_stats.hh"

using namespace morrigan;

TEST(MissStream, DeltaCdfExact)
{
    // Deltas 1, 10 and |-50|.
    const MissStreamStats ms({100, 101, 111, 61});
    EXPECT_EQ(ms.totalMisses(), 4u);
    EXPECT_NEAR(ms.deltaCdfAt(1), 1.0 / 3.0, 1e-9);
    EXPECT_NEAR(ms.deltaCdfAt(10), 2.0 / 3.0, 1e-9);
    EXPECT_NEAR(ms.deltaCdfAt(50), 1.0, 1e-9);
}

TEST(MissStream, PagesCoveringFraction)
{
    // Page 1 misses 8 times, page 2 once, page 3 once.
    std::vector<Vpn> stream(8, 1);
    stream.push_back(2);
    stream.push_back(3);
    const MissStreamStats ms(stream);
    EXPECT_EQ(ms.pagesCoveringFraction(0.8), 1u);
    EXPECT_EQ(ms.pagesCoveringFraction(0.9), 2u);
    EXPECT_EQ(ms.pagesCoveringFraction(1.0), 3u);
    EXPECT_EQ(ms.distinctPages(), 3u);
}

TEST(MissStream, SuccessorCountBuckets)
{
    // Page 1 has successors {2, 3}.
    const MissStreamStats ms({1, 2, 1, 3, 1, 2});
    EXPECT_NEAR(ms.successorCountFraction(1, 2), 1.0, 1e-9);
    EXPECT_NEAR(ms.successorCountFraction(3, 8), 0.0, 1e-9);
}

TEST(MissStream, SuccessorProbabilityRanks)
{
    // Page 1 -> 2 three times, 1 -> 3 once.
    const MissStreamStats ms({1, 2, 1, 2, 1, 2, 1, 3});
    // Rank 0 successor of page 1 is 2 with prob 3/4.
    double r0 = ms.successorProbability(0, 1);
    double r1 = ms.successorProbability(1, 1);
    EXPECT_NEAR(r0, 0.75, 0.1);
    EXPECT_NEAR(r1, 0.25, 0.1);
    EXPECT_NEAR(ms.successorTailProbability(2, 1), 0.0, 0.1);
}

TEST(MissStream, EmptyStreamSafeDefaults)
{
    const MissStreamStats ms;
    EXPECT_EQ(ms.totalMisses(), 0u);
    EXPECT_EQ(ms.deltaCdfAt(10), 0.0);
    EXPECT_EQ(ms.pagesCoveringFraction(0.9), 0u);
    EXPECT_EQ(ms.successorProbability(0), 0.0);
}

TEST(MissStream, PagesByMissCountSorted)
{
    const MissStreamStats ms({5, 7, 7, 7, 5});
    auto pages = ms.pagesByMissCount();
    ASSERT_EQ(pages.size(), 2u);
    EXPECT_EQ(pages[0].first, 7u);
    EXPECT_EQ(pages[0].second, 3u);
    EXPECT_EQ(pages[1].second, 2u);
}
