/** @file Unit tests for the STLB prefetch buffer. */

#include <gtest/gtest.h>

#include "tlb/prefetch_buffer.hh"

using namespace morrigan;

namespace
{

PbEntry
entry(Pfn pfn, Cycle ready = 0,
      PrefetchProducer p = PrefetchProducer::Irip)
{
    PbEntry e;
    e.pfn = pfn;
    e.readyAt = ready;
    e.tag.producer = p;
    return e;
}

} // namespace

TEST(PrefetchBuffer, HitConsumesEntry)
{
    PrefetchBuffer pb(4, 2);
    pb.insert(0x10, entry(0x99));
    PbLookupResult r = pb.lookupAndConsume(0x10, 100);
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.pending);
    EXPECT_EQ(r.entry.pfn, 0x99u);
    // Entry moved to the STLB: a second lookup misses.
    EXPECT_FALSE(pb.lookupAndConsume(0x10, 101).hit);
}

TEST(PrefetchBuffer, PendingHitWhenWalkInFlight)
{
    PrefetchBuffer pb(4, 2);
    pb.insert(0x20, entry(1, 500));
    PbLookupResult r = pb.lookupAndConsume(0x20, 100);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.pending);
    EXPECT_EQ(r.entry.readyAt, 500u);
}

TEST(PrefetchBuffer, DuplicateInsertsDropped)
{
    PrefetchBuffer pb(4, 2);
    pb.insert(0x30, entry(1));
    pb.insert(0x30, entry(2));
    EXPECT_EQ(pb.stats().inserts, 1u);
    EXPECT_EQ(pb.lookupAndConsume(0x30, 0).entry.pfn, 1u);
}

TEST(PrefetchBuffer, CapacityEvictsLru)
{
    PrefetchBuffer pb(2, 2);
    pb.insert(1, entry(1));
    pb.insert(2, entry(2));
    pb.insert(3, entry(3));  // evicts 1 (LRU)
    EXPECT_FALSE(pb.contains(1));
    EXPECT_TRUE(pb.contains(2));
    EXPECT_TRUE(pb.contains(3));
}

TEST(PrefetchBuffer, UselessEvictionCounting)
{
    PrefetchBuffer pb(1, 2);
    pb.insert(1, entry(1));
    pb.insert(2, entry(2));  // evicts 1, which never hit
    EXPECT_EQ(pb.stats().uselessEvictions, 1u);
}

TEST(PrefetchBuffer, OpportunisticInsertNeverEvicts)
{
    PrefetchBuffer pb(2, 2);
    pb.insert(1, entry(1));
    pb.insert(2, entry(2));
    pb.insertOpportunistic(3, entry(3));
    EXPECT_FALSE(pb.contains(3));
    EXPECT_TRUE(pb.contains(1));
    EXPECT_TRUE(pb.contains(2));
    // With space available it does install.
    pb.lookupAndConsume(1, 0);
    pb.insertOpportunistic(4, entry(4));
    EXPECT_TRUE(pb.contains(4));
}

TEST(PrefetchBuffer, PeekDoesNotConsume)
{
    PrefetchBuffer pb(4, 2);
    pb.insert(0x50, entry(0x5));
    const PbEntry *e = pb.peek(0x50);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->pfn, 0x5u);
    EXPECT_TRUE(pb.contains(0x50));
}

TEST(PrefetchBuffer, FlushEmpties)
{
    PrefetchBuffer pb(4, 2);
    pb.insert(1, entry(1));
    pb.flush();
    EXPECT_FALSE(pb.contains(1));
}

TEST(PrefetchBuffer, MissStatsCount)
{
    PrefetchBuffer pb(4, 2);
    pb.lookupAndConsume(9, 0);
    EXPECT_EQ(pb.stats().misses, 1u);
    EXPECT_EQ(pb.stats().hits, 0u);
}
