/** @file Unit tests for the IRIP ensemble (Section 4.1.1/4.2). */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/irip.hh"

using namespace morrigan;

namespace
{

std::vector<PrefetchRequest>
miss(Irip &irip, Vpn vpn, unsigned tid = 0)
{
    std::vector<PrefetchRequest> out;
    irip.onInstrStlbMiss(vpn, 0, tid, out);
    return out;
}

bool
predicts(const std::vector<PrefetchRequest> &out, Vpn vpn)
{
    return std::any_of(out.begin(), out.end(),
                       [vpn](const PrefetchRequest &r) {
                           return r.vpn == vpn;
                       });
}

} // namespace

TEST(Irip, FirstMissProducesNoPrefetch)
{
    Irip irip{IripParams{}};
    EXPECT_TRUE(miss(irip, 100).empty());
}

TEST(Irip, LearnsSuccessorAfterOneTransition)
{
    Irip irip{IripParams{}};
    miss(irip, 100);   // install 100 in PRT-S1
    miss(irip, 107);   // train 100 -> +7
    auto out = miss(irip, 100);  // hit in PRT-S1
    EXPECT_TRUE(predicts(out, 107));
}

TEST(Irip, DistancesNotVpnsAreStored)
{
    Irip irip{IripParams{}};
    miss(irip, 100);
    miss(irip, 107);
    auto out = miss(irip, 100);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0].tag.distance, 7);
    EXPECT_EQ(out[0].tag.sourcePage, 100u);
    EXPECT_EQ(out[0].tag.producer, PrefetchProducer::Irip);
}

TEST(Irip, PromotionFromS1ToS2)
{
    Irip irip{IripParams{}};
    // Page 100 sees successors 107 and 90: the second distance no
    // longer fits PRT-S1's single slot, so the entry transfers.
    miss(irip, 100); miss(irip, 107);
    miss(irip, 100); miss(irip, 90);
    EXPECT_EQ(irip.table(0).probe(100), nullptr);   // left S1
    EXPECT_NE(irip.table(1).probe(100), nullptr);   // entered S2
    EXPECT_FALSE(irip.entryResidesInMultipleTables(100));
    auto out = miss(irip, 100);
    EXPECT_TRUE(predicts(out, 107));
    EXPECT_TRUE(predicts(out, 90));
}

TEST(Irip, PromotionChainReachesS8)
{
    Irip irip{IripParams{}};
    // 8 distinct successors promote 100 through S1->S2->S4->S8.
    for (Vpn succ = 101; succ <= 108; ++succ) {
        miss(irip, 100);
        miss(irip, succ);
    }
    EXPECT_NE(irip.table(3).probe(100), nullptr);
    for (std::size_t t = 0; t < 3; ++t)
        EXPECT_EQ(irip.table(t).probe(100), nullptr);
    auto out = miss(irip, 100);
    EXPECT_EQ(out.size(), 8u);
}

TEST(Irip, TerminalTableVictimisesLowConfidenceSlot)
{
    Irip irip{IripParams{}};
    for (Vpn succ = 101; succ <= 108; ++succ) {
        miss(irip, 100);
        miss(irip, succ);
    }
    ASSERT_NE(irip.table(3).probe(100), nullptr);
    // A 9th successor must replace a slot, not transfer.
    miss(irip, 100);
    miss(irip, 200);
    const PrtEntry *e = irip.table(3).probe(100);
    ASSERT_NE(e, nullptr);
    // The +100 distance took a slot of one of the eight +1..+8.
    unsigned valid = 0, old = 0;
    bool fresh = false;
    for (const PrtSlot &s : e->slots) {
        if (!s.valid)
            continue;
        ++valid;
        fresh |= s.distance == 100;
        old += s.distance >= 1 && s.distance <= 8;
    }
    EXPECT_EQ(valid, 8u);
    EXPECT_TRUE(fresh);
    EXPECT_EQ(old, 7u);
    auto out = miss(irip, 100);
    EXPECT_TRUE(predicts(out, 200));
    EXPECT_EQ(out.size(), 8u);  // still 8 slots
}

TEST(Irip, NoEntryDuplicationAcrossTables)
{
    IripParams p;
    Irip irip{p};
    Rng rng(5);
    std::vector<Vpn> pages;
    for (int i = 0; i < 64; ++i)
        pages.push_back(0x1000 + rng.below(256));
    for (int round = 0; round < 50; ++round)
        for (Vpn v : pages)
            miss(irip, v);
    for (Vpn v : pages)
        EXPECT_FALSE(irip.entryResidesInMultipleTables(v))
            << "page " << v << " duplicated";
}

TEST(Irip, OnlyHighestConfidenceSlotIsSpatial)
{
    Irip irip{IripParams{}};
    miss(irip, 100); miss(irip, 107);
    miss(irip, 100); miss(irip, 90);
    // Credit the +7 slot so it has the highest confidence.
    PrefetchTag tag;
    tag.producer = PrefetchProducer::Irip;
    tag.sourcePage = 100;
    tag.distance = 7;
    irip.creditPbHit(tag);

    auto out = miss(irip, 100);
    ASSERT_EQ(out.size(), 2u);
    unsigned spatial = 0;
    for (const auto &r : out) {
        if (r.spatial) {
            ++spatial;
            EXPECT_EQ(r.vpn, 107u);  // the credited slot wins
        }
    }
    EXPECT_EQ(spatial, 1u);
}

TEST(Irip, SpatialAllSlotsAblation)
{
    IripParams p;
    p.spatialAllSlots = true;
    Irip irip{p};
    miss(irip, 100); miss(irip, 107);
    miss(irip, 100); miss(irip, 90);
    auto out = miss(irip, 100);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].spatial);
    EXPECT_TRUE(out[1].spatial);
}

TEST(Irip, OutOfRangeDistancesAreDropped)
{
    Irip irip{IripParams{}};
    miss(irip, 100);
    miss(irip, 100 + 100000);  // delta far beyond 15 bits
    // Page 100 stays in PRT-S1 with no slot trained.
    const PrtEntry *e = irip.table(0).probe(100);
    ASSERT_NE(e, nullptr);
    for (const PrtSlot &s : e->slots)
        EXPECT_FALSE(s.valid);
    auto out = miss(irip, 100);
    EXPECT_TRUE(out.empty());
}

TEST(Irip, RepeatedSamePageMissDoesNotSelfTrain)
{
    Irip irip{IripParams{}};
    miss(irip, 100);
    miss(irip, 100);
    auto out = miss(irip, 100);
    EXPECT_TRUE(out.empty());  // no 0-distance slot
}

TEST(Irip, ContextSwitchFlushesEverything)
{
    Irip irip{IripParams{}};
    miss(irip, 100); miss(irip, 107);
    irip.onContextSwitch();
    EXPECT_EQ(irip.table(0).population(), 0u);
    auto out = miss(irip, 100);
    EXPECT_TRUE(out.empty());
}

TEST(Irip, SmtThreadsShareTablesButNotHistory)
{
    Irip irip{IripParams{}};
    miss(irip, 100, 0);
    miss(irip, 500, 1);   // thread 1 must not train 100 -> 500
    miss(irip, 107, 0);   // thread 0 trains 100 -> +7
    auto out = miss(irip, 100, 1);  // shared table: hit for thread 1
    EXPECT_TRUE(predicts(out, 107));
    EXPECT_FALSE(predicts(out, 500));
}

TEST(Irip, DefaultStorageBudgetNearPaper)
{
    Irip irip{IripParams{}};
    double kb = irip.storageBits() / 8.0 / 1024.0;
    // Paper reports 3.76KB; the exact slot arithmetic gives ~3.8KB.
    EXPECT_GT(kb, 3.5);
    EXPECT_LT(kb, 4.1);
}

TEST(Irip, ScaledParamsChangeCapacity)
{
    IripParams base;
    IripParams doubled = base.scaled(2.0);
    EXPECT_EQ(doubled.tables[0].entries, 2 * base.tables[0].entries);
    IripParams halved = base.scaled(0.5);
    EXPECT_EQ(halved.tables[0].entries, base.tables[0].entries / 2);
}

TEST(Irip, FullyAssociativeVariant)
{
    IripParams fa = IripParams{}.fullyAssociative();
    for (const auto &g : fa.tables)
        EXPECT_EQ(g.ways, g.entries);
    Irip irip{fa};  // constructs fine
    miss(irip, 1);
    SUCCEED();
}

TEST(IripDeathTest, RejectsDescendingSlotOrder)
{
    IripParams p;
    p.tables = {{"a", 64, 16, 4}, {"b", 64, 16, 2}};
    EXPECT_EXIT(Irip{p}, ::testing::ExitedWithCode(1),
                "ascending slot counts");
}
