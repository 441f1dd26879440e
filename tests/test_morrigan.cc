/** @file Unit tests for the composite Morrigan prefetcher. */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/morrigan.hh"

using namespace morrigan;

namespace
{

std::vector<PrefetchRequest>
miss(MorriganPrefetcher &m, Vpn vpn, unsigned tid = 0)
{
    std::vector<PrefetchRequest> out;
    m.onInstrStlbMiss(vpn, 0, tid, out);
    return out;
}

} // namespace

TEST(Morrigan, SdpCoversIripMisses)
{
    MorriganPrefetcher m{MorriganParams{}};
    auto out = miss(m, 0x100);  // IRIP cold: SDP engages
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].vpn, 0x101u);
    EXPECT_TRUE(out[0].spatial);
    EXPECT_EQ(out[0].tag.producer, PrefetchProducer::Sdp);
    EXPECT_EQ(m.sdpActivations(), 1u);
}

TEST(Morrigan, SdpSilentWhenIripPredicts)
{
    MorriganPrefetcher m{MorriganParams{}};
    miss(m, 100);
    miss(m, 150);
    auto out = miss(m, 100);  // IRIP hit: predicts 150
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].vpn, 150u);
    EXPECT_EQ(out[0].tag.producer, PrefetchProducer::Irip);
}

TEST(Morrigan, EveryMissYieldsPrefetches)
{
    MorriganPrefetcher m{MorriganParams{}};
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        auto out = miss(m, 0x1000 + rng.below(64));
        EXPECT_FALSE(out.empty());
    }
}

TEST(Morrigan, SdpDisabledAblation)
{
    MorriganParams p;
    p.sdpEnabled = false;
    MorriganPrefetcher m{p};
    EXPECT_TRUE(miss(m, 0x100).empty());
}

TEST(Morrigan, SdpAlwaysOnAblation)
{
    MorriganParams p;
    p.sdpAlwaysOn = true;
    MorriganPrefetcher m{p};
    miss(m, 100);
    miss(m, 150);
    auto out = miss(m, 100);  // IRIP hit AND SDP both fire
    EXPECT_EQ(out.size(), 2u);
}

TEST(Morrigan, CreditReachesIripSlot)
{
    MorriganPrefetcher m{MorriganParams{}};
    miss(m, 100);
    miss(m, 150);
    PrefetchTag tag;
    tag.producer = PrefetchProducer::Irip;
    tag.sourcePage = 100;
    tag.distance = 50;
    m.creditPbHit(tag);
    // The credited slot now has nonzero confidence; verify via the
    // table contents.
    const PrtEntry *e = m.irip().table(0).probe(100);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->slots[0].confidence, 1u);
}

TEST(Morrigan, MonoUsesSingleTable)
{
    MorriganPrefetcher m{MorriganParams::mono()};
    EXPECT_EQ(m.irip().numTables(), 1u);
    EXPECT_EQ(m.irip().table(0).geometry().slots, 8u);
    EXPECT_EQ(m.irip().table(0).geometry().entries, 203u);
}

TEST(Morrigan, MonoStorageMatchesEnsemble)
{
    MorriganPrefetcher ensemble{MorriganParams{}};
    MorriganPrefetcher mono{MorriganParams::mono()};
    double e = static_cast<double>(ensemble.storageBits());
    double o = static_cast<double>(mono.storageBits());
    EXPECT_NEAR(o / e, 1.0, 0.08);  // ISO-storage within 8%
}

TEST(Morrigan, MonoNeverTransfers)
{
    MorriganPrefetcher m{MorriganParams::mono()};
    for (Vpn s = 101; s <= 120; ++s) {
        miss(m, 100);
        miss(m, s);
    }
    // The single table keeps the entry and replaces slots: its eight
    // slots end up full, and the last successor (+20) took one.
    const PrtEntry *e = m.irip().table(0).probe(100);
    ASSERT_NE(e, nullptr);
    unsigned valid = 0;
    bool last = false;
    for (const PrtSlot &s : e->slots) {
        valid += s.valid;
        last |= s.valid && s.distance == 20;
    }
    EXPECT_EQ(valid, 8u);
    EXPECT_TRUE(last);
}

TEST(Morrigan, SmtScalingDoublesTables)
{
    MorriganParams p;
    MorriganParams smt = p.smtScaled();
    EXPECT_EQ(smt.irip.tables[0].entries,
              2 * p.irip.tables[0].entries);
    // Section 6.6: the SMT budget is ~7.5KB (2x 3.76KB).
    MorriganPrefetcher m{smt};
    double kb = m.storageBits() / 8.0 / 1024.0;
    EXPECT_GT(kb, 7.0);
    EXPECT_LT(kb, 8.2);
}

TEST(Morrigan, ContextSwitchFlushes)
{
    MorriganPrefetcher m{MorriganParams{}};
    miss(m, 100);
    miss(m, 150);
    m.onContextSwitch();
    auto out = miss(m, 100);
    // Post-flush: IRIP cold again, SDP covers.
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].tag.producer, PrefetchProducer::Sdp);
}
