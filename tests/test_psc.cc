/** @file Unit tests for the page structure caches. */

#include <gtest/gtest.h>

#include "vm/psc.hh"

using namespace morrigan;

TEST(Psc, ColdLookupNeedsAllLevels)
{
    PageStructureCache psc(PscParams{});
    EXPECT_EQ(psc.lookupRefsNeeded(0x1234), pageTableLevels);
}

TEST(Psc, FillThenOnlyLeafNeeded)
{
    PageStructureCache psc(PscParams{});
    psc.fill(0x1234);
    EXPECT_EQ(psc.lookupRefsNeeded(0x1234), 1u);
}

TEST(Psc, PdEntryCovers2MBRegion)
{
    PageStructureCache psc(PscParams{});
    psc.fill(0x1200);
    // Same 512-page (2MB) region: PD hit.
    EXPECT_EQ(psc.lookupRefsNeeded(0x13ff), 1u);
    // Different PD region but same PDP (1GB) region: 2 refs.
    EXPECT_EQ(psc.lookupRefsNeeded(0x1200 + 512), 2u);
}

TEST(Psc, Pml4CoversHugeRegion)
{
    PageStructureCache psc(PscParams{});
    psc.fill(0);
    // Different 1GB region, same 512GB region: PML4 hit, 3 refs.
    EXPECT_EQ(psc.lookupRefsNeeded(Vpn{1} << 18), 3u);
    // Different 512GB region: full miss.
    EXPECT_EQ(psc.lookupRefsNeeded(Vpn{1} << 27), 4u);
}

TEST(Psc, PdCapacityEviction)
{
    PscParams p;
    PageStructureCache psc(p);
    // Fill more PD regions than the PD cache holds; all regions map
    // to distinct sets/ways eventually forcing evictions.
    for (Vpn r = 0; r < 64; ++r)
        psc.fill(r << 9);
    unsigned evicted = 0;
    for (Vpn r = 0; r < 64; ++r)
        if (psc.probeRefsNeeded(r << 9) > 1)
            ++evicted;
    EXPECT_GT(evicted, 0u);
}

TEST(Psc, ProbeHasNoStatEffects)
{
    PageStructureCache psc(PscParams{});
    auto lookups = [&psc] {
        const PageStructureCache::Stats &s = psc.stats();
        return s.pdHits + s.pdpHits + s.pml4Hits + s.fullMisses;
    };
    psc.probeRefsNeeded(0x1);
    EXPECT_EQ(lookups(), 0u);
    psc.lookupRefsNeeded(0x1);
    EXPECT_EQ(lookups(), 1u);
}

TEST(Psc, FlushClears)
{
    PageStructureCache psc(PscParams{});
    psc.fill(0x42);
    psc.flush();
    EXPECT_EQ(psc.probeRefsNeeded(0x42), pageTableLevels);
}
