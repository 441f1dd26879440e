/** @file Unit tests for the 4-level radix page table. */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "vm/page_table.hh"

using namespace morrigan;

namespace
{

struct Fixture
{
    PhysMem phys{1 << 20, 1};
    PageTable pt{phys};
};

} // namespace

TEST(PageTable, UnmappedByDefault)
{
    Fixture f;
    EXPECT_FALSE(f.pt.isMapped(0x1234));
}

TEST(PageTable, MapPageThenMapped)
{
    Fixture f;
    EXPECT_TRUE(f.pt.mapPage(0x1234));
    EXPECT_FALSE(f.pt.mapPage(0x1234));  // already mapped
    EXPECT_TRUE(f.pt.isMapped(0x1234));
    EXPECT_EQ(f.pt.stats().mappedPages, 1u);
}

TEST(PageTable, MapRangeMapsAll)
{
    Fixture f;
    f.pt.mapRange(0x1000, 64);
    for (Vpn v = 0x1000; v < 0x1040; ++v)
        EXPECT_TRUE(f.pt.isMapped(v));
    EXPECT_FALSE(f.pt.isMapped(0x1040));
}

TEST(PageTable, WalkAllocates)
{
    Fixture f;
    WalkPath p = f.pt.walk(0x777, true);
    EXPECT_TRUE(p.mapped);
    EXPECT_TRUE(f.pt.isMapped(0x777));
}

TEST(PageTable, NonAllocatingWalkOfUnmapped)
{
    Fixture f;
    WalkPath p = f.pt.walk(0x888, false);
    EXPECT_FALSE(p.mapped);
    EXPECT_FALSE(f.pt.isMapped(0x888));
}

TEST(PageTable, WalkPathAddressesAreDistinctLevels)
{
    Fixture f;
    f.pt.mapPage(0x42);
    WalkPath p = f.pt.walk(0x42, false);
    ASSERT_TRUE(p.mapped);
    std::unordered_set<Addr> frames;
    for (unsigned d = 0; d < pageTableLevels; ++d) {
        EXPECT_NE(p.entryAddr[d], 0u);
        frames.insert(p.entryAddr[d] >> pageShift);
    }
    // Four levels live in four distinct table frames.
    EXPECT_EQ(frames.size(), pageTableLevels);
}

TEST(PageTable, LeafEntryAddressMatchesRadixIndex)
{
    Fixture f;
    Vpn vpn = 0xABCDE;
    f.pt.mapPage(vpn);
    WalkPath p = f.pt.walk(vpn, false);
    Addr leaf = p.entryAddr[pageTableLevels - 1];
    EXPECT_EQ(pageOffset(leaf), radixIndex(vpn, 0) * pteBytes);
}

TEST(PageTable, ContiguousPagesShareLeafCacheLine)
{
    Fixture f;
    // 8-aligned group of pages: their leaf PTEs pack one 64B line.
    Vpn base = 0x5000;
    f.pt.mapRange(base, 8);
    WalkPath first = f.pt.walk(base, false);
    for (unsigned i = 1; i < 8; ++i) {
        WalkPath p = f.pt.walk(base + i, false);
        EXPECT_EQ(lineOf(p.entryAddr[3]), lineOf(first.entryAddr[3]));
    }
    // The 9th page starts a new line.
    f.pt.mapPage(base + 8);
    WalkPath ninth = f.pt.walk(base + 8, false);
    EXPECT_NE(lineOf(ninth.entryAddr[3]), lineOf(first.entryAddr[3]));
}

TEST(PageTable, LineNeighborsReturnsMappedGroup)
{
    Fixture f;
    Vpn base = 0x6000;           // 8-aligned
    f.pt.mapRange(base, 5);      // map only 5 of the 8 group pages
    unsigned count = 0;
    auto n = f.pt.lineNeighbors(base + 2, &count);
    EXPECT_EQ(count, 5u);
    for (unsigned i = 0; i < count; ++i) {
        EXPECT_GE(n[i].vpn, base);
        EXPECT_LT(n[i].vpn, base + 5);
    }
}

TEST(PageTable, LineNeighborsOfUnmappedRegionIsEmpty)
{
    Fixture f;
    unsigned count = 99;
    f.pt.lineNeighbors(0x9999, &count);
    EXPECT_EQ(count, 0u);
}

TEST(PageTable, DistinctPagesGetDistinctFrames)
{
    Fixture f;
    f.pt.mapRange(0x100, 100);
    std::unordered_set<Pfn> pfns;
    for (Vpn v = 0x100; v < 0x164; ++v) {
        WalkPath p = f.pt.walk(v, false);
        EXPECT_TRUE(pfns.insert(p.pfn).second);
    }
}

TEST(PageTable, TranslationIsStable)
{
    Fixture f;
    f.pt.mapPage(0x321);
    Pfn first = f.pt.walk(0x321, false).pfn;
    Pfn second = f.pt.walk(0x321, true).pfn;
    EXPECT_EQ(first, second);
}

TEST(PageTable, DistantRegionsUseDifferentInteriorNodes)
{
    Fixture f;
    Vpn a = 0x1;
    Vpn b = Vpn{1} << 30;        // different PML4 subtree
    f.pt.mapPage(a);
    f.pt.mapPage(b);
    WalkPath pa = f.pt.walk(a, false);
    WalkPath pb = f.pt.walk(b, false);
    // Root frame is shared; the PDP entries live in the same root
    // frame but the deeper entries diverge.
    EXPECT_EQ(pa.entryAddr[0] >> pageShift,
              pb.entryAddr[0] >> pageShift);
    EXPECT_NE(pa.entryAddr[1] >> pageShift,
              pb.entryAddr[1] >> pageShift);
}

// ---------------------------------------------------------------
// Equivalence over random maps: translate() answers what walk()
// does, lineNeighbors() reports the mapped 4KB pages of the line,
// and a saved table restores to one that saves and translates
// identically.
// ---------------------------------------------------------------

namespace
{

/** Every mapping the table creates, as the observer sees it. */
struct MappingLog : PageTableObserver
{
    std::map<Vpn, Pfn> small;
    std::map<Vpn, Pfn> large;  //!< 512-aligned base VPN -> base PFN

    void onMap4K(Vpn vpn, Pfn pfn) override { small[vpn] = pfn; }
    void onMap2M(Vpn base, Pfn pfn) override { large[base] = pfn; }

    /** The expected answer: a 4KB mapping first, then a 2MB one. */
    TranslateResult
    expect(Vpn vpn) const
    {
        TranslateResult r;
        if (auto it = small.find(vpn); it != small.end()) {
            r.pfn = it->second;
            r.mapped = true;
        } else if (auto lt = large.find(largePageBase(vpn));
                   lt != large.end()) {
            r.pfn = lt->second + (vpn & (pagesPerLargePage - 1));
            r.mapped = true;
            r.large = true;
        }
        return r;
    }
};

void
expectSameTranslation(const TranslateResult &got,
                      const TranslateResult &want, Vpn vpn)
{
    EXPECT_EQ(got.mapped, want.mapped) << std::hex << vpn;
    EXPECT_EQ(got.pfn, want.pfn) << std::hex << vpn;
    EXPECT_EQ(got.large, want.large) << std::hex << vpn;
}

std::string
saved(const PageTable &pt)
{
    SnapshotWriter w;
    pt.save(w);
    return w.payload();
}

} // namespace

TEST(PageTable, TranslateWalkNeighborsAndRestoreAgreeOnRandomMaps)
{
    struct Shape
    {
        unsigned levels;
        PageTableFormat format;
    };
    const Shape shapes[] = {{4, PageTableFormat::Radix},
                            {5, PageTableFormat::Radix},
                            {4, PageTableFormat::Hashed}};
    for (const Shape &shape : shapes) {
        const bool radix = shape.format == PageTableFormat::Radix;
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << shape.levels << " levels, "
                         << (radix ? "radix" : "hashed") << ", seed "
                         << seed);
            std::mt19937_64 rng(seed);
            const Vpn vpn_bits = radixBits * shape.levels;
            auto random_vpn = [&] {
                return rng() & ((Vpn{1} << vpn_bits) - 1);
            };
            PhysMem phys{1 << 24, seed};
            PageTable pt{phys, shape.levels, shape.format};
            MappingLog log;
            pt.setObserver(&log);

            // 4KB premaps: clusters of contiguous pages in the low
            // half of the VA space, some spanning a PT boundary.
            std::vector<Vpn> probes;
            for (int c = 0; c < 12; ++c) {
                Vpn base = random_vpn() >> 1;
                std::uint64_t count = 1 + rng() % 700;
                pt.mapRange(base, count);
                probes.push_back(base);
                probes.push_back(base + count);  // one past the end
            }
            // 2MB premaps in the high half (radix only), so no large
            // region holds a 4KB mapping.
            const Vpn high = Vpn{1} << (vpn_bits - 1);
            for (int c = 0; radix && c < 6; ++c) {
                Vpn base = high | (random_vpn() >> 1);
                std::uint64_t count = 1 + rng() % 1500;
                pt.mapLargeRange(base, count);
                probes.push_back(base);
                probes.push_back(largePageBase(base) +
                                 pagesPerLargePage - 1);
            }
            // Demand maps: near existing clusters and anywhere.
            for (int d = 0; d < 200; ++d) {
                Vpn v = d % 2 ? probes[rng() % probes.size()] +
                                    rng() % 64
                              : random_vpn() >> 1;
                pt.walk(v, true);
                probes.push_back(v);
            }
            // Unmapped probes: random VPNs and the neighbours of
            // everything mapped.
            for (int u = 0; u < 500; ++u)
                probes.push_back(random_vpn());
            for (const auto &[vpn, pfn] : log.small) {
                probes.push_back(vpn);
                probes.push_back(vpn ^ 9);
            }

            for (Vpn v : probes) {
                TranslateResult want = log.expect(v);
                expectSameTranslation(pt.translate(v), want, v);
                WalkPath path = pt.walk(v, false);
                expectSameTranslation({path.pfn, path.mapped, path.large},
                                      want, v);
                unsigned count = 0;
                auto neighbors = pt.lineNeighbors(v, &count);
                std::vector<Vpn> expected, got;
                Vpn group = v & ~static_cast<Vpn>(ptesPerLine - 1);
                for (Vpn c = group; c < group + ptesPerLine; ++c)
                    if (log.small.count(c))
                        expected.push_back(c);
                for (unsigned k = 0; k < count; ++k) {
                    got.push_back(neighbors[k].vpn);
                    EXPECT_EQ(neighbors[k].pfn,
                              log.expect(neighbors[k].vpn).pfn)
                        << std::hex << neighbors[k].vpn;
                }
                EXPECT_EQ(got, expected) << std::hex << v;
            }

            PhysMem phys2{1 << 24, seed};
            PageTable restored{phys2, shape.levels,
                               shape.format};
            const std::string image = saved(pt);
            if (!radix) {
                // The image grows with the mapped groups: per group
                // its bucket and group keys, a leaf mask and one
                // frame per mapped page. Images that wrote all 2^20
                // modelled buckets (8 bytes each) and every leaf as a
                // (vpn, pfn) pair were over 100x larger.
                std::set<Vpn> groups;
                for (const auto &[vpn, pfn] : log.small)
                    groups.insert(vpn / ptesPerLine);
                EXPECT_LE(image.size(), 64 + 17 * groups.size() +
                                            8 * log.small.size());
                EXPECT_LT(image.size() * 100,
                          (std::size_t{1} << 20) * 8 +
                              16 * log.small.size());
            }
            SnapshotReader r = SnapshotReader::fromPayload(image);
            restored.restore(r);
            EXPECT_EQ(r.remaining(), 0u);
            EXPECT_EQ(saved(restored), image);
            for (Vpn v : probes) {
                expectSameTranslation(restored.translate(v),
                                      pt.translate(v), v);
                EXPECT_EQ(restored.walk(v, false).entryAddr,
                          pt.walk(v, false).entryAddr);
            }
        }
    }
}
