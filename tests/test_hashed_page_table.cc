/** @file Tests for the hashed page table format (Section 4.3). */

#include <gtest/gtest.h>

#include "mem/memory_hierarchy.hh"
#include "sim/experiment.hh"
#include "vm/walker.hh"
#include "workload/workload_factory.hh"

using namespace morrigan;

namespace
{

struct Fixture
{
    PhysMem phys{1 << 22, 1};
    PageTable pt{phys, pageTableLevels, PageTableFormat::Hashed};
};

} // namespace

TEST(HashedPageTable, MapWalkRoundTrip)
{
    Fixture f;
    EXPECT_EQ(f.pt.format(), PageTableFormat::Hashed);
    f.pt.mapPage(0x1234);
    EXPECT_TRUE(f.pt.isMapped(0x1234));
    WalkPath p = f.pt.walk(0x1234, false);
    EXPECT_TRUE(p.mapped);
    EXPECT_GE(p.levels, 1u);
}

TEST(HashedPageTable, TypicalWalkIsOneReference)
{
    Fixture f;
    f.pt.mapRange(0x4000, 256);
    unsigned one_probe = 0;
    for (Vpn v = 0x4000; v < 0x4100; ++v) {
        WalkPath p = f.pt.walk(v, false);
        one_probe += p.levels == 1;
    }
    // Collisions are rare in a sparsely filled table.
    EXPECT_GT(one_probe, 240u);
}

TEST(HashedPageTable, GroupSharesOneBucketLine)
{
    Fixture f;
    f.pt.mapRange(0x8000, 8);  // one aligned group
    WalkPath first = f.pt.walk(0x8000, false);
    for (Vpn v = 0x8001; v < 0x8008; ++v) {
        WalkPath p = f.pt.walk(v, false);
        EXPECT_EQ(lineOf(p.entryAddr[0]),
                  lineOf(first.entryAddr[0]));
    }
}

TEST(HashedPageTable, LineNeighborsPreserved)
{
    // Section 4.3: hashed tables preserve the page table locality
    // that IRIP/SDP exploit.
    Fixture f;
    f.pt.mapRange(0xA000, 5);
    unsigned count = 0;
    auto n = f.pt.lineNeighbors(0xA002, &count);
    EXPECT_EQ(count, 5u);
    for (unsigned i = 0; i < count; ++i)
        EXPECT_EQ(n[i].vpn & ~Vpn{7}, Vpn{0xA000});
}

TEST(HashedPageTable, NonAllocatingWalkOfUnmapped)
{
    Fixture f;
    WalkPath p = f.pt.walk(0xBEEF, false);
    EXPECT_FALSE(p.mapped);
    EXPECT_FALSE(f.pt.isMapped(0xBEEF));
}

TEST(HashedPageTable, WalkerSkipsPsc)
{
    Fixture f;
    MemoryHierarchyParams mp;
    mp.l2Prefetcher = false;
    MemoryHierarchy mem(mp);
    PageTableWalker walker(WalkerParams{}, f.pt, mem);
    WalkResult r = walker.walk(0x42, WalkKind::DemandData, 0);
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.memRefs, 1u);             // single bucket probe
    const PageStructureCache::Stats &psc = walker.psc().stats();
    EXPECT_EQ(psc.pdHits + psc.pdpHits + psc.pml4Hits + psc.fullMisses,
              0u);
}

TEST(HashedPageTable, FasterColdWalksThanRadix)
{
    // A cold radix walk needs 4 serialized references; a hashed walk
    // needs ~1 (the paper's cited motivation for hashed tables).
    PhysMem phys_r(1 << 22, 1), phys_h(1 << 22, 1);
    PageTable radix(phys_r);
    PageTable hashed(phys_h, pageTableLevels, PageTableFormat::Hashed);
    MemoryHierarchyParams mp;
    mp.l2Prefetcher = false;
    MemoryHierarchy mem_r(mp), mem_h(mp);
    PageTableWalker wr(WalkerParams{}, radix, mem_r);
    PageTableWalker wh(WalkerParams{}, hashed, mem_h);
    Cycle lr = wr.walk(0x77, WalkKind::DemandData, 0).latency;
    Cycle lh = wh.walk(0x77, WalkKind::DemandData, 0).latency;
    EXPECT_LT(lh, lr);
}

TEST(HashedPageTable, MorriganOperatesTheSame)
{
    SimConfig cfg;
    cfg.warmupInstructions = 150'000;
    cfg.simInstructions = 500'000;
    cfg.pageTableFormat = PageTableFormat::Hashed;
    ServerWorkloadParams wl = qmmWorkloadParams(0);
    SimResult base = runWorkload(cfg, "none", wl);
    SimResult morr = runWorkload(cfg, "morrigan", wl);
    // Coverage survives the format change (spatial fills included).
    EXPECT_GT(morr.coverage, 0.15);
    EXPECT_GT(morr.ipc, base.ipc);
}
