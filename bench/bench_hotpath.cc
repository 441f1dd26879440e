/**
 * @file
 * Hot-path structure microbenchmarks (ROADMAP item 1).
 *
 * Times each structure the hot-loop speed campaign rewrote --
 * SIMD-lane cache tag scans and the full cache-hierarchy access,
 * SoA associative-table probes, the flat
 * open-addressing frequency stack, guided Zipf sampling, the flat
 * page-table fast path, and batched workload generation -- plus the
 * miss-path model structures: prediction-table lookup and RLFU
 * install, Morrigan's miss handling, prefetch-buffer insert/lookup
 * and demand page walks. Everything is reported in million
 * operations per wall second. Working sets and key streams
 * are sized so the numbers track the structures as the simulator
 * actually drives them (cache-resident tables, skewed keys), not a
 * best-case fit in the host L1.
 *
 * The golden copy in bench/golden/BENCH_Hotpath.json is gated
 * one-sidedly in CI (compare_bench_json.py --min-ratio 0.7) like the
 * throughput grid: only a real regression fails, machine variance is
 * absorbed by the ratio floor.
 */

#include "bench_util.hh"

#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "common/telemetry.hh"
#include "common/zipf.hh"
#include "core/frequency_stack.hh"
#include "core/morrigan.hh"
#include "core/prediction_table.hh"
#include "mem/cache_model.hh"
#include "mem/memory_hierarchy.hh"
#include "tlb/prefetch_buffer.hh"
#include "tlb/tlb.hh"
#include "vm/page_table.hh"
#include "vm/walker.hh"
#include "workload/server_workload.hh"

using namespace morrigan;
using namespace morrigan::bench;

namespace
{

/** Run @p body(ops) best-of-2 and return Mop/s. The body returns a
 * checksum, which is folded into a volatile sink so the measured
 * loops cannot be optimised away. */
template <typename Body>
double
mops(std::uint64_t ops, Body &&body)
{
    static volatile std::uint64_t sink;
    double best = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
        const std::uint64_t t0 = telemetry::nowNs();
        sink = sink + body(ops);
        const std::uint64_t t1 = telemetry::nowNs();
        const double secs = 1e-9 * static_cast<double>(t1 - t0);
        if (secs > 0.0)
            best = std::max(best,
                            static_cast<double>(ops) / secs / 1e6);
    }
    return best;
}

/** L2-like cache (1024 sets x 8 ways) under a Zipf-skewed line
 * stream spanning 4x its capacity: the demand lookup mix
 * accessThrough() produces. */
double
cacheLookupInsert(std::uint64_t ops)
{
    CacheModel cache(CacheParams{"l2", 512 * 1024, 8, 8});
    ZipfSampler zipf(32768, 0.8);
    Rng rng(1, 0x91);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        Addr line = 0x100000 + zipf.sample(rng);
        if (cache.lookup(line))
            sum += 1;
        else
            cache.fillMissed(line, (i & 7) == 0);
    }
    return sum;
}

/** Physical addresses of qmm_00's first @p n data references,
 * frames handed out on first touch as the page table would. */
std::vector<Addr>
qmmDataStream(std::size_t n)
{
    ServerWorkload wl(qmmWorkloadParams(0));
    std::unordered_map<Vpn, Pfn> frames;
    std::vector<Addr> paddrs;
    paddrs.reserve(n);
    while (paddrs.size() < n) {
        TraceRecord rec = wl.next();
        if (!rec.hasData)
            continue;
        Pfn pfn = frames.try_emplace(pageOf(rec.dataAddr), frames.size())
                      .first->second;
        paddrs.push_back((pfn << pageShift) + pageOffset(rec.dataAddr));
    }
    return paddrs;
}

/** The Table 1 hierarchy (L2 prefetcher on) under a data-reference
 * stream: the accessThrough() traversal and its fills. */
std::uint64_t
memAccess(const std::vector<Addr> &paddrs)
{
    MemoryHierarchy mem{MemoryHierarchyParams{}};
    std::uint64_t sum = 0;
    for (Addr paddr : paddrs)
        sum += mem.access(paddr, AccessType::Data).latency;
    return sum;
}

/** STLB-geometry SetAssocTable (128 sets x 12 ways) probe/fill mix. */
double
assocFindInsert(std::uint64_t ops)
{
    SetAssocTable<Vpn, std::uint64_t> table(1536, 12);
    ZipfSampler zipf(6144, 0.8);
    Rng rng(2, 0x92);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        Vpn vpn = 0x10000 + zipf.sample(rng);
        if (std::uint64_t *v = table.find(vpn))
            sum += *v;
        else
            table.insert(vpn, i);
    }
    return sum;
}

/** RLFU frequency stack: the recordMiss/frequency mix PRT victim
 * selection generates, with the default phase-reset interval. */
double
freqStackMix(std::uint64_t ops)
{
    FrequencyStack freq(8192);
    ZipfSampler zipf(2048, 0.9);
    Rng rng(3, 0x93);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        Vpn vpn = 0x5000 + zipf.sample(rng);
        if ((i & 3) == 0)
            freq.recordMiss(vpn);
        else
            sum += freq.frequency(vpn);
    }
    return sum;
}

/** Guided inverse-CDF Zipf draw at the hot-page population size. */
double
zipfSample(std::uint64_t ops)
{
    ZipfSampler zipf(320, 0.98);
    Rng rng(4, 0x94);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i)
        sum += zipf.sample(rng);
    return sum;
}

/** Flat-map translate() over a mapped 4K range plus a 2MB region,
 * with a miss share -- the mix the prefetch-fill paths issue. */
double
pageTranslate(std::uint64_t ops)
{
    PhysMem phys{1 << 20, 1};
    PageTable pt{phys};
    pt.mapRange(0x10000, 4096);
    for (Vpn v = 0; v < 8; ++v)
        pt.mapLargePage(0x8000000 + v * pagesPerLargePage);
    Rng rng(5, 0x95);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        Vpn vpn;
        switch (rng.below(4)) {
          case 0:
            vpn = 0x8000000 + rng.below(8 * pagesPerLargePage);
            break;
          case 1:
            vpn = 0x20000 + rng.below(4096);  // unmapped
            break;
          default:
            vpn = 0x10000 + rng.below(4096);
        }
        sum += pt.translate(vpn).mapped ? 1 : 0;
    }
    return sum;
}

/** Batched trace generation, records per second. */
double
workloadNextBlock(std::uint64_t ops)
{
    ServerWorkload wl(qmmWorkloadParams(0));
    TraceRecord block[8];
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; i += 8) {
        wl.nextBlock(block, 8);
        sum += block[0].pc;
    }
    return sum;
}

/** Prediction-table (PRT) hits over a fully installed 128-entry
 * table. */
double
prtLookup(std::uint64_t ops)
{
    FrequencyStack freq(0);
    Rng rng(1);
    PredictionTable t({"t", 128, 32, 2}, ReplacementPolicy::Rlfu,
                      freq, rng);
    for (Vpn v = 0; v < 128; ++v)
        t.install(0x1000 + v, {});
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i)
        sum += t.lookup(0x1000 + (i & 127)) != nullptr;
    return sum;
}

/** PRT installs of ever-new pages: every one past the first 128
 * evicts an RLFU victim. */
double
prtInstallRlfu(std::uint64_t ops)
{
    FrequencyStack freq(8192);
    Rng rng(1);
    PredictionTable t({"t", 128, 32, 2}, ReplacementPolicy::Rlfu,
                      freq, rng);
    std::uint64_t sum = 0;
    for (std::uint64_t v = 0; v < ops; ++v) {
        freq.recordMiss(v);
        sum += t.install(v, {});
    }
    return sum;
}

/** Morrigan's iSTLB-miss handling (train + predict) over a
 * 512-page miss stream. */
double
morriganMiss(std::uint64_t ops)
{
    MorriganPrefetcher m{MorriganParams{}};
    std::vector<PrefetchRequest> out;
    Rng rng(2);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        out.clear();
        m.onInstrStlbMiss(0x4000 + rng.below(512), 0, 0, out);
        sum += out.size();
    }
    return sum;
}

/** Prefetch-buffer insert followed by a lookup of an entry
 * inserted eight operations earlier. */
double
pbInsertLookup(std::uint64_t ops)
{
    PrefetchBuffer pb(64, 2);
    std::uint64_t sum = 0;
    for (Vpn v = 0; v < ops; ++v) {
        PbEntry e;
        e.pfn = v;
        pb.insert(v & 255, e);
        sum += pb.lookupAndConsume((v - 8) & 255, v).hit;
    }
    return sum;
}

/** Demand page walks over a 4096-page mapped range through the
 * data-side memory hierarchy. */
double
pageWalk(std::uint64_t ops)
{
    PhysMem phys(1 << 20, 1);
    PageTable pt(phys);
    MemoryHierarchyParams mp;
    mp.l2Prefetcher = false;
    MemoryHierarchy mem(mp);
    WalkerParams wp;
    PageTableWalker walker(wp, pt, mem);
    pt.mapRange(0x1000, 4096);
    Rng rng(3);
    Cycle now = 0;
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        Vpn vpn = 0x1000 + rng.below(4096);
        sum += walker.walk(vpn, WalkKind::DemandData, now).memRefs;
        now += 200;
    }
    return sum;
}

} // namespace

int
main()
{
    BenchScale scale = benchScale(1);
    header("Hotpath",
           "hot-path structure microbenchmarks (M operations/s)",
           scale);

    row("cache-lookup-insert", mops(20'000'000, cacheLookupInsert),
        "Mop/s", "L2-geometry tag scan, Zipf line stream");
    const std::vector<Addr> dataStream = qmmDataStream(2'000'000);
    row("mem-access",
        mops(dataStream.size(),
             [&](std::uint64_t) { return memAccess(dataStream); }),
        "Mop/s", "Table 1 hierarchy access, qmm_00 data stream");
    row("assoc-find-insert", mops(20'000'000, assocFindInsert),
        "Mop/s", "STLB-geometry SoA probe/fill mix");
    row("freq-stack", mops(20'000'000, freqStackMix), "Mop/s",
        "RLFU flat-hash record/frequency mix");
    row("zipf-sample", mops(20'000'000, zipfSample), "Mop/s",
        "guided inverse-CDF draw, 320 hot pages");
    row("page-translate", mops(20'000'000, pageTranslate), "Mop/s",
        "radix-tree 4K/2M translate with miss share");
    row("workload-nextblock", mops(20'000'000, workloadNextBlock),
        "Mop/s", "batched server-workload generation");
    row("prt-lookup", mops(20'000'000, prtLookup), "Mop/s",
        "128-entry prediction-table hit");
    row("prt-install-rlfu", mops(1'000'000, prtInstallRlfu), "Mop/s",
        "prediction-table install with RLFU victim");
    row("morrigan-miss", mops(500'000, morriganMiss), "Mop/s",
        "Morrigan iSTLB-miss train + predict");
    row("pb-insert-lookup", mops(2'000'000, pbInsertLookup), "Mop/s",
        "64-entry PB insert + lookup-and-consume");
    row("page-walk", mops(4'000'000, pageWalk), "Mop/s",
        "demand page walk through the memory hierarchy");
    return 0;
}
