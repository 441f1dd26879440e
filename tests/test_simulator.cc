/** @file Integration tests: the full system end to end. */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/invariants.hh"
#include "common/snapshot.hh"
#include "core/morrigan.hh"
#include "core/prefetcher_registry.hh"
#include "sim/experiment.hh"
#include "sim/result_cache.hh"
#include "workload/workload_factory.hh"

using namespace morrigan;

namespace
{

SimConfig
quickConfig()
{
    SimConfig cfg;
    cfg.warmupInstructions = 150'000;
    cfg.simInstructions = 500'000;
    return cfg;
}

ServerWorkloadParams
workload()
{
    return qmmWorkloadParams(0);
}

} // namespace

TEST(Simulator, BaselineProducesSaneNumbers)
{
    SimResult r = runWorkload(quickConfig(), "none",
                              workload());
    EXPECT_GE(r.instructions, 500'000u);
    EXPECT_LT(r.instructions, 500'020u);
    EXPECT_GT(r.ipc, 0.1);
    EXPECT_LT(r.ipc, 4.0);
    EXPECT_GT(r.istlbMpki, 0.1);
    EXPECT_GT(r.dstlbMpki, 0.5);
    EXPECT_GT(r.demandWalkRefsInstr, 0u);
    EXPECT_EQ(r.pbHits, 0u);       // no prefetcher
    EXPECT_EQ(r.prefetchWalks, 0u);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    SimResult a = runWorkload(quickConfig(), "morrigan",
                              workload());
    SimResult b = runWorkload(quickConfig(), "morrigan",
                              workload());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.istlbMisses, b.istlbMisses);
    EXPECT_EQ(a.pbHits, b.pbHits);
}

TEST(Simulator, MorriganCoversMissesAndSpeedsUp)
{
    SimResult base = runWorkload(quickConfig(), "none",
                                 workload());
    SimResult morr = runWorkload(quickConfig(),
                                 "morrigan", workload());
    EXPECT_GT(morr.coverage, 0.15);
    EXPECT_GT(morr.pbHits, 0u);
    EXPECT_GT(speedupPct(base, morr), 0.0);
    EXPECT_LT(morr.demandWalkRefsInstr, base.demandWalkRefsInstr);
    EXPECT_GT(morr.prefetchWalkRefs, 0u);
}

TEST(Simulator, PerfectIstlbIsUpperBound)
{
    SimConfig cfg = quickConfig();
    SimResult base = runWorkload(cfg, "none", workload());
    cfg.perfectIstlb = true;
    SimResult perfect = runWorkload(cfg, "none",
                                    workload());
    EXPECT_EQ(perfect.istlbMisses, 0u);
    SimConfig mcfg = quickConfig();
    SimResult morr = runWorkload(mcfg, "morrigan",
                                 workload());
    EXPECT_GE(speedupPct(base, perfect) + 0.2,
              speedupPct(base, morr));
}

TEST(Simulator, P2TlbPollutesStlb)
{
    SimConfig cfg = quickConfig();
    SimResult pb_mode = runWorkload(cfg, "morrigan",
                                    workload());
    cfg.prefetchIntoStlb = true;
    SimResult p2tlb = runWorkload(cfg, "morrigan",
                                  workload());
    // Prefetching directly into the STLB must not outperform the PB
    // design (Figure 18 shows a large degradation).
    EXPECT_LT(p2tlb.ipc, pb_mode.ipc * 1.01);
    EXPECT_EQ(p2tlb.pbHits, 0u);
}

TEST(Simulator, AsapAcceleratesWalks)
{
    SimConfig cfg = quickConfig();
    SimResult base = runWorkload(cfg, "none", workload());
    cfg.walker.asap = true;
    SimResult asap = runWorkload(cfg, "none", workload());
    EXPECT_LT(asap.meanDemandWalkLatencyInstr,
              base.meanDemandWalkLatencyInstr);
    EXPECT_GE(speedupPct(base, asap), 0.0);
}

TEST(Simulator, FnlMmaIssuesCrossPagePrefetches)
{
    SimConfig cfg = quickConfig();
    cfg.icachePref = ICachePrefKind::FnlMma;
    SimResult r = runWorkload(cfg, "none", workload());
    EXPECT_GT(r.icachePrefetches, 0u);
    EXPECT_GT(r.icacheCrossPagePrefetches, 0u);
    EXPECT_GT(r.prefetchWalks, 0u);  // translation cost modelled
}

TEST(Simulator, FnlMmaTranslationCostModes)
{
    SimConfig cfg = quickConfig();
    cfg.icachePref = ICachePrefKind::FnlMma;
    cfg.icacheTranslationCost = false;
    SimResult free_xlat = runWorkload(cfg, "none",
                                      workload());
    // The IPC-1 idealisation performs no prefetch page walks and
    // fills no PB entries.
    EXPECT_EQ(free_xlat.prefetchWalks, 0u);
    EXPECT_EQ(free_xlat.pbHits, 0u);

    cfg.icacheTranslationCost = true;
    SimResult paid_xlat = runWorkload(cfg, "none",
                                      workload());
    // With translation modelled, beyond-page prefetches consume
    // walker bandwidth and stage PTEs in the PB (Section 3.5).
    EXPECT_GT(paid_xlat.prefetchWalks, 0u);
    EXPECT_GT(paid_xlat.pbHits, 0u);
    // The PB covers only a minority of the demand misses
    // (the paper measures ~29.6%).
    EXPECT_LT(paid_xlat.coverage, 0.6);
}

TEST(Simulator, MorriganSynergyWithFnlMma)
{
    SimConfig cfg = quickConfig();
    cfg.icachePref = ICachePrefKind::FnlMma;
    SimResult alone = runWorkload(cfg, "none",
                                  workload());
    SimResult combo = runWorkload(cfg, "morrigan",
                                  workload());
    // Some beyond-page-boundary prefetches find their translation in
    // Morrigan's PB (Section 6.5's 51.7% effect).
    EXPECT_GT(combo.icacheCrossPagePbHits, 0u);
    EXPECT_GT(combo.ipc, alone.ipc);
}

TEST(Simulator, PbHitsSplitByProducerAddUp)
{
    // Every PB hit is credited to exactly one producer: IRIP, SDP or
    // the I-cache prefetcher's beyond-page translations.
    SimConfig cfg = quickConfig();
    cfg.icachePref = ICachePrefKind::FnlMma;
    SimResult r = runWorkload(cfg, "morrigan", workload());
    EXPECT_GT(r.pbHitsIrip, 0u);
    EXPECT_GT(r.pbHitsSdp, 0u);
    EXPECT_EQ(r.pbHitsIrip + r.pbHitsSdp + r.pbHitsICache, r.pbHits);
}

TEST(Simulator, SmtRunsTwoWorkloads)
{
    SimConfig cfg = quickConfig();
    ServerWorkloadParams a = qmmWorkloadParams(0);
    ServerWorkloadParams b = qmmWorkloadParams(1);
    SimResult r = runSmtPair(cfg, nullptr, a, b);
    EXPECT_EQ(r.workload, "qmm_00+qmm_01");
    EXPECT_GT(r.ipc, 0.05);
    EXPECT_GT(r.istlbMisses, 0u);
}

TEST(Simulator, SmtColocationIncreasesPressure)
{
    SimConfig cfg = quickConfig();
    SimResult solo = runWorkload(cfg, "none",
                                 qmmWorkloadParams(0));
    SimResult pair = runSmtPair(cfg, nullptr, qmmWorkloadParams(0),
                                qmmWorkloadParams(1));
    EXPECT_GT(pair.istlbMpki + pair.dstlbMpki,
              solo.istlbMpki + solo.dstlbMpki);
}

TEST(Simulator, WalkRefAccountingConsistent)
{
    SimConfig cfg = quickConfig();
    SimResult r = runWorkload(cfg, "morrigan",
                              workload());
    std::uint64_t by_level = 0;
    for (auto v : r.prefetchWalkRefsByLevel)
        by_level += v;
    EXPECT_EQ(by_level, r.prefetchWalkRefs);
}

TEST(Simulator, StallFractionsAreFractions)
{
    SimResult r = runWorkload(quickConfig(), "none",
                              workload());
    EXPECT_GE(r.istlbCycleFraction, 0.0);
    EXPECT_LE(r.istlbCycleFraction, 1.0);
    EXPECT_LE(r.istlbCycleFraction + r.icacheCycleFraction +
              r.dataCycleFraction, 1.0);
}

TEST(Simulator, ConfigCheckLevelArmsTheCycleLedgerCheck)
{
    // This binary never sets MORRIGAN_CHECK_LEVEL, so only
    // SimConfig::checkLevel can arm the end-of-run ledger check.
    ASSERT_EQ(check::invariantCheckLevel(), 0);
    SimConfig cfg;
    cfg.warmupInstructions = 20'000;
    cfg.simInstructions = 100'000;
    check::resetInvariantCounters();
    runWorkload(cfg, "morrigan", workload());
    EXPECT_EQ(check::invariantChecks(), 0u);
    cfg.checkLevel = 1;
    runWorkload(cfg, "morrigan", workload());
    EXPECT_GT(check::invariantChecks(), 0u);
    EXPECT_EQ(check::invariantViolations(), 0u);
    check::resetInvariantCounters();
}

TEST(Simulator, SpecWorkloadsAreNotIstlbIntensive)
{
    SimResult spec = runWorkload(quickConfig(), "none",
                                 specWorkloadParams(0));
    EXPECT_LT(spec.istlbMpki, 0.5);  // below the paper's threshold
}

TEST(Simulator, MissStreamCollection)
{
    SimConfig cfg = quickConfig();
    cfg.collectMissStream = true;
    ServerWorkloadParams wl = workload();
    ServerWorkload trace(wl);
    Simulator sim(cfg);
    sim.attachWorkload(&trace, 0);
    SimResult r = sim.run();
    EXPECT_EQ(sim.missStream().size(), r.istlbMisses);
}

TEST(Simulator, PageTableOccupancySurvivesWarmup)
{
    // mapped_pages and table_frames describe the table, so the warmup
    // reset leaves them alone: after a checked run the table holds
    // what the reference model mapped, and every frame the table took
    // that backs no mapped page is a table frame.
    for (PageTableFormat format :
         {PageTableFormat::Radix, PageTableFormat::Hashed}) {
        SimConfig cfg = quickConfig();
        cfg.checkLevel = 1;
        cfg.pageTableFormat = format;
        ServerWorkload trace(workload());
        Simulator sim(cfg);
        sim.attachWorkload(&trace, 0);
        SimResult r = sim.run();
        const PageTable::Stats &pt = sim.pageTable().stats();
        EXPECT_EQ(pt.mappedPages, r.checkMappedPages);
        EXPECT_EQ(pt.tableFrames,
                  sim.physMem().framesAllocated() - pt.mappedPages);
    }
}

TEST(Simulator, ResultsArePinned)
{
    // The full result record of Morrigan on qmm_00, as its JSON text
    // (doubles at %.17g, so bit-exact), pinned by CRC in each mode
    // that counts a miss or a walk along its own path. A refactor of
    // the counting must leave every field, and so every CRC, alone.
    struct Mode
    {
        const char *name;
        std::uint32_t crc;
        void (*set)(SimConfig &);
        bool smt = false;
    };
    const Mode modes[] = {
        {"1T", 0xebc85330u, [](SimConfig &) {}},
        {"SMT", 0x62c0bec0u, [](SimConfig &) {}, true},
        {"P2TLB", 0xb8563833u, [](SimConfig &c) { c.prefetchIntoStlb = true; }},
        {"ctx-switch", 0x32360c34u,
         [](SimConfig &c) { c.contextSwitchInterval = 200'000; }},
        {"perfect-istlb", 0x58f25951u,
         [](SimConfig &c) { c.perfectIstlb = true; }},
        {"correcting-walks", 0x58eaab6eu,
         [](SimConfig &c) { c.correctingWalks = true; }},
        {"fnl-mma", 0xec9568b3u,
         [](SimConfig &c) { c.icachePref = ICachePrefKind::FnlMma; }},
    };
    for (const Mode &m : modes) {
        SCOPED_TRACE(m.name);
        SimConfig cfg = quickConfig();
        m.set(cfg);
        ServerWorkload a(qmmWorkloadParams(0));
        ServerWorkload b(qmmWorkloadParams(1));
        MorriganPrefetcher morrigan{MorriganParams{}};
        Simulator sim(cfg);
        sim.attachWorkload(&a, 0);
        if (m.smt)
            sim.attachWorkload(&b, 1);
        sim.attachPrefetcher(&morrigan);
        SimResult r = sim.run();
        EXPECT_GT(r.demandWalks, 0u);
        if (cfg.perfectIstlb) {
            EXPECT_EQ(r.istlbMisses, 0u);
        } else {
            EXPECT_GT(r.prefetchWalks, 0u);
        }
        if (cfg.correctingWalks) {
            EXPECT_GT(r.correctingWalks, 0u);
        }
        if (cfg.icachePref == ICachePrefKind::FnlMma) {
            EXPECT_GT(r.pbHitsICache, 0u);
        }
        std::ostringstream os;
        writeSimResultJson(os, r);
        const std::string text = os.str();
        EXPECT_EQ(crc32(text.data(), text.size()), m.crc)
            << std::hex << "0x" << crc32(text.data(), text.size())
            << "\n" << text;
    }
}

// ---------------------------------------------------------------
// The trace feed: generation runs on a producer thread per workload.
// ---------------------------------------------------------------

namespace
{

/** A ServerWorkload that counts the records it produced and logs the
 * count each time it is saved. */
class CountingSource : public TraceSource
{
  public:
    explicit CountingSource(const ServerWorkloadParams &p) : inner_(p)
    {
    }

    TraceRecord
    next() override
    {
        ++produced_;
        return inner_.next();
    }

    void
    nextBlock(TraceRecord *out, unsigned n) override
    {
        inner_.nextBlock(out, n);
        produced_ += n;
    }

    const std::string &name() const override { return inner_.name(); }

    std::vector<std::pair<Vpn, std::uint64_t>>
    mappedRegions() const override
    {
        return inner_.mappedRegions();
    }

    void
    save(SnapshotWriter &w) const override
    {
        savedAt_.push_back(produced_);
        inner_.save(w);
    }

    std::uint64_t produced() const { return produced_; }
    const std::vector<std::uint64_t> &savedAt() const { return savedAt_; }
    const ServerWorkload &inner() const { return inner_; }

  private:
    ServerWorkload inner_;
    std::uint64_t produced_ = 0;
    mutable std::vector<std::uint64_t> savedAt_;
};

/**
 * Records per thread after which a serial run saves, and (in
 * @p total) how many it generates in all: Simulator::run()'s
 * round-robin loop restated one 8-record round at a time.
 */
std::vector<std::uint64_t>
serialSavePoints(const SimConfig &cfg, unsigned threads,
                 std::uint64_t every, bool warmup_image,
                 std::uint64_t *total)
{
    std::vector<std::uint64_t> points;
    std::uint64_t records = 0;
    std::uint64_t next_save = every;
    auto phase = [&](std::uint64_t length, std::uint64_t base) {
        for (std::uint64_t done = 0; done < length;) {
            done += 8 * threads;
            records += 8;
            if (base + done >= next_save) {
                points.push_back(records);
                while (next_save <= base + done)
                    next_save += every;
            }
        }
    };
    phase(cfg.warmupInstructions, 0);
    if (warmup_image)
        points.push_back(records);
    phase(cfg.simInstructions, cfg.warmupInstructions);
    *total = records;
    return points;
}

std::string
serialized(const TraceSource &source)
{
    SnapshotWriter w;
    source.save(w);
    return w.payload();
}

/** Run with autosave (and a warmup image) and check every save saw
 * each source exactly where serial generation would have left it. */
void
expectExactSavePoints(unsigned threads, bool warmup_image)
{
    SimConfig cfg;
    cfg.warmupInstructions = 30'004;
    cfg.simInstructions = 90'000;
    const std::uint64_t every = 10'001;  // not a multiple of 16

    std::vector<std::unique_ptr<CountingSource>> sources;
    Simulator sim(cfg);
    for (unsigned tid = 0; tid < threads; ++tid) {
        sources.push_back(
            std::make_unique<CountingSource>(qmmWorkloadParams(tid)));
        sim.attachWorkload(sources.back().get(), tid);
    }
    std::unique_ptr<TlbPrefetcher> pref = makePrefetcher("morrigan");
    sim.attachPrefetcher(pref.get());

    const std::string stem = testing::TempDir() + "feed-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(threads);
    sim.setCheckpointing(stem + ".ckpt", every);
    if (warmup_image)
        sim.setWarmupImagePath(stem + ".image");
    sim.run();
    ::unlink((stem + ".ckpt").c_str());
    ::unlink((stem + ".image").c_str());

    std::uint64_t total = 0;
    const std::vector<std::uint64_t> want =
        serialSavePoints(cfg, threads, every, warmup_image, &total);
    ASSERT_GT(want.size(), 10u);
    for (unsigned tid = 0; tid < threads; ++tid) {
        const CountingSource &src = *sources[tid];
        EXPECT_EQ(src.savedAt(), want) << "thread " << tid;
        // The producer never ran past the end of the run.
        EXPECT_EQ(src.produced(), total);
        ServerWorkload serial(qmmWorkloadParams(tid));
        for (std::uint64_t i = 0; i < total; ++i)
            serial.next();
        EXPECT_EQ(serialized(src.inner()), serialized(serial))
            << "thread " << tid;
    }
}

/** A ServerWorkload that throws instead of producing record @p k. */
class ThrowingSource : public TraceSource
{
  public:
    ThrowingSource(const ServerWorkloadParams &p, std::uint64_t k)
        : inner_(p), left_(k)
    {
    }

    TraceRecord
    next() override
    {
        if (left_-- == 0)
            throw std::runtime_error("source fault");
        return inner_.next();
    }

    const std::string &name() const override { return inner_.name(); }

    std::vector<std::pair<Vpn, std::uint64_t>>
    mappedRegions() const override
    {
        return inner_.mappedRegions();
    }

  private:
    ServerWorkload inner_;
    std::uint64_t left_;
};

/** Calls @p onMiss(miss number) on every iSTLB miss. */
template <typename OnMiss>
class CallbackPrefetcher : public TlbPrefetcher
{
  public:
    explicit CallbackPrefetcher(OnMiss on_miss) : onMiss_(on_miss) {}

    const char *name() const override { return "callback"; }

    void
    onInstrStlbMiss(Vpn, Addr, unsigned,
                    std::vector<PrefetchRequest> &) override
    {
        onMiss_(++misses_);
    }

  private:
    OnMiss onMiss_;
    std::uint64_t misses_ = 0;
};

std::size_t
liveThreads()
{
    return static_cast<std::size_t>(std::distance(
        std::filesystem::directory_iterator("/proc/self/task"),
        std::filesystem::directory_iterator()));
}

double
processCpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

} // namespace

TEST(TraceFeed, ExactAtEverySavePoint)
{
    expectExactSavePoints(1, true);
}

TEST(TraceFeed, ExactAtEverySavePointSmt)
{
    expectExactSavePoints(2, true);
}

TEST(TraceFeed, ExactAcrossWarmupBoundaryWithoutImage)
{
    expectExactSavePoints(1, false);
}

TEST(TraceFeed, SourceExceptionRethrowsOnCaller)
{
    const std::size_t threads_before = liveThreads();
    ThrowingSource src(workload(), 100'003);
    Simulator sim(quickConfig());
    sim.attachWorkload(&src, 0);
    try {
        sim.run();
        FAIL() << "run() returned";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "source fault");
    }
    EXPECT_EQ(liveThreads(), threads_before);
}

TEST(TraceFeed, ConsumerExceptionJoinsProducer)
{
    const std::size_t threads_before = liveThreads();
    auto fail = [](std::uint64_t miss) {
        if (miss == 200)
            throw std::runtime_error("prefetcher fault");
    };
    CallbackPrefetcher<decltype(fail)> pref(fail);
    ServerWorkload a(qmmWorkloadParams(0)), b(qmmWorkloadParams(1));
    Simulator sim(quickConfig());
    sim.attachWorkload(&a, 0);
    sim.attachWorkload(&b, 1);
    sim.attachPrefetcher(&pref);
    EXPECT_THROW(sim.run(), std::runtime_error);
    EXPECT_EQ(liveThreads(), threads_before);
}

TEST(TraceFeed, BlockedProducerSleeps)
{
    // While the simulation stalls, the producer fills the ring and
    // then has nothing to do: it must sleep, not spin.
    double stall_cpu = -1.0;
    auto stall = [&stall_cpu](std::uint64_t miss) {
        if (miss != 100)
            return;
        const double before = processCpuSeconds();
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        stall_cpu = processCpuSeconds() - before;
    };
    CallbackPrefetcher<decltype(stall)> pref(stall);
    ServerWorkload trace(workload());
    Simulator sim(quickConfig());
    sim.attachWorkload(&trace, 0);
    sim.attachPrefetcher(&pref);
    sim.run();
    ASSERT_GE(stall_cpu, 0.0);
    EXPECT_LT(stall_cpu, 0.050);
}
