/**
 * @file
 * ResultCache tests: key construction, hit/miss accounting, the
 * "baselines simulated at most once per process" guarantee through
 * the Supervisor, and SimResult JSON round-trips. Cross-process
 * reuse goes through the campaign journal and is tested in
 * test_supervisor.cc and test_snapshot.cc.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/morrigan.hh"
#include "sim/experiment.hh"
#include "sim/result_cache.hh"
#include "sim/supervisor.hh"
#include "workload/workload_factory.hh"

using namespace morrigan;

namespace
{

SimConfig
quickConfig()
{
    SimConfig cfg;
    cfg.warmupInstructions = 50'000;
    cfg.simInstructions = 150'000;
    return cfg;
}

/** A SimResult with every field set to a distinctive value. */
SimResult
sampleResult()
{
    SimResult r;
    r.workload = "qmm_07";
    r.prefetcher = "morrigan";
    r.instructions = 10'000'000;
    r.cycles = 12'345'678.25;
    r.ipc = 0.810000000000000053; // not representable exactly
    r.l1iMpki = 12.5;
    r.itlbMpki = 3.0 / 7.0;
    r.istlbMpki = 1.0 / 3.0;
    r.dstlbMpki = 2.25;
    r.istlbMisses = 4242;
    r.dstlbMisses = 9999;
    r.pbHits = 1200;
    r.pbHitsIrip = 700;
    r.pbHitsSdp = 400;
    r.pbHitsICache = 100;
    r.istlbCycleFraction = 0.0625;
    r.icacheCycleFraction = 0.125;
    r.dataCycleFraction = 0.5;
    r.coverage = 0.43;
    r.demandWalks = 11;
    r.demandWalksInstr = 7;
    r.demandWalkRefs = 44;
    r.demandWalkRefsInstr = 28;
    r.prefetchWalks = 5;
    r.prefetchWalkRefs = 20;
    r.prefetchWalkRefsByLevel = {1, 2, 3, 4};
    r.meanDemandWalkLatencyInstr = 137.5;
    r.meanDemandWalkLatencyData = 1.0 / 7.0;
    r.icachePrefetches = 3141;
    r.icacheCrossPagePrefetches = 59;
    r.icacheCrossPageNeedingWalk = 26;
    r.icacheCrossPagePbHits = 5;
    r.pbHitDistance = {8, 7, 6, 5, 4, 3, 2, 1};
    r.contextSwitches = 3;
    r.correctingWalks = 17;
    return r;
}

void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.prefetcher, b.prefetcher);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.l1iMpki, b.l1iMpki);
    EXPECT_EQ(a.itlbMpki, b.itlbMpki);
    EXPECT_EQ(a.istlbMpki, b.istlbMpki);
    EXPECT_EQ(a.dstlbMpki, b.dstlbMpki);
    EXPECT_EQ(a.istlbMisses, b.istlbMisses);
    EXPECT_EQ(a.dstlbMisses, b.dstlbMisses);
    EXPECT_EQ(a.pbHits, b.pbHits);
    EXPECT_EQ(a.pbHitsIrip, b.pbHitsIrip);
    EXPECT_EQ(a.pbHitsSdp, b.pbHitsSdp);
    EXPECT_EQ(a.pbHitsICache, b.pbHitsICache);
    EXPECT_EQ(a.istlbCycleFraction, b.istlbCycleFraction);
    EXPECT_EQ(a.icacheCycleFraction, b.icacheCycleFraction);
    EXPECT_EQ(a.dataCycleFraction, b.dataCycleFraction);
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_EQ(a.demandWalks, b.demandWalks);
    EXPECT_EQ(a.demandWalksInstr, b.demandWalksInstr);
    EXPECT_EQ(a.demandWalkRefs, b.demandWalkRefs);
    EXPECT_EQ(a.demandWalkRefsInstr, b.demandWalkRefsInstr);
    EXPECT_EQ(a.prefetchWalks, b.prefetchWalks);
    EXPECT_EQ(a.prefetchWalkRefs, b.prefetchWalkRefs);
    EXPECT_EQ(a.prefetchWalkRefsByLevel, b.prefetchWalkRefsByLevel);
    EXPECT_EQ(a.meanDemandWalkLatencyInstr,
              b.meanDemandWalkLatencyInstr);
    EXPECT_EQ(a.meanDemandWalkLatencyData,
              b.meanDemandWalkLatencyData);
    EXPECT_EQ(a.icachePrefetches, b.icachePrefetches);
    EXPECT_EQ(a.icacheCrossPagePrefetches,
              b.icacheCrossPagePrefetches);
    EXPECT_EQ(a.icacheCrossPageNeedingWalk,
              b.icacheCrossPageNeedingWalk);
    EXPECT_EQ(a.icacheCrossPagePbHits, b.icacheCrossPagePbHits);
    EXPECT_EQ(a.pbHitDistance, b.pbHitDistance);
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
    EXPECT_EQ(a.correctingWalks, b.correctingWalks);
}

} // namespace

TEST(ExperimentKey, DistinguishesEveryInput)
{
    const SimConfig cfg = quickConfig();
    const ServerWorkloadParams wl = qmmWorkloadParams(0);
    const std::string base =
        experimentKey(cfg, "none", wl);

    // Same inputs -> same key.
    EXPECT_EQ(base, experimentKey(cfg, "none", wl));

    // Different prefetcher kind.
    EXPECT_NE(base, experimentKey(cfg, "morrigan", wl));

    // Different workload (seed only differs).
    ServerWorkloadParams wl2 = wl;
    wl2.seed += 1;
    EXPECT_NE(base, experimentKey(cfg, "none", wl2));

    // Different config knobs, including nested params.
    SimConfig c2 = cfg;
    c2.simInstructions += 1;
    EXPECT_NE(base, experimentKey(c2, "none", wl));
    SimConfig c3 = cfg;
    c3.pbEntries *= 2;
    EXPECT_NE(base, experimentKey(c3, "none", wl));
    SimConfig c4 = cfg;
    c4.tlb.stlb.entries *= 2;
    EXPECT_NE(base, experimentKey(c4, "none", wl));
    SimConfig c5 = cfg;
    c5.mem.l2.latency += 1;
    EXPECT_NE(base, experimentKey(c5, "none", wl));

    // SMT partner presence and identity.
    const ServerWorkloadParams partner = qmmWorkloadParams(1);
    const std::string smt_key =
        experimentKey(cfg, "none", wl, &partner);
    EXPECT_NE(base, smt_key);
    ServerWorkloadParams partner2 = partner;
    partner2.seed += 1;
    EXPECT_NE(smt_key, experimentKey(cfg, "none", wl,
                                     &partner2));
}

TEST(ResultCacheJson, RoundTripsBitExactly)
{
    const SimResult r = sampleResult();
    std::ostringstream os;
    writeSimResultJson(os, r);

    SimResult parsed;
    ASSERT_TRUE(parseSimResultJson(os.str(), parsed));
    expectSameResult(r, parsed);
}

TEST(ResultCacheJson, RejectsMalformedInput)
{
    SimResult out;
    EXPECT_FALSE(parseSimResultJson("", out));
    EXPECT_FALSE(parseSimResultJson("not json at all", out));
    EXPECT_FALSE(parseSimResultJson("{\"workload\": \"x\"}", out));

    std::ostringstream os;
    writeSimResultJson(os, sampleResult());
    std::string truncated = os.str();
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(parseSimResultJson(truncated, out));
}

TEST(ResultCache, HitMissAccounting)
{
    ResultCache cache;

    const std::string key = "k1";
    SimResult out;
    EXPECT_FALSE(cache.lookup(key, out));
    cache.insert(key, sampleResult());
    ASSERT_TRUE(cache.lookup(key, out));
    expectSameResult(sampleResult(), out);
    EXPECT_FALSE(cache.lookup("k2", out));

    const ResultCache::Counts c = cache.counts();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 2u);
    EXPECT_EQ(c.inserts, 1u);
    EXPECT_EQ(cache.size(), 1u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.counts().hits, 0u);
}

namespace
{

/** A cached scheduler, as the figure benches use it. */
Supervisor
cachedSupervisor(unsigned jobs)
{
    SupervisorOptions opt;
    opt.jobs = jobs;
    opt.useCache = true;
    return Supervisor(opt);
}

std::vector<SimResult>
resultsOf(const std::vector<RunOutcome> &outcomes)
{
    std::vector<SimResult> results;
    for (const RunOutcome &o : outcomes) {
        EXPECT_TRUE(o.ok()) << o.failure.what;
        results.push_back(o.output.result);
    }
    return results;
}

} // namespace

TEST(ResultCache, BaselineSimulatedOncePerProcess)
{
    // The acceptance criterion: identical cacheable jobs are
    // simulated once per process per key, whether the repetition is
    // across batches or within one batch.
    ResultCache &cache = ResultCache::global();
    cache.clear();

    const SimConfig cfg = quickConfig();
    std::vector<ServerWorkloadParams> suite = {qmmWorkloadParams(0),
                                               qmmWorkloadParams(1)};

    Supervisor sup = cachedSupervisor(2);
    std::vector<ExperimentJob> batch;
    for (const ServerWorkloadParams &wl : suite)
        batch.push_back(
            ExperimentJob::of(cfg, "none", wl));

    std::vector<RunOutcome> first_out = sup.run(batch);
    std::vector<SimResult> first = resultsOf(first_out);
    ResultCache::Counts c = cache.counts();
    EXPECT_EQ(c.inserts, 2u);
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 2u);
    for (const RunOutcome &o : first_out) {
        EXPECT_FALSE(o.fromCache);
        EXPECT_EQ(o.attempts, 1u);
    }

    // Second figure asking for the same baseline: all hits, nothing
    // new simulated.
    std::vector<RunOutcome> second_out = sup.run(batch);
    std::vector<SimResult> second = resultsOf(second_out);
    c = cache.counts();
    EXPECT_EQ(c.inserts, 2u);
    EXPECT_EQ(c.hits, 2u);
    EXPECT_EQ(c.misses, 2u);
    for (std::size_t i = 0; i < first.size(); ++i) {
        expectSameResult(first[i], second[i]);
        EXPECT_TRUE(second_out[i].fromCache);
        EXPECT_EQ(second_out[i].attempts, 0u);
        EXPECT_EQ(second_out[i].durationMs, 0u);
    }

    // In-batch duplicates also collapse to one simulation, and only
    // the representative reports an execution: the copies say
    // attempts == 0 (not simulated for this job) and took no time.
    cache.clear();
    std::vector<ExperimentJob> dup = {batch[0], batch[0], batch[0]};
    std::vector<RunOutcome> dup_out = sup.run(dup);
    std::vector<SimResult> results = resultsOf(dup_out);
    c = cache.counts();
    EXPECT_EQ(c.inserts, 1u);
    expectSameResult(results[0], results[1]);
    expectSameResult(results[0], results[2]);
    EXPECT_EQ(dup_out[0].attempts, 1u);
    for (std::size_t i = 1; i < dup_out.size(); ++i) {
        EXPECT_EQ(dup_out[i].attempts, 0u);
        EXPECT_EQ(dup_out[i].durationMs, 0u);
        EXPECT_FALSE(dup_out[i].fromCache);
    }

    cache.clear();
}

TEST(ResultCache, FactoryJobsBypassTheCache)
{
    ResultCache &cache = ResultCache::global();
    cache.clear();

    ExperimentJob job = ExperimentJob::with(
        quickConfig(),
        [] {
            return std::make_unique<MorriganPrefetcher>(
                MorriganParams{});
        },
        qmmWorkloadParams(0));
    EXPECT_FALSE(job.cacheable());

    Supervisor sup = cachedSupervisor(1);
    for (int pass = 0; pass < 2; ++pass) {
        std::vector<RunOutcome> out = sup.run({job});
        ASSERT_EQ(out.size(), 1u);
        EXPECT_TRUE(out[0].ok());
        EXPECT_FALSE(out[0].fromCache);
        EXPECT_EQ(out[0].attempts, 1u);
    }
    const ResultCache::Counts c = cache.counts();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 0u);
    EXPECT_EQ(c.inserts, 0u);
    cache.clear();
}
