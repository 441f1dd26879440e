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
#include <type_traits>

#include "core/morrigan.hh"
#include "sim/experiment.hh"
#include "sim/result_cache.hh"
#include "sim/supervisor.hh"
#include "workload/workload_factory.hh"

#include "sim_result_fields.hh"

using namespace morrigan;
using morrigan::test::expectSameResult;
using morrigan::test::sampleResult;

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

/** A SimResult from JSON text, as the journal reader decodes one. */
bool
parseSimResultJson(const std::string &text, SimResult &out)
{
    json::Value doc;
    return json::Reader(text).parse(doc) && simResultFromJson(doc, out);
}

/**
 * A visitFields() visitor that changes the @p target-th keyed leaf
 * field of a record (nested records are walked, Unrecorded labels
 * skipped) and reports its dotted name and tag. `name` stays empty
 * when the record has no such field.
 */
struct PerturbOneField
{
    explicit PerturbOneField(std::size_t t) : target(t) {}

    std::size_t target;
    std::size_t seen = 0;
    std::string prefix;
    std::string name;
    FieldTag tag = FieldTag::Plain;

    template <class T>
    void
    operator()(const char *n, T &v, FieldTag t = FieldTag::Plain)
    {
        if (t == FieldTag::Unrecorded)
            return;
        if constexpr (Record<T>) {
            const std::size_t outer = prefix.size();
            prefix += n;
            prefix += '.';
            visitFields(v, *this);
            prefix.resize(outer);
        } else if (seen++ == target) {
            name = prefix + n;
            tag = t;
            if constexpr (std::is_same_v<T, bool>)
                v = !v;
            else if constexpr (std::is_enum_v<T>)
                v = static_cast<T>(static_cast<unsigned>(v) + 1);
            else if constexpr (std::is_same_v<T, std::string>)
                v += "x";
            else
                v += 1;
        }
    }
};

} // namespace

TEST(ExperimentKey, DistinguishesEveryInput)
{
    const SimConfig cfg = quickConfig();
    const ServerWorkloadParams wl = qmmWorkloadParams(0);
    const ServerWorkloadParams partner = qmmWorkloadParams(1);
    const std::string base = experimentKey(cfg, "none", wl);
    const std::string warm = warmupKey(cfg, "none", wl);
    const std::string smt_key = experimentKey(cfg, "none", wl, &partner);

    // Same inputs -> same key.
    EXPECT_EQ(base, experimentKey(cfg, "none", wl));
    // Different prefetcher kind; SMT partner presence.
    EXPECT_NE(base, experimentKey(cfg, "morrigan", wl));
    EXPECT_NE(base, smt_key);

    // Every keyed SimConfig field, nested params included, is in the
    // experiment key, and in the warmup key unless it only sets what
    // is measured.
    std::size_t config_fields = 0;
    for (;; ++config_fields) {
        SimConfig c = cfg;
        PerturbOneField p{config_fields};
        visitFields(c, p);
        if (p.name.empty())
            break;
        SCOPED_TRACE(p.name);
        EXPECT_NE(base, experimentKey(c, "none", wl));
        if (p.tag == FieldTag::MeasureOnly)
            EXPECT_EQ(warm, warmupKey(c, "none", wl));
        else
            EXPECT_NE(warm, warmupKey(c, "none", wl));
    }
    EXPECT_EQ(config_fields, 46u);

    // Every workload field, of the workload and of the SMT partner.
    std::size_t workload_fields = 0;
    for (;; ++workload_fields) {
        ServerWorkloadParams w = wl;
        ServerWorkloadParams w2 = partner;
        PerturbOneField p{workload_fields};
        PerturbOneField p2{workload_fields};
        visitFields(w, p);
        visitFields(w2, p2);
        if (p.name.empty())
            break;
        SCOPED_TRACE(p.name);
        EXPECT_NE(base, experimentKey(cfg, "none", w));
        EXPECT_NE(warm, warmupKey(cfg, "none", w));
        EXPECT_NE(smt_key, experimentKey(cfg, "none", wl, &w2));
    }
    EXPECT_EQ(workload_fields, 25u);
}

/**
 * The key strings name every journal record and snapshot file, so
 * their bytes are a compatibility contract: existing journals and
 * snapshots were written under these digests, and a change to any of
 * them makes all of those miss. A deliberate key change bumps
 * json::resultCacheSchemaVersion and re-records them.
 */
TEST(ExperimentKey, DigestsArePinned)
{
    const ServerWorkloadParams qmm0 = qmmWorkloadParams(0);
    const ServerWorkloadParams qmm1 = qmmWorkloadParams(1);
    SimConfig fig18; // Figure 18: 1920-entry 15-way STLB
    fig18.tlb.stlb.entries = 1920;
    fig18.tlb.stlb.ways = 15;
    struct Case
    {
        const char *what;
        SimConfig cfg;
        const ServerWorkloadParams *smt;
        std::uint64_t experiment, warmup, config;
    };
    const Case cases[] = {
        {"default", SimConfig{}, nullptr, 0x0177dfa3b7755feaULL,
         0xa1e681be89b62855ULL, 0x99803efe06db6253ULL},
        {"fig18", fig18, nullptr, 0x88e1b9bf102213f3ULL,
         0x4d43ebb0c4007152ULL, 0x3e5bf801b543932aULL},
        {"smt", SimConfig{}, &qmm1, 0xe1a0fd15067e0c93ULL,
         0x6772648476b3b2daULL, 0x99803efe06db6253ULL},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        EXPECT_EQ(cacheKeyDigest(
                      experimentKey(c.cfg, "morrigan", qmm0, c.smt)),
                  c.experiment);
        EXPECT_EQ(cacheKeyDigest(
                      warmupKey(c.cfg, "morrigan", qmm0, c.smt)),
                  c.warmup);
        EXPECT_EQ(cacheKeyDigest(warmupConfigKey(c.cfg)), c.config);
    }
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
    const ExperimentOutput stored{sampleResult(), {7, 3, 7}};
    ExperimentOutput out;
    EXPECT_FALSE(cache.lookup(key, out));
    cache.insert(key, stored);
    ASSERT_TRUE(cache.lookup(key, out));
    expectSameResult(stored.result, out.result);
    EXPECT_EQ(out.missStream, stored.missStream);
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
