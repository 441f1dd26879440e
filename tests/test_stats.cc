/**
 * @file
 * Unit tests for the statistics helpers and for the component counter
 * records as the simulator reports them (--stats, --stats-json) and
 * resets them at the warmup boundary.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "common/distribution.hh"
#include "common/json.hh"
#include "common/json_reader.hh"
#include "common/stats.hh"
#include "core/morrigan.hh"
#include "sim/simulator.hh"
#include "workload/workload_factory.hh"

using namespace morrigan;

namespace
{

/** A traced Morrigan run on qmm_00 of @p measured instructions. */
struct TracedRun
{
    explicit TracedRun(std::uint64_t measured = 200'000)
        : sim([measured] {
              SimConfig cfg;
              cfg.warmupInstructions = 50'000;
              cfg.simInstructions = measured;
              return cfg;
          }())
    {
        sim.attachWorkload(&trace, 0);
        sim.attachPrefetcher(&morrigan);
        sim.enableTracer();
        result = sim.run();
    }

    ServerWorkload trace{qmmWorkloadParams(0)};
    MorriganPrefetcher morrigan{MorriganParams{}};
    Simulator sim;
    SimResult result;
};

/** --stats as dotted name -> printed value. */
std::map<std::string, std::string>
statLines(const Simulator &sim)
{
    std::ostringstream os;
    sim.writeStats(os);
    std::istringstream in(os.str());
    std::map<std::string, std::string> lines;
    std::string name, value;
    while (in >> name >> value)
        EXPECT_TRUE(lines.emplace(name, value).second) << name;
    return lines;
}

/** The leaves of a JSON object as dotted name -> number token. */
void
flatten(const json::Value &v, const std::string &prefix,
        std::map<std::string, std::string> &out)
{
    if (v.type == json::Value::Type::Array) {
        for (std::size_t i = 0; i < v.array.size(); ++i)
            flatten(v.array[i], prefix + "." + std::to_string(i), out);
        return;
    }
    if (v.type != json::Value::Type::Object) {
        out[prefix] = v.token;
        return;
    }
    for (const auto &[key, child] : v.object)
        flatten(child, prefix.empty() ? key : prefix + "." + key, out);
}

} // namespace

TEST(Stats, DistributionMoments)
{
    Distribution d;
    EXPECT_EQ(d.count, 0u);
    d.sample(2.0);
    d.sample(4.0);
    d.sample(9.0);
    EXPECT_EQ(d.count, 3u);
    EXPECT_EQ(d.sum, 15.0);
    EXPECT_EQ(d.min, 2.0);
    EXPECT_EQ(d.max, 9.0);
}

TEST(Stats, DistributionFirstSampleSetsMinAndMax)
{
    Distribution d;
    // Before any sample both extremes report 0.
    EXPECT_EQ(d.min, 0.0);
    EXPECT_EQ(d.max, 0.0);
    // The first sample must become both min and max even when it is
    // larger than 0 (min) or negative (max) -- i.e. the extremes must
    // be seeded from the sample, not compared against stale zeros.
    d.sample(7.0);
    EXPECT_EQ(d.min, 7.0);
    EXPECT_EQ(d.max, 7.0);

    Distribution neg;
    neg.sample(-3.0);
    EXPECT_EQ(neg.min, -3.0);
    EXPECT_EQ(neg.max, -3.0);

    // The warmup reset (rec = {}) re-arms the first-sample seeding.
    d = {};
    d.sample(-1.0);
    EXPECT_EQ(d.min, -1.0);
    EXPECT_EQ(d.max, -1.0);
}

TEST(Stats, DistributionMergeMatchesSampling)
{
    const double samples[] = {5.0, -2.0, 11.0, 3.0};
    Distribution all, left, right, empty;
    for (int i = 0; i < 4; ++i) {
        all.sample(samples[i]);
        (i < 2 ? left : right).sample(samples[i]);
    }
    Distribution merged = empty;
    merged += left;   // into an empty one: take the extremes
    merged += empty;  // from an empty one: keep them
    merged += right;
    EXPECT_EQ(merged.count, all.count);
    EXPECT_EQ(merged.sum, all.sum);
    EXPECT_EQ(merged.min, all.min);
    EXPECT_EQ(merged.max, all.max);
}

TEST(Stats, GroupHierarchyPaths)
{
    // Each record's fields appear under its component's dotted path,
    // nested records (distributions) one level further down.
    TracedRun run;
    Simulator &sim = run.sim;
    auto lines = statLines(sim);
    auto num = [&](const std::string &name) {
        EXPECT_TRUE(lines.count(name)) << name;
        return lines[name];
    };
    EXPECT_EQ(num("sim.mem.l1i.accesses"),
              std::to_string(sim.mem().l1i().stats().accesses));
    EXPECT_EQ(num("sim.mem.l1d.misses"),
              std::to_string(sim.mem().l1d().stats().misses));
    EXPECT_EQ(num("sim.mem.dram.row_hits"),
              std::to_string(sim.mem().dram().stats().rowHits));
    EXPECT_EQ(num("sim.psc.pd_hits"),
              std::to_string(sim.walker().psc().stats().pdHits));
    EXPECT_EQ(num("sim.tlb.itlb.instr_misses"),
              std::to_string(sim.tlbs().itlb().stats().instrMisses));
    EXPECT_EQ(num("sim.tlb.dtlb.data_misses"),
              std::to_string(sim.tlbs().dtlb().stats().dataMisses));
    EXPECT_EQ(num("sim.walker.demand_instr.latency.count"),
              std::to_string(
                  sim.walker().stats().demandInstr.latency.count));
    EXPECT_EQ(num("sim.walker.prefetch.refs_by_level.1"),
              std::to_string(
                  sim.walker().stats().prefetch.refsByLevel[1]));
    EXPECT_EQ(num("sim.prefetch_trace.sdp.issued"),
              std::to_string(sim.tracer()
                                 ->outcomes(PrefetchTracer::kSdp)
                                 .issued));
    EXPECT_TRUE(lines.count("sim.prefetch_trace.irip_t0.walk_latency.max"));
    for (const auto &[name, value] : lines)
        EXPECT_EQ(name.rfind("sim.", 0), 0u) << name;
}

TEST(Stats, DumpContainsEntries)
{
    TracedRun run;
    std::ostringstream os;
    run.sim.writeStats(os);
    EXPECT_NE(os.str().find("\nsim.pb.hits " +
                            std::to_string(run.result.pbHits) + "\n"),
              std::string::npos)
        << os.str();
}

TEST(Stats, WarmupResetZeroesEveryCounterRecord)
{
    // A run that stops at the warmup boundary reports what the reset
    // left: every counter zero, the page table's occupancy intact.
    TracedRun run(0);
    for (const auto &[name, value] : statLines(run.sim)) {
        if (name.rfind("sim.page_table.", 0) == 0)
            EXPECT_NE(value, "0") << name;
        else
            EXPECT_EQ(value, "0") << name;
    }
}

TEST(StatsJson, SerializesNestedTree)
{
    TracedRun run;
    std::ostringstream os;
    json::Writer w(os);
    run.sim.writeStatsJson(w);
    const std::string text = os.str();
    json::Value doc;
    ASSERT_TRUE(json::Reader(text).parse(doc)) << text;

    const json::Value *walker = doc.find("sim.walker");
    ASSERT_NE(walker, nullptr);
    const json::Value *instr = walker->find("demand_instr");
    ASSERT_NE(instr, nullptr);
    const json::Value *lat = instr->find("latency");
    ASSERT_NE(lat, nullptr);
    const Distribution &d = run.sim.walker().stats().demandInstr.latency;
    std::uint64_t count = 0;
    double sum = 0, min = 0, max = 0;
    ASSERT_TRUE(json::getU64(*lat, "count", count));
    ASSERT_TRUE(json::getDouble(*lat, "sum", sum));
    ASSERT_TRUE(json::getDouble(*lat, "min", min));
    ASSERT_TRUE(json::getDouble(*lat, "max", max));
    EXPECT_EQ(count, d.count);
    EXPECT_EQ(count, run.result.demandWalksInstr);  // one sample a walk
    EXPECT_EQ(sum, d.sum);
    EXPECT_EQ(min, d.min);
    EXPECT_EQ(max, d.max);
}

TEST(StatsJson, VisitorSeesEveryStat)
{
    // The document and --stats come from the same list: the same
    // names, and the same values once both are read as numbers.
    TracedRun run;
    std::ostringstream os;
    json::Writer w(os);
    run.sim.writeStatsJson(w);
    const std::string text = os.str();
    json::Value doc;
    ASSERT_TRUE(json::Reader(text).parse(doc)) << text;
    std::map<std::string, std::string> fromJson;
    flatten(doc, "", fromJson);

    auto lines = statLines(run.sim);
    ASSERT_EQ(fromJson.size(), lines.size());
    for (const auto &[name, value] : lines) {
        ASSERT_TRUE(fromJson.count(name)) << name;
        EXPECT_EQ(std::stod(fromJson[name]), std::stod(value)) << name;
    }
}

TEST(Stats, GeomeanKnownValues)
{
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.1}), 1.1, 1e-12);
}

TEST(Stats, GeomeanOrderInvariant)
{
    double a = geomean({1.5, 0.5, 2.0, 3.0});
    double b = geomean({3.0, 2.0, 0.5, 1.5});
    EXPECT_NEAR(a, b, 1e-12);
}
