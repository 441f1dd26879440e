/**
 * @file
 * Self-profiling telemetry tests (common/telemetry.hh, DESIGN §13).
 *
 * Covers the attribution math (self = total minus child time, exact
 * by construction), counter aggregation across threads including
 * retired ones, Chrome trace-event export well-formedness (parsed
 * back with the in-tree JSON reader), the disabled-path
 * zero-allocation contract, and the headline determinism guarantee:
 * a simulation is bit-identical with telemetry on or off (the
 * fuzzer's M6 invariant, exercised here directly on one job).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/json_reader.hh"
#include "common/telemetry.hh"
#include "sim/result_cache.hh"
#include "sim/job.hh"
#include "workload/workload_factory.hh"

using namespace morrigan;
namespace tel = morrigan::telemetry;

namespace
{

// Global-new instrumentation for the zero-allocation contract. The
// replacement must never allocate itself and stays cheap enough for
// the rest of the suite to run through it unnoticed.
std::atomic<std::uint64_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc{};
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "morrigan-telemtest-" +
           std::to_string(::getpid()) + "-" + name;
}

/** Disarm + zero telemetry around every test so suites are order
 * independent (the flag and slots are process-wide). */
class TelemetryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        tel::setEnabled(false);
        tel::reset();
    }

    void
    TearDown() override
    {
        tel::setEnabled(false);
        tel::reset();
    }
};

using TelemetrySpans = TelemetryTest;
using TelemetryCounters = TelemetryTest;
using TelemetryTrace = TelemetryTest;
using TelemetryOverhead = TelemetryTest;
using TelemetryDeterminism = TelemetryTest;

void
spinNs(std::uint64_t ns)
{
    const std::uint64_t until = tel::nowNs() + ns;
    while (tel::nowNs() < until) {
    }
}

} // namespace

TEST_F(TelemetrySpans, NestedSelfTotalAttribution)
{
    tel::setEnabled(true);
    {
        tel::ScopedSpan outer(tel::Phase::WorkerRun);
        spinNs(200'000);
        {
            tel::ScopedSpan inner(tel::Phase::SnapshotWrite);
            spinNs(200'000);
        }
        spinNs(200'000);
    }
    tel::Report r = tel::snapshot();
    const tel::PhaseStat &outer = r.phase(tel::Phase::WorkerRun);
    const tel::PhaseStat &inner = r.phase(tel::Phase::SnapshotWrite);

    EXPECT_EQ(outer.count, 1u);
    EXPECT_EQ(inner.count, 1u);
    EXPECT_GT(inner.totalNs, 0u);
    // The child is not double-billed: the parent's self time is its
    // total minus exactly the child's measured total (same clock
    // reads on both sides of the subtraction).
    EXPECT_EQ(outer.selfNs + inner.totalNs, outer.totalNs);
    // A leaf span's self time is its total.
    EXPECT_EQ(inner.selfNs, inner.totalNs);
    EXPECT_GT(outer.selfNs, 0u);
}

TEST_F(TelemetrySpans, SiblingsAccumulateIntoOnePhase)
{
    tel::setEnabled(true);
    {
        tel::ScopedSpan outer(tel::Phase::WorkerRun);
        for (int i = 0; i < 3; ++i) {
            tel::ScopedSpan child(tel::Phase::CacheLookup);
            spinNs(50'000);
        }
    }
    tel::Report r = tel::snapshot();
    EXPECT_EQ(r.phase(tel::Phase::CacheLookup).count, 3u);
    EXPECT_EQ(r.phase(tel::Phase::WorkerRun).selfNs +
                  r.phase(tel::Phase::CacheLookup).totalNs,
              r.phase(tel::Phase::WorkerRun).totalNs);
}

TEST_F(TelemetrySpans, DisabledSpansRecordNothing)
{
    {
        tel::ScopedSpan s(tel::Phase::WorkerRun);
        spinNs(50'000);
    }
    tel::add(tel::Counter::Fsyncs, 5);
    tel::Report r = tel::snapshot();
    EXPECT_EQ(r.phase(tel::Phase::WorkerRun).count, 0u);
    EXPECT_EQ(r.counter(tel::Counter::Fsyncs), 0u);
}

TEST_F(TelemetrySpans, ResetZeroesEverything)
{
    tel::setEnabled(true);
    {
        tel::ScopedSpan s(tel::Phase::WorkerRun);
    }
    tel::add(tel::Counter::Fsyncs, 3);
    ASSERT_GT(tel::snapshot().phase(tel::Phase::WorkerRun).count, 0u);
    tel::reset();
    tel::Report r = tel::snapshot();
    EXPECT_EQ(r.phase(tel::Phase::WorkerRun).count, 0u);
    EXPECT_EQ(r.phase(tel::Phase::WorkerRun).totalNs, 0u);
    EXPECT_EQ(r.counter(tel::Counter::Fsyncs), 0u);
}

TEST_F(TelemetryCounters, AggregatesAcrossThreadsIncludingRetired)
{
    tel::setEnabled(true);
    constexpr int threads = 8;
    constexpr std::uint64_t perThread = 1000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([] {
            for (std::uint64_t i = 0; i < perThread; ++i)
                tel::add(tel::Counter::ResultCacheHits);
            tel::add(tel::Counter::SnapshotBytesWritten, 512);
            tel::ScopedSpan s(tel::Phase::WorkerRun);
        });
    }
    for (auto &th : pool)
        th.join();
    // Every worker has exited: the totals must have survived the
    // thread_local destructors via the retired pool.
    tel::Report r = tel::snapshot();
    EXPECT_EQ(r.counter(tel::Counter::ResultCacheHits),
              threads * perThread);
    EXPECT_EQ(r.counter(tel::Counter::SnapshotBytesWritten),
              threads * 512u);
    EXPECT_EQ(r.phase(tel::Phase::WorkerRun).count,
              static_cast<std::uint64_t>(threads));
}

TEST_F(TelemetryCounters, TraceFeedWaitsCountedOnlyWhenEnabled)
{
    SimConfig cfg;
    cfg.warmupInstructions = 20'000;
    cfg.simInstructions = 60'000;
    const ExperimentJob job =
        ExperimentJob::of(cfg, "morrigan", qmmWorkloadParams(0));
    const auto waits = [] {
        const tel::Report r = tel::snapshot();
        return r.counter(tel::Counter::TraceFeedConsumerWaits) +
               r.counter(tel::Counter::TraceFeedProducerWaits);
    };

    executeJob(job);
    EXPECT_EQ(waits(), 0u) << "disabled telemetry counted waits";

    // One side of the ring always waits for the other at some point.
    tel::setEnabled(true);
    executeJob(job);
    tel::setEnabled(false);
    EXPECT_GT(waits(), 0u);

    std::ostringstream os;
    json::Writer w(os);
    tel::writeReportJson(w, tel::snapshot());
    EXPECT_NE(os.str().find("\"trace_feed_consumer_waits\""),
              std::string::npos);
    EXPECT_NE(os.str().find("\"trace_feed_producer_waits\""),
              std::string::npos);
}

TEST_F(TelemetryTrace, ChromeTraceIsWellFormed)
{
    const std::string path = tempPath("trace.json");
    tel::setTracing(true);
    EXPECT_TRUE(tel::enabled()) << "tracing must imply collection";
    {
        tel::ScopedSpan outer(tel::Phase::WorkerRun);
        spinNs(50'000);
        tel::ScopedSpan inner(tel::Phase::SnapshotWrite);
        spinNs(50'000);
    }
    std::string err;
    ASSERT_TRUE(tel::writeChromeTrace(path, &err)) << err;

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    json::Value doc;
    json::Reader reader(text);
    ASSERT_TRUE(reader.parse(doc)) << "unparseable trace: " << text;
    ASSERT_EQ(doc.type, json::Value::Type::Object);
    const json::Value *unit = doc.find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->token, "ms");
    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->type, json::Value::Type::Array);
    ASSERT_GE(events->array.size(), 2u);
    bool sawWorker = false, sawSnapshot = false;
    for (const json::Value &e : events->array) {
        ASSERT_EQ(e.type, json::Value::Type::Object);
        const json::Value *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        EXPECT_EQ(ph->token, "X") << "complete events only";
        EXPECT_NE(e.find("name"), nullptr);
        EXPECT_NE(e.find("ts"), nullptr);
        EXPECT_NE(e.find("dur"), nullptr);
        EXPECT_NE(e.find("tid"), nullptr);
        const json::Value *name = e.find("name");
        sawWorker |= name->token == tel::phaseName(tel::Phase::WorkerRun);
        sawSnapshot |=
            name->token == tel::phaseName(tel::Phase::SnapshotWrite);
    }
    EXPECT_TRUE(sawWorker);
    EXPECT_TRUE(sawSnapshot);
    tel::setTracing(false);
    ::unlink(path.c_str());
}

TEST_F(TelemetryTrace, WriteFailureReportsError)
{
    tel::setTracing(true);
    {
        tel::ScopedSpan s(tel::Phase::WorkerRun);
    }
    std::string err;
    EXPECT_FALSE(tel::writeChromeTrace(
        "/nonexistent-dir/morrigan-trace.json", &err));
    EXPECT_FALSE(err.empty());
    tel::setTracing(false);
}

TEST_F(TelemetryOverhead, DisabledPathAllocatesNothing)
{
    ASSERT_FALSE(tel::enabled());
    // Warm any lazy state the loop below could otherwise hit.
    {
        tel::ScopedSpan s(tel::Phase::WorkerRun);
        tel::add(tel::Counter::Fsyncs);
    }
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 100'000; ++i) {
        tel::ScopedSpan s(tel::Phase::DemandWalk);
        tel::add(tel::Counter::ResultCacheHits);
    }
    const std::uint64_t after =
        g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before)
        << "disabled telemetry must not allocate";
}

TEST_F(TelemetryDeterminism, SimResultBitIdenticalOnAndOff)
{
    SimConfig cfg;
    cfg.warmupInstructions = 20'000;
    cfg.simInstructions = 60'000;
    const ExperimentJob job =
        ExperimentJob::of(cfg, "morrigan",
                          qmmWorkloadParams(0));

    tel::setEnabled(false);
    const ExperimentOutput off = executeJob(job);
    tel::setEnabled(true);
    const ExperimentOutput on = executeJob(job);
    tel::setEnabled(false);

    std::ostringstream a, b;
    writeSimResultJson(a, off.result);
    writeSimResultJson(b, on.result);
    EXPECT_EQ(a.str(), b.str())
        << "telemetry perturbed the simulation (M6)";
    // And collection actually happened on the enabled run.
    EXPECT_GT(tel::snapshot().phase(tel::Phase::SimRun).count, 0u);
}
