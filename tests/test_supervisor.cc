/**
 * @file
 * Campaign supervisor regression tests: the determinism guarantee
 * (results bit-identical to direct serial execution for any worker
 * count, threaded or sandboxed), submission order, factory / SMT /
 * miss-stream jobs (the stream through either executor, the journal
 * and the cache), worker-count resolution, fault containment
 * (thread and sandbox modes), watchdog timeouts, deterministic retry
 * scheduling, retries that recover in either mode, journal
 * checkpoint/resume (bit-identical, tolerant of torn writes), the
 * sandbox result pipe, the progress line, failure manifests and
 * degraded-mode batch results.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json_reader.hh"
#include "core/morrigan.hh"
#include "core/tlb_prefetcher.hh"
#include "sim/config_flags.hh"
#include "sim/experiment.hh"
#include "sim/result_cache.hh"
#include "sim/supervisor.hh"
#include "workload/workload_factory.hh"

#include "sim_result_fields.hh"

using namespace morrigan;
using morrigan::test::expectSameResult;

namespace
{

SimConfig
quickConfig()
{
    SimConfig cfg;
    cfg.warmupInstructions = 20'000;
    cfg.simInstructions = 60'000;
    return cfg;
}

/** Long enough for every prefetcher to engage: the scheduler
 * determinism cases compare against serial runs of this size. */
SimConfig
serialConfig()
{
    SimConfig cfg;
    cfg.warmupInstructions = 100'000;
    cfg.simInstructions = 300'000;
    return cfg;
}

/** Scheduler options that force every job to execute exactly once:
 * no result cache, no retries. */
SupervisorOptions
executeAll(unsigned jobs, bool isolate = false)
{
    SupervisorOptions opt;
    opt.jobs = jobs;
    opt.isolate = isolate;
    opt.useCache = false;
    opt.maxAttempts = 1;
    return opt;
}

/** Results of a batch that must succeed in full. */
std::vector<SimResult>
runAllOk(const SupervisorOptions &opt,
         const std::vector<ExperimentJob> &batch)
{
    std::vector<SimResult> results;
    for (RunOutcome &o : Supervisor(opt).run(batch)) {
        EXPECT_TRUE(o.ok()) << o.failure.what;
        results.push_back(std::move(o.output.result));
    }
    return results;
}

/** Throws from inside the simulation loop (thread-mode fault). */
class ThrowingPrefetcher : public TlbPrefetcher
{
  public:
    const char *name() const override { return "throwing"; }
    void
    onInstrStlbMiss(Vpn, Addr, unsigned,
                    std::vector<PrefetchRequest> &) override
    {
        throw std::runtime_error("synthetic prefetcher fault");
    }
};

/** Dies by SIGSEGV inside the simulation loop (sandbox fault). */
class CrashingPrefetcher : public TlbPrefetcher
{
  public:
    const char *name() const override { return "crashing"; }
    void
    onInstrStlbMiss(Vpn, Addr, unsigned,
                    std::vector<PrefetchRequest> &) override
    {
        std::raise(SIGSEGV);
    }
};

/** Never returns from the simulation loop (watchdog fodder). */
class HangingPrefetcher : public TlbPrefetcher
{
  public:
    const char *name() const override { return "hanging"; }
    void
    onInstrStlbMiss(Vpn, Addr, unsigned,
                    std::vector<PrefetchRequest> &) override
    {
        for (;;)
            std::this_thread::sleep_for(std::chrono::seconds(1));
    }
};

/** Set to let every GatedHangingPrefetcher go on. */
std::atomic<bool> hangReleased{false};
/** Kernel thread id of the last GatedHangingPrefetcher's creator. */
std::atomic<pid_t> hangTid{0};

/**
 * Hangs in the simulation loop like HangingPrefetcher, but only until
 * hangReleased is set, so an abandoned thread-mode worker can be let
 * finish. It is created on the worker thread and records that
 * thread's id in hangTid.
 */
class GatedHangingPrefetcher : public TlbPrefetcher
{
  public:
    GatedHangingPrefetcher() { hangTid.store(::gettid()); }

    const char *name() const override { return "gated-hanging"; }

    void
    onInstrStlbMiss(Vpn, Addr, unsigned,
                    std::vector<PrefetchRequest> &) override
    {
        while (!hangReleased.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
};

/** Whether kernel thread @p tid of this process is gone within
 * @p timeout. */
bool
threadExits(pid_t tid, std::chrono::seconds timeout)
{
    const std::string task = "/proc/self/task/" + std::to_string(tid);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (::access(task.c_str(), F_OK) == 0) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return true;
}

/**
 * Fails its first iSTLB miss once per marker: when @p marker does not
 * exist yet it creates it, then throws (or, with @p crash, dies by
 * SIGSEGV). The marker is a file so the state survives fork(): the
 * retried attempt, in a new child or thread, finds it and runs clean.
 */
class FlakyPrefetcher : public TlbPrefetcher
{
  public:
    FlakyPrefetcher(std::string marker, bool crash)
        : marker_(std::move(marker)), crash_(crash)
    {
    }

    const char *name() const override { return "flaky"; }

    void
    onInstrStlbMiss(Vpn, Addr, unsigned,
                    std::vector<PrefetchRequest> &) override
    {
        if (checked_)
            return;
        checked_ = true;
        if (std::ifstream(marker_).good())
            return;
        std::ofstream(marker_) << "failed once\n";
        if (crash_)
            std::raise(SIGSEGV);
        throw std::runtime_error("flaky prefetcher's first miss");
    }

  private:
    std::string marker_;
    bool crash_;
    bool checked_ = false;
};

ExperimentJob
goodJob(const SimConfig &cfg, unsigned workload_index)
{
    return ExperimentJob::of(cfg, "none",
                             qmmWorkloadParams(workload_index));
}

template <typename Prefetcher>
ExperimentJob
faultyJob(const SimConfig &cfg, const char *tag)
{
    ExperimentJob job = ExperimentJob::with(
        cfg, [] { return std::make_unique<Prefetcher>(); },
        qmmWorkloadParams(0));
    job.journalTag = tag;
    return job;
}

std::string
tempPath(const char *stem)
{
    return testing::TempDir() + stem;
}

} // namespace

TEST(Supervisor, DeterministicAcrossWorkerCounts)
{
    // A small workload x prefetcher matrix; every result must be
    // bit-identical to the direct serial runWorkload() path in thread
    // mode with one worker and with four, and in sandbox mode with
    // two (results cross the child's pipe as text).
    const SimConfig cfg = serialConfig();
    const std::string kinds[] = {"none", "morrigan"};
    std::vector<ExperimentJob> jobs;
    std::vector<SimResult> serial;
    for (unsigned i : {0u, 7u, 19u}) {
        for (const std::string &kind : kinds) {
            jobs.push_back(
                ExperimentJob::of(cfg, kind, qmmWorkloadParams(i)));
            serial.push_back(
                runWorkload(cfg, kind, qmmWorkloadParams(i)));
        }
    }

    for (const SupervisorOptions &opt :
         {executeAll(1), executeAll(4), executeAll(2, true)}) {
        SCOPED_TRACE(testing::Message()
                     << (opt.isolate ? "isolated" : "threaded")
                     << " jobs=" << opt.jobs);
        std::vector<SimResult> results = runAllOk(opt, jobs);
        ASSERT_EQ(results.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            SCOPED_TRACE(serial[i].workload + "/" +
                         serial[i].prefetcher);
            expectSameResult(serial[i], results[i]);
        }
    }
}

TEST(Supervisor, PreservesSubmissionOrder)
{
    SimConfig cfg = serialConfig();
    cfg.simInstructions = 150'000;
    std::vector<ExperimentJob> jobs;
    for (unsigned i : {4u, 1u, 9u, 2u})
        jobs.push_back(goodJob(cfg, i));
    std::vector<SimResult> results = runAllOk(executeAll(4), jobs);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].workload, "qmm_04");
    EXPECT_EQ(results[1].workload, "qmm_01");
    EXPECT_EQ(results[2].workload, "qmm_09");
    EXPECT_EQ(results[3].workload, "qmm_02");
}

TEST(Supervisor, FactoryJobsMatchSerialRunWith)
{
    const SimConfig cfg = serialConfig();
    const ServerWorkloadParams wl = qmmWorkloadParams(3);

    MorriganPrefetcher serial_pref{MorriganParams{}};
    SimResult serial = runWorkloadWith(cfg, &serial_pref, wl);

    std::vector<SimResult> results = runAllOk(
        executeAll(2),
        {ExperimentJob::with(cfg,
                             [] {
                                 return std::make_unique<
                                     MorriganPrefetcher>(
                                     MorriganParams{});
                             },
                             wl)});
    ASSERT_EQ(results.size(), 1u);
    expectSameResult(serial, results[0]);
}

TEST(Supervisor, SmtJobsMatchSerialRunSmtPair)
{
    const SimConfig cfg = serialConfig();
    const ServerWorkloadParams a = qmmWorkloadParams(0);
    const ServerWorkloadParams b = qmmWorkloadParams(5);
    SimResult serial = runSmtPair(cfg, nullptr, a, b);

    std::vector<SimResult> results = runAllOk(
        executeAll(2), {ExperimentJob::smtPair(cfg, "none", a, b)});
    ASSERT_EQ(results.size(), 1u);
    expectSameResult(serial, results[0]);
}

TEST(Supervisor, MissStreamBatchMatchesSerial)
{
    SimConfig cfg = serialConfig();
    cfg.collectMissStream = true;
    const ExperimentJob job =
        ExperimentJob::of(cfg, "none", qmmWorkloadParams(2));

    ServerWorkload trace(job.workload);
    Simulator sim(cfg);
    sim.attachWorkload(&trace, 0);
    const SimResult serial = sim.run();
    const std::vector<Vpn> &want = sim.missStream();
    ASSERT_EQ(want.size(), serial.istlbMisses);
    ASSERT_GT(want.size(), 0u);

    auto expectSameStream = [&](const RunOutcome &o) {
        ASSERT_TRUE(o.ok()) << o.failure.what;
        expectSameResult(serial, o.output.result);
        EXPECT_EQ(o.output.missStream, want);
    };

    // A worker thread, and a forked child under the watchdog, whose
    // stream crosses the result pipe.
    for (const SupervisorOptions &opt :
         {executeAll(2), executeAll(2, true)}) {
        SCOPED_TRACE(opt.isolate ? "isolated" : "threaded");
        std::vector<RunOutcome> outcomes = Supervisor(opt).run({job});
        ASSERT_EQ(outcomes.size(), 1u);
        EXPECT_EQ(outcomes[0].attempts, 1u);
        expectSameStream(outcomes[0]);
    }

    // A journal replay in a later campaign.
    const std::string journal =
        tempPath("morrigan-test-journal-miss-stream.jsonl");
    std::remove(journal.c_str());
    SupervisorOptions journaled = executeAll(1);
    journaled.journalPath = journal;
    expectSameStream(Supervisor(journaled).run({job})[0]);
    const RunOutcome replayed = Supervisor(journaled).run({job})[0];
    EXPECT_TRUE(replayed.fromJournal);
    expectSameStream(replayed);
    std::remove(journal.c_str());

    // An in-process cache hit.
    ResultCache::global().clear();
    SupervisorOptions cached = executeAll(1);
    cached.useCache = true;
    expectSameStream(Supervisor(cached).run({job})[0]);
    const RunOutcome hit = Supervisor(cached).run({job})[0];
    EXPECT_TRUE(hit.fromCache);
    expectSameStream(hit);
    ResultCache::global().clear();
}

TEST(Supervisor, JournalRejectsMalformedMissStream)
{
    // A record whose miss_stream is not an array of unsigned
    // integers is unparseable: the loader skips it and the job runs
    // again.
    const SimConfig cfg = quickConfig();
    const std::string journal =
        tempPath("morrigan-test-journal-bad-stream.jsonl");
    SupervisorOptions opt = executeAll(1);
    opt.journalPath = journal;
    for (const char *bad : {"\"miss_stream\":\"12\"",
                            "\"miss_stream\":[12,-3]",
                            "\"miss_stream\":[1.5]",
                            "\"miss_stream\":[18446744073709551616]",
                            "\"miss_stream\":[null]",
                            "\"miss_streams\":[]"}) {
        SCOPED_TRACE(bad);
        std::remove(journal.c_str());
        ASSERT_TRUE(Supervisor(opt).run({goodJob(cfg, 11)})[0].ok());
        std::string line;
        {
            std::ifstream f(journal);
            ASSERT_TRUE(std::getline(f, line));
        }
        const std::string good = "\"miss_stream\":[]";
        const std::size_t at = line.find(good);
        ASSERT_NE(at, std::string::npos) << line;
        line.replace(at, good.size(), bad);
        std::ofstream(journal) << line << '\n';

        testing::internal::CaptureStderr();
        const RunOutcome o = Supervisor(opt).run({goodJob(cfg, 11)})[0];
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_TRUE(o.ok()) << o.failure.what;
        EXPECT_FALSE(o.fromJournal);
        EXPECT_EQ(o.attempts, 1u);
        EXPECT_NE(err.find("1 unparseable line"), std::string::npos)
            << err;
    }
    std::remove(journal.c_str());
}

TEST(SupervisorJobs, EnvOverridesHardware)
{
    setenv("MORRIGAN_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    EXPECT_EQ(Supervisor(SupervisorOptions{}).jobs(), 3u);
    unsetenv("MORRIGAN_JOBS");
}

TEST(SupervisorJobs, OptionsJobsBeatEnv)
{
    setenv("MORRIGAN_JOBS", "3", 1);
    SupervisorOptions opt;
    opt.jobs = 7;
    EXPECT_EQ(Supervisor(opt).jobs(), 7u);
    opt.jobs = 2;
    EXPECT_EQ(Supervisor(opt).jobs(), 2u);
    unsetenv("MORRIGAN_JOBS");
}

TEST(SupervisorJobsDeathTest, JunkIsFatal)
{
    EXPECT_EXIT(parseJobsValue("--jobs", "abc"),
                ::testing::ExitedWithCode(1),
                "not a positive integer");
    EXPECT_EXIT(parseJobsValue("--jobs", ""),
                ::testing::ExitedWithCode(1),
                "not a positive integer");
    EXPECT_EXIT(parseJobsValue("--jobs", "-4"),
                ::testing::ExitedWithCode(1),
                "not a positive integer");
    EXPECT_EXIT(parseJobsValue("--jobs", "4x"),
                ::testing::ExitedWithCode(1), "trailing junk");
    EXPECT_EXIT(parseJobsValue("MORRIGAN_JOBS", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(parseJobsValue("MORRIGAN_JOBS", "4096"),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(SupervisorOptions, ApplyFlagSetsEachCampaignOption)
{
    SupervisorOptions o;
    const char *value = nullptr;
    unsigned reads = 0;
    auto apply = [&](const char *flag, const char *v) {
        value = v;
        return o.applyFlag(flag, [&] {
            ++reads;
            return value;
        });
    };
    EXPECT_TRUE(apply("--jobs", "3"));
    EXPECT_TRUE(apply("--isolate", nullptr));
    EXPECT_TRUE(apply("--job-timeout", "30"));
    EXPECT_TRUE(apply("--retries", "4"));
    EXPECT_TRUE(apply("--journal", "j.jsonl"));
    EXPECT_TRUE(apply("--snapshot-dir", "snaps"));
    EXPECT_TRUE(apply("--checkpoint-every", "0"));
    EXPECT_TRUE(apply("--progress", "250"));
    EXPECT_EQ(reads, 7u);  // every flag but the --isolate switch
    EXPECT_EQ(o.jobs, 3u);
    EXPECT_TRUE(o.isolate);
    EXPECT_EQ(o.jobTimeoutMs, 30'000u);
    EXPECT_EQ(o.maxAttempts, 5u);
    EXPECT_EQ(o.journalPath, "j.jsonl");
    EXPECT_EQ(o.snapshotDir, "snaps");
    EXPECT_EQ(o.checkpointEveryInstructions, 0u);
    EXPECT_EQ(o.progressEveryMs, 250u);

    // Any other flag is left to the caller, its value unread.
    for (const char *other : {"--workload", "--no-m5", "--no-m6"})
        EXPECT_FALSE(apply(other, "x")) << other;
    EXPECT_EQ(reads, 7u);
}

TEST(SupervisorOptionsDeathTest, ApplyFlagRejectsBadValues)
{
    struct Case
    {
        const char *flag, *value, *message;
    };
    for (const Case &c : {
             Case{"--jobs", "abc", "--jobs: 'abc' is not a positive "
                                   "integer"},
             Case{"--jobs", "4x", "--jobs: trailing junk in '4x'"},
             Case{"--jobs", "0", "--jobs: 0 out of range \\[1, 1024\\]"},
             Case{"--jobs", "4096",
                  "--jobs: 4096 out of range \\[1, 1024\\]"},
             Case{"--job-timeout", "abc",
                  "--job-timeout: 'abc' is not a non-negative integer"},
             Case{"--job-timeout", "30s",
                  "--job-timeout: trailing junk in '30s'"},
             Case{"--job-timeout", "0",
                  "--job-timeout: 0 out of range \\[1, 86400\\]"},
             Case{"--job-timeout", "86401",
                  "--job-timeout: 86401 out of range \\[1, 86400\\]"},
         }) {
        SupervisorOptions o;
        EXPECT_EXIT(o.applyFlag(c.flag, [&] { return c.value; }),
                    ::testing::ExitedWithCode(1), c.message)
            << c.flag << " " << c.value;
    }
}

TEST(SupervisorJobsDeathTest, JunkEnvIsFatalAtResolution)
{
    setenv("MORRIGAN_JOBS", "lots", 1);
    EXPECT_EXIT(defaultJobs(), ::testing::ExitedWithCode(1),
                "MORRIGAN_JOBS");
    unsetenv("MORRIGAN_JOBS");
}

TEST(Supervisor, ThreadModeContainsExceptions)
{
    const SimConfig cfg = quickConfig();
    SupervisorOptions opt;
    opt.maxAttempts = 1;
    opt.useCache = false;
    Supervisor sup(opt);

    std::vector<ExperimentJob> jobs = {
        goodJob(cfg, 1),
        faultyJob<ThrowingPrefetcher>(cfg, "test:throwing"),
        goodJob(cfg, 2),
    };
    std::vector<RunOutcome> out = sup.run(jobs);
    ASSERT_EQ(out.size(), 3u);

    EXPECT_TRUE(out[0].ok());
    EXPECT_TRUE(out[2].ok());
    expectSameResult(out[0].output.result,
                     runWorkload(cfg, "none",
                                 qmmWorkloadParams(1)));

    EXPECT_EQ(out[1].status, RunStatus::Failed);
    EXPECT_EQ(out[1].attempts, 1u);
    EXPECT_NE(out[1].failure.what.find("synthetic prefetcher fault"),
              std::string::npos);
    EXPECT_NE(out[1].failure.repro.find("test:throwing"),
              std::string::npos);
}

TEST(Supervisor, ThreadModeRetriesThenFails)
{
    SupervisorOptions opt;
    opt.maxAttempts = 3;
    opt.useCache = false;
    Supervisor sup(opt);

    std::vector<RunOutcome> out = sup.run(
        {faultyJob<ThrowingPrefetcher>(quickConfig(), "test:retry")});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, RunStatus::Failed);
    EXPECT_EQ(out[0].attempts, 3u);
}

namespace
{

/** A job that fails its first attempt and passes its second must
 * come back ok after exactly two attempts, with the result of a
 * clean run. */
void
expectRetryThenSuccess(bool isolate)
{
    const SimConfig cfg = quickConfig();
    const ServerWorkloadParams wl = qmmWorkloadParams(1);
    const std::string marker = tempPath(
        isolate ? "flaky_isolated.marker" : "flaky_threaded.marker");
    std::remove(marker.c_str());

    SupervisorOptions opt = executeAll(2, isolate);
    opt.maxAttempts = 2;
    std::vector<RunOutcome> out = Supervisor(opt).run(
        {ExperimentJob::with(
            cfg,
            [marker, isolate] {
                return std::make_unique<FlakyPrefetcher>(marker, isolate);
            },
            wl)});
    ASSERT_EQ(out.size(), 1u);
    ASSERT_TRUE(out[0].ok()) << out[0].failure.what;
    EXPECT_EQ(out[0].attempts, 2u);

    // The marker now exists, so a serial run is the clean run.
    FlakyPrefetcher serial_pref(marker, isolate);
    expectSameResult(runWorkloadWith(cfg, &serial_pref, wl),
                     out[0].output.result);
    std::remove(marker.c_str());
}

} // namespace

TEST(Supervisor, ThreadModeRetrySucceeds)
{
    // The first attempt throws.
    expectRetryThenSuccess(/*isolate=*/false);
}

TEST(Supervisor, IsolateRetrySucceeds)
{
    // The first attempt's child dies by SIGSEGV.
    expectRetryThenSuccess(/*isolate=*/true);
}

TEST(Supervisor, RunBatchDegradedMode)
{
    // The result-only convenience API must not abort on a failed
    // job: the row degrades to a default SimResult (ipc 0) that the
    // metric helpers treat as missing.
    const SimConfig cfg = quickConfig();
    SupervisorOptions opt;
    opt.maxAttempts = 1;
    opt.useCache = false;
    Supervisor::setDefaultOptions(opt);

    std::vector<SimResult> results = runBatch({
        goodJob(cfg, 3),
        faultyJob<ThrowingPrefetcher>(cfg, "test:degraded"),
    });
    Supervisor::setDefaultOptions(SupervisorOptions::fromEnv());

    ASSERT_EQ(results.size(), 2u);
    EXPECT_GT(results[0].ipc, 0.0);
    EXPECT_EQ(results[1].ipc, 0.0);
    EXPECT_TRUE(std::isnan(speedupPct(results[1], results[0])));
}

TEST(Supervisor, IsolateContainsSigsegv)
{
    // Under ASan the child's SIGSEGV is reported as a nonzero exit
    // instead of a signal death, so assert containment (!ok) rather
    // than the specific Crashed classification.
    const SimConfig cfg = quickConfig();
    SupervisorOptions opt;
    opt.isolate = true;
    opt.maxAttempts = 1;
    opt.useCache = false;
    Supervisor sup(opt);

    std::vector<ExperimentJob> jobs = {
        goodJob(cfg, 4),
        faultyJob<CrashingPrefetcher>(cfg, "test:crashing"),
    };
    std::vector<RunOutcome> out = sup.run(jobs);
    ASSERT_EQ(out.size(), 2u);

    EXPECT_TRUE(out[0].ok());
    expectSameResult(out[0].output.result,
                     runWorkload(cfg, "none",
                                 qmmWorkloadParams(4)));
    EXPECT_FALSE(out[1].ok());
    EXPECT_EQ(out[1].attempts, 1u);
}

TEST(Supervisor, WatchdogKillsHungJob)
{
    const SimConfig cfg = quickConfig();
    SupervisorOptions opt;
    opt.isolate = true;
    opt.jobTimeoutMs = 500;
    opt.maxAttempts = 2;
    opt.useCache = false;
    Supervisor sup(opt);

    std::vector<RunOutcome> out = sup.run(
        {faultyJob<HangingPrefetcher>(cfg, "test:hanging")});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, RunStatus::TimedOut);
    EXPECT_EQ(out[0].attempts, 2u);
}

TEST(Supervisor, ThreadModeTimeoutIsTerminal)
{
    // Thread mode cannot kill a hung worker, only abandon it. The
    // abandoned thread may still be executing the job, so the
    // supervisor must not retry (two concurrent runs would share
    // process-global state and oversubscribe the worker budget):
    // exactly one attempt, status TimedOut, despite maxAttempts 3.
    // The worker owns a copy of the job, so destroying this test's
    // jobs vector while the orphan thread keeps running is safe.
    const SimConfig cfg = quickConfig();
    SupervisorOptions opt;
    opt.jobTimeoutMs = 300;
    opt.maxAttempts = 3;
    opt.useCache = false;
    Supervisor sup(opt);

    hangReleased.store(false);
    hangTid.store(0);
    std::vector<RunOutcome> out = sup.run(
        {faultyJob<GatedHangingPrefetcher>(cfg, "test:hang-thread")});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, RunStatus::TimedOut);
    EXPECT_EQ(out[0].attempts, 1u);
    EXPECT_NE(
        out[0].failure.what.find("not retried in thread mode"),
        std::string::npos);

    // Let the orphan finish and wait until its thread is gone, so
    // later tests fork a single-threaded process: under TSan, a child
    // of a multi-threaded fork may not start threads, and every
    // sandboxed simulation starts its trace-feed threads.
    hangReleased.store(true);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (hangTid.load() == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_NE(hangTid.load(), 0) << "the orphan never started its job";
    EXPECT_TRUE(threadExits(hangTid.load(), std::chrono::seconds(60)))
        << "the released orphan thread did not exit";
}

TEST(Supervisor, CrashAndHangBatchCompletes)
{
    // The defining property: a batch containing a crasher and a
    // hanger still returns every good row.
    const SimConfig cfg = quickConfig();
    SupervisorOptions opt;
    opt.isolate = true;
    // Comfortably above the good jobs' runtime, short enough that
    // the hanger's kill keeps the test fast.
    opt.jobTimeoutMs = 1'000;
    opt.maxAttempts = 1;
    opt.useCache = false;
    FailureManifest::global().clear();
    std::vector<RunOutcome> out = Supervisor(opt).run({
        goodJob(cfg, 5),
        faultyJob<CrashingPrefetcher>(cfg, "test:crash2"),
        faultyJob<HangingPrefetcher>(cfg, "test:hang2"),
        goodJob(cfg, 6),
    });
    ASSERT_EQ(out.size(), 4u);
    EXPECT_TRUE(out[0].ok());
    EXPECT_FALSE(out[1].ok());
    EXPECT_EQ(out[2].status, RunStatus::TimedOut);
    EXPECT_TRUE(out[3].ok());
    EXPECT_EQ(FailureManifest::global().size(), 2u);
    FailureManifest::global().clear();
}

TEST(Supervisor, RetryScheduleDeterministic)
{
    // Same (key, attempt) always yields the same delay.
    EXPECT_EQ(retryDelayMs("job-a", 2), retryDelayMs("job-a", 2));
    // Different keys jitter differently (overwhelmingly likely for
    // these two fixed strings; a hash collision would be a bug in
    // itself worth noticing).
    EXPECT_NE(retryDelayMs("job-a", 2), retryDelayMs("job-b", 2));

    // Exponential growth up to the cap: attempt k backs off
    // base << (k - 2) (capped), plus jitter in [0, backoff/2].
    for (unsigned attempt = 2; attempt < 8; ++attempt) {
        std::uint64_t d = retryDelayMs("job-a", attempt);
        std::uint64_t backoff = std::min(
            retryBackoffCapMs, retryBackoffBaseMs << (attempt - 2));
        EXPECT_GE(d, backoff);
        EXPECT_LE(d, backoff + backoff / 2);
    }
    // Deep attempts stay bounded by cap + jitter; the first try
    // has no delay at all.
    EXPECT_EQ(retryDelayMs("job-a", 1), 0u);
    EXPECT_LE(retryDelayMs("job-a", 60),
              retryBackoffCapMs + retryBackoffCapMs / 2);
}

TEST(Supervisor, DerivedTimeoutScalesWithBudget)
{
    SimConfig small = quickConfig();
    SimConfig big = quickConfig();
    big.simInstructions = 100 * small.simInstructions;
    std::uint64_t t_small =
        derivedJobTimeoutMs(goodJob(small, 0));
    std::uint64_t t_big = derivedJobTimeoutMs(goodJob(big, 0));
    EXPECT_GE(t_small, 60'000u); // fixed floor
    EXPECT_GT(t_big, t_small);
}

TEST(Supervisor, JournalResumeBitIdentical)
{
    // Simulate a campaign killed partway: journal only a prefix of
    // the batch, then run the full batch against the same journal.
    // The resumed campaign must produce outcomes bit-identical to an
    // uninterrupted run, replaying the prefix without executing it.
    const SimConfig cfg = quickConfig();
    const std::string journal =
        tempPath("morrigan-test-journal-resume.jsonl");
    std::remove(journal.c_str());

    std::vector<ExperimentJob> prefix = {goodJob(cfg, 7),
                                         goodJob(cfg, 8)};
    std::vector<ExperimentJob> full = prefix;
    full.push_back(goodJob(cfg, 9));
    full.push_back(ExperimentJob::of(cfg, "morrigan",
                                     qmmWorkloadParams(7)));

    SupervisorOptions opt;
    opt.useCache = false;
    opt.journalPath = journal;

    // "Killed" campaign: only the prefix completed.
    std::vector<RunOutcome> first = Supervisor(opt).run(prefix);
    ASSERT_TRUE(first[0].ok() && first[1].ok());
    EXPECT_FALSE(first[0].fromJournal);

    // Uninterrupted reference, no journal.
    SupervisorOptions plain;
    plain.useCache = false;
    std::vector<RunOutcome> reference = Supervisor(plain).run(full);

    // Resume.
    std::vector<RunOutcome> resumed = Supervisor(opt).run(full);
    ASSERT_EQ(resumed.size(), full.size());
    EXPECT_TRUE(resumed[0].fromJournal);
    EXPECT_TRUE(resumed[1].fromJournal);
    // Replays keep the recording campaign's execution count.
    EXPECT_EQ(resumed[0].attempts, 1u);
    EXPECT_FALSE(resumed[2].fromJournal);
    for (std::size_t i = 0; i < full.size(); ++i) {
        SCOPED_TRACE(i);
        ASSERT_TRUE(resumed[i].ok());
        expectSameResult(reference[i].output.result,
                         resumed[i].output.result);
    }

    // A third run replays everything.
    std::vector<RunOutcome> third = Supervisor(opt).run(full);
    for (const RunOutcome &o : third)
        EXPECT_TRUE(o.fromJournal);
    std::remove(journal.c_str());
}

TEST(Supervisor, SandboxPipeCarriesCheckReport)
{
    // A sandboxed child sends its outcome back as a journal record;
    // a checked, fault-injected job must arrive with the same
    // mismatch report, mismatch count and structural count as the
    // same job run on a thread.
    SimConfig cfg = quickConfig();
    cfg.checkLevel = 1;
    cfg.injectWalkerBugPeriod = 50;
    const std::vector<ExperimentJob> batch = {goodJob(cfg, 0)};

    std::vector<RunOutcome> threaded =
        Supervisor(executeAll(1)).run(batch);
    std::vector<RunOutcome> isolated =
        Supervisor(executeAll(1, true)).run(batch);
    ASSERT_TRUE(threaded[0].ok()) << threaded[0].failure.what;
    ASSERT_TRUE(isolated[0].ok()) << isolated[0].failure.what;
    const SimResult &t = threaded[0].output.result;
    const SimResult &s = isolated[0].output.result;
    EXPECT_GT(t.checkMismatches, 0u) << "injection was not caught";
    EXPECT_FALSE(t.checkReport.empty());
    EXPECT_EQ(s.checkReport, t.checkReport);
    EXPECT_EQ(s.checkMismatches, t.checkMismatches);
    EXPECT_EQ(isolated[0].structuralViolations,
              threaded[0].structuralViolations);
    expectSameResult(t, s);
}

TEST(Supervisor, ProgressHitRateIsTheBatchsOwn)
{
    // The progress line reports the share of *this* batch served
    // without simulating, not process-wide cache counters: with X
    // warmed by an earlier batch, {X, Y} is one hit in two jobs
    // (the process has made 3 cache probes by then).
    ResultCache::global().clear();
    const SimConfig cfg = quickConfig();
    const ExperimentJob x = goodJob(cfg, 13);
    const ExperimentJob y = goodJob(cfg, 14);

    SupervisorOptions opt;
    opt.jobs = 1;
    opt.maxAttempts = 1;
    Supervisor(opt).run({x});

    opt.progressEveryMs = 1;
    testing::internal::CaptureStderr();
    std::vector<RunOutcome> out = Supervisor(opt).run({x, y});
    const std::string err = testing::internal::GetCapturedStderr();
    ASSERT_TRUE(out[0].fromCache);
    ASSERT_TRUE(out[1].ok());
    EXPECT_NE(err.find("cache 50% hit"), std::string::npos) << err;
    EXPECT_EQ(err.find("cache 33% hit"), std::string::npos) << err;
    ResultCache::global().clear();
}

TEST(Supervisor, JournalToleratesTruncatedLastLine)
{
    const SimConfig cfg = quickConfig();
    const std::string journal =
        tempPath("morrigan-test-journal-torn.jsonl");
    std::remove(journal.c_str());

    SupervisorOptions opt;
    opt.useCache = false;
    opt.journalPath = journal;
    Supervisor(opt).run({goodJob(cfg, 10)});

    // Simulate a torn write: an unterminated, truncated record.
    {
        std::ofstream f(journal, std::ios::app);
        f << "{\"schema\":\"morrigan-journal\",\"key\":\"half";
    }

    // The good record still replays; the torn line is skipped.
    std::vector<RunOutcome> out =
        Supervisor(opt).run({goodJob(cfg, 10)});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].ok());
    EXPECT_TRUE(out[0].fromJournal);
    std::remove(journal.c_str());
}

TEST(Supervisor, JournalRecordsFailures)
{
    // Permanent failures are journaled too: resuming a campaign
    // must not re-execute a job that already failed all attempts.
    const SimConfig cfg = quickConfig();
    const std::string journal =
        tempPath("morrigan-test-journal-fail.jsonl");
    std::remove(journal.c_str());

    int factory_calls = 0;
    ExperimentJob failing = ExperimentJob::with(
        cfg,
        [&factory_calls]() -> std::unique_ptr<TlbPrefetcher> {
            ++factory_calls;
            return std::make_unique<ThrowingPrefetcher>();
        },
        qmmWorkloadParams(0));
    failing.journalTag = "test:journaled-failure";

    SupervisorOptions opt;
    opt.maxAttempts = 1;
    opt.useCache = false;
    opt.journalPath = journal;

    std::vector<RunOutcome> first = Supervisor(opt).run({failing});
    EXPECT_EQ(first[0].status, RunStatus::Failed);
    EXPECT_EQ(factory_calls, 1);

    std::vector<RunOutcome> second = Supervisor(opt).run({failing});
    EXPECT_EQ(second[0].status, RunStatus::Failed);
    EXPECT_TRUE(second[0].fromJournal);
    EXPECT_NE(second[0].failure.what.find(
                  "synthetic prefetcher fault"),
              std::string::npos);
    EXPECT_EQ(factory_calls, 1) << "journaled failure was re-run";
    std::remove(journal.c_str());
}

TEST(Supervisor, AnonymousJobsNeverJournal)
{
    // A factory job without a journalTag has no stable identity;
    // it must re-execute on resume rather than replay some other
    // job's record.
    const SimConfig cfg = quickConfig();
    const std::string journal =
        tempPath("morrigan-test-journal-anon.jsonl");
    std::remove(journal.c_str());

    int factory_calls = 0;
    ExperimentJob anon = ExperimentJob::with(
        cfg,
        [&factory_calls]() -> std::unique_ptr<TlbPrefetcher> {
            ++factory_calls;
            return std::make_unique<ThrowingPrefetcher>();
        },
        qmmWorkloadParams(0));

    SupervisorOptions opt;
    opt.maxAttempts = 1;
    opt.useCache = false;
    opt.journalPath = journal;
    Supervisor(opt).run({anon});
    Supervisor(opt).run({anon});
    EXPECT_EQ(factory_calls, 2);
    std::remove(journal.c_str());
}

TEST(Supervisor, FailureManifestJson)
{
    FailureManifest m;
    RunFailure f;
    f.status = RunStatus::TimedOut;
    f.what = "deadline exceeded";
    f.repro = "./build/tools/morrigan-sim --workload qmm_00";
    m.add("qmm_00 x morrigan", f, 3);

    std::ostringstream os;
    m.writeJson(os);

    const std::string text = os.str();
    json::Reader reader(text);
    json::Value doc;
    ASSERT_TRUE(reader.parse(doc)) << text;
    ASSERT_EQ(doc.type, json::Value::Type::Array);
    ASSERT_EQ(doc.array.size(), 1u);
    const json::Value &e = doc.array[0];
    std::string s;
    EXPECT_TRUE(json::getString(e, "label", s));
    EXPECT_EQ(s, "qmm_00 x morrigan");
    EXPECT_TRUE(json::getString(e, "status", s));
    EXPECT_EQ(s, "timed_out");
    std::uint64_t attempts = 0;
    EXPECT_TRUE(json::getU64(e, "attempts", attempts));
    EXPECT_EQ(attempts, 3u);
}

TEST(Supervisor, OptionsFromEnv)
{
    setenv("MORRIGAN_ISOLATE", "1", 1);
    setenv("MORRIGAN_JOB_TIMEOUT", "30", 1);
    setenv("MORRIGAN_JOB_RETRIES", "4", 1);
    setenv("MORRIGAN_SNAPSHOT_DIR", "snaps", 1);
    setenv("MORRIGAN_CHECKPOINT_EVERY", "0", 1);
    SupervisorOptions opt = SupervisorOptions::fromEnv();
    EXPECT_TRUE(opt.isolate);
    EXPECT_EQ(opt.jobTimeoutMs, 30'000u);
    EXPECT_EQ(opt.maxAttempts, 5u); // 1 first try + 4 retries
    EXPECT_EQ(opt.snapshotDir, "snaps");
    EXPECT_EQ(opt.checkpointEveryInstructions, 0u); // autosave off
    unsetenv("MORRIGAN_ISOLATE");
    unsetenv("MORRIGAN_JOB_TIMEOUT");
    unsetenv("MORRIGAN_JOB_RETRIES");
    unsetenv("MORRIGAN_SNAPSHOT_DIR");
    unsetenv("MORRIGAN_CHECKPOINT_EVERY");
    opt = SupervisorOptions::fromEnv();
    EXPECT_FALSE(opt.isolate);
    EXPECT_TRUE(opt.snapshotDir.empty());
    EXPECT_EQ(opt.checkpointEveryInstructions, 1'000'000u);
}

TEST(SupervisorDeathTest, RetiredSnapshotEnvNamesAreFatal)
{
    // Both used to name one half of what MORRIGAN_SNAPSHOT_DIR now
    // holds; ignoring them would silently run a campaign uncached.
    for (const char *retired :
         {"MORRIGAN_WARMUP_CACHE", "MORRIGAN_CHECKPOINT_DIR"}) {
        setenv(retired, "snaps", 1);
        EXPECT_EXIT(SupervisorOptions::fromEnv(),
                    ::testing::ExitedWithCode(1),
                    std::string(retired) +
                        " is retired: set MORRIGAN_SNAPSHOT_DIR")
            << retired;
        unsetenv(retired);
    }
}

TEST(Supervisor, RunBatchAllPairsFailed)
{
    // Every pair lost a member: each speedup is NaN and the geomean
    // over zero surviving pairs is NaN -- never a crash, never a
    // fabricated number.
    const SimConfig cfg = quickConfig();
    SupervisorOptions opt;
    opt.maxAttempts = 1;
    opt.useCache = false;
    Supervisor::setDefaultOptions(opt);

    std::vector<SimResult> results = runBatch({
        faultyJob<ThrowingPrefetcher>(cfg, "test:allfail-0"),
        faultyJob<ThrowingPrefetcher>(cfg, "test:allfail-1"),
        goodJob(cfg, 4),
        faultyJob<ThrowingPrefetcher>(cfg, "test:allfail-2"),
    });
    Supervisor::setDefaultOptions(SupervisorOptions::fromEnv());

    ASSERT_EQ(results.size(), 4u);
    // Pairs (base, opt): (0, 1) both failed, (2, 3) opt failed.
    std::vector<SimResult> base = {results[0], results[2]};
    std::vector<SimResult> opt_r = {results[1], results[3]};
    EXPECT_TRUE(std::isnan(speedupPct(base[0], opt_r[0])));
    EXPECT_TRUE(std::isnan(speedupPct(base[1], opt_r[1])));
    EXPECT_TRUE(std::isnan(geomeanSpeedupPct(base, opt_r)));
}

TEST(Supervisor, RunBatchSingleSurvivingPair)
{
    // With exactly one surviving pair the geomean degrades to that
    // pair's speedup: failed pairs are skipped, not zero-filled.
    const SimConfig cfg = quickConfig();
    SupervisorOptions opt;
    opt.maxAttempts = 1;
    opt.useCache = false;
    Supervisor::setDefaultOptions(opt);

    std::vector<SimResult> results = runBatch({
        goodJob(cfg, 5),
        ExperimentJob::of(cfg, "sp", qmmWorkloadParams(5)),
        faultyJob<ThrowingPrefetcher>(cfg, "test:lonely-base"),
        faultyJob<ThrowingPrefetcher>(cfg, "test:lonely-opt"),
    });
    Supervisor::setDefaultOptions(SupervisorOptions::fromEnv());

    ASSERT_EQ(results.size(), 4u);
    std::vector<SimResult> base = {results[0], results[2]};
    std::vector<SimResult> opt_r = {results[1], results[3]};
    const double lone = speedupPct(results[0], results[1]);
    EXPECT_FALSE(std::isnan(lone));
    EXPECT_NEAR(geomeanSpeedupPct(base, opt_r), lone, 1e-12);
}

namespace
{

/**
 * Pelts this process with SIGUSR1 every ~1ms until destroyed. The
 * pelter is a child process rather than a thread, so the campaign
 * under the storm still forks a single-threaded process; its
 * scheduling thread is the one that takes the signals.
 */
/** SIGUSR1s this process has taken. */
volatile std::sig_atomic_t stormHits = 0;

struct SignalStorm
{
    SignalStorm() : pelter_(::fork())
    {
        if (pelter_ == 0) {
            const pid_t target = ::getppid();
            while (::kill(target, SIGUSR1) == 0)
                ::usleep(1000);
            ::_exit(0);
        }
    }
    ~SignalStorm()
    {
        if (pelter_ > 0) {
            ::kill(pelter_, SIGKILL);
            ::waitpid(pelter_, nullptr, 0);
        }
    }
    pid_t pelter_;
};

} // namespace

TEST(Supervisor, EintrStormYieldsBitIdenticalOutcomes)
{
    // A sandboxed campaign's pipe/waitpid/poll protocol must be
    // EINTR-clean: pelt the scheduling process with harmless signals
    // (handler installed WITHOUT SA_RESTART, so every blocking call
    // really does take the EINTR path) and require outcomes
    // bit-identical to an undisturbed run -- journal records
    // included.
    struct sigaction sa, old_sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = [](int) { stormHits = stormHits + 1; };
    sa.sa_flags = 0; // deliberately no SA_RESTART
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old_sa), 0);

    const SimConfig cfg = quickConfig();
    std::vector<ExperimentJob> jobs = {
        goodJob(cfg, 11),
        ExperimentJob::of(cfg, "morrigan", qmmWorkloadParams(12)),
    };

    SupervisorOptions plain;
    plain.isolate = true;
    plain.useCache = false;
    std::vector<RunOutcome> reference = Supervisor(plain).run(jobs);
    ASSERT_TRUE(reference[0].ok() && reference[1].ok());

    const std::string journal =
        tempPath("morrigan-test-journal-eintr.jsonl");
    std::remove(journal.c_str());
    SupervisorOptions opt = plain;
    opt.journalPath = journal;

    std::vector<RunOutcome> stormed;
    {
        SignalStorm storm;
        ASSERT_GT(storm.pelter_, 0) << "fork: " << std::strerror(errno);
        stormed = Supervisor(opt).run(jobs);
    }
    ::sigaction(SIGUSR1, &old_sa, nullptr);
    EXPECT_GT(stormHits, 0) << "the storm never reached this process";

    ASSERT_EQ(stormed.size(), reference.size());
    for (std::size_t i = 0; i < stormed.size(); ++i) {
        SCOPED_TRACE(i);
        ASSERT_TRUE(stormed[i].ok());
        expectSameResult(reference[i].output.result,
                         stormed[i].output.result);
    }

    // The journal written under the storm is intact: a resume
    // replays every record rather than rerunning.
    std::vector<RunOutcome> resumed = Supervisor(opt).run(jobs);
    for (const RunOutcome &o : resumed)
        EXPECT_TRUE(o.fromJournal);
    std::remove(journal.c_str());
}

namespace
{

/** The experiment a printed repro command runs, parsed the way
 * morrigan-sim parses its flags. */
std::string
reproKey(const std::string &cmd)
{
    std::istringstream in(cmd);
    std::vector<std::string> tokens;
    for (std::string t; in >> t;)
        tokens.push_back(t);
    std::optional<ServerWorkloadParams> wl, smt;
    std::string kind;
    SimConfig cfg;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (tokens[i] == "--workload") {
            wl = parseWorkloadName(tokens[++i]);
        } else if (tokens[i] == "--smt-with") {
            smt = parseWorkloadName(tokens[++i]);
        } else if (tokens[i] == "--prefetcher") {
            kind = tokens[++i];
        } else {
            const ConfigFlag *f = findConfigFlag(tokens[i]);
            if (!f || (f->arg && i + 1 == tokens.size()))
                return "unparsable: " + cmd;
            EXPECT_EQ(applyConfigFlag(cfg, *f,
                                      f->arg ? tokens[++i].c_str()
                                             : nullptr),
                      "");
        }
    }
    if (!wl)
        return "unparsable: " + cmd;
    return experimentKey(cfg, kind, *wl, smt ? &*smt : nullptr);
}

} // namespace

TEST(JobRepro, NonCliConfigsNameTheFieldInsteadOfAWrongCommand)
{
    const ServerWorkloadParams wl = qmmWorkloadParams(3);
    SimConfig fig18; // Figure 18's enlarged STLB
    fig18.tlb.stlb.entries = 1920;
    fig18.tlb.stlb.ways = 15;
    SimConfig ports; // bench_ablations' walker-port sweep
    ports.walker.ports = 2;
    SimConfig hashed; // Section 4.3
    hashed.pageTableFormat = PageTableFormat::Hashed;
    hashed.correctingWalks = true;
    ServerWorkloadParams reseeded = wl;
    reseeded.seed += 1;

    EXPECT_EQ(jobReproCommand(ExperimentJob::of(fig18, "morrigan", wl)),
              "# non-CLI job: tlb.stlb.entries=1920");
    EXPECT_EQ(jobReproCommand(ExperimentJob::of(ports, "morrigan", wl)),
              "# non-CLI job: walker.ports=2");
    EXPECT_EQ(jobReproCommand(ExperimentJob::of(hashed, "morrigan", wl)),
              "# non-CLI job: pageTableFormat=1");
    EXPECT_EQ(jobReproCommand(
                  ExperimentJob::of(SimConfig{}, "morrigan", reseeded)),
              "# non-CLI job: wl.seed=" + std::to_string(reseeded.seed));

    const ExperimentJob plain = ExperimentJob::of(SimConfig{}, "morrigan", wl);
    EXPECT_EQ(jobReproCommand(plain),
              "./build/tools/morrigan-sim --workload qmm_03 "
              "--prefetcher morrigan");
}

TEST(JobRepro, EveryTableFlagRoundTrips)
{
    for (const ConfigFlag &f : configFlags()) {
        SCOPED_TRACE(f.flag);
        SimConfig cfg = quickConfig();
        const std::uint64_t before = f.field.get(cfg);
        std::uint64_t value = f.min != before ? f.min : f.min + 1;
        if (!f.arg)
            value = 1;
        else if (!f.names.empty())
            value = before == 0 ? 1 : 0;
        f.field.set(cfg, value);
        ASSERT_NE(f.field.get(cfg), before);

        const ExperimentJob job = ExperimentJob::smtPair(
            cfg, "morrigan", qmmWorkloadParams(3), qmmWorkloadParams(4));
        const std::string cmd = jobReproCommand(job);
        ASSERT_NE(cmd.front(), '#') << cmd;
        EXPECT_NE(cmd.find(std::string(" ") + f.flag), std::string::npos)
            << cmd;
        EXPECT_EQ(reproKey(cmd),
                  experimentKey(cfg, "morrigan", job.workload,
                                &job.smtWorkload));
    }
}
