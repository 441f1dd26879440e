/**
 * @file
 * One simulation job and how to execute it.
 *
 * Every run is a deterministic function of (SimConfig, prefetcher
 * spec, ServerWorkloadParams), with no shared mutable state between
 * runs: each job constructs its own Simulator, workload generator,
 * RNG streams and prefetcher. executeJob() runs one job on the
 * calling thread; batches go through the Supervisor
 * (sim/supervisor.hh), whose results are therefore bit-identical to
 * serial execution regardless of the worker count.
 *
 * Worker count: SupervisorOptions::jobs (the `--jobs` flag) when
 * set, else defaultJobs(): the MORRIGAN_JOBS environment variable
 * (validated: junk or zero is fatal), else
 * std::thread::hardware_concurrency().
 */

#ifndef MORRIGAN_SIM_JOB_HH
#define MORRIGAN_SIM_JOB_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/prefetcher_registry.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "workload/server_workload.hh"

namespace morrigan
{

/** One simulation to run: configuration + prefetcher + workload(s). */
struct ExperimentJob
{
    SimConfig cfg;
    std::string kind = "none";
    ServerWorkloadParams workload;

    /** Second hardware thread's workload (SMT colocation). */
    bool smt = false;
    ServerWorkloadParams smtWorkload{};

    /**
     * Custom prefetcher constructor (ablation studies, user-defined
     * prefetchers). When set it overrides @p kind and disables
     * result caching; it is invoked once per job, on the worker
     * thread, so every run gets a fresh instance and jobs stay
     * independent. Must be callable concurrently.
     */
    std::function<std::unique_ptr<TlbPrefetcher>()>
        prefetcherFactory;

    /**
     * Stable identity for the campaign journal when the job is not
     * cacheable (factory prefetchers, checked runs). Campaigns that
     * want such jobs to resume across processes must set a tag that
     * uniquely names the job's full configuration (the fuzzer tags
     * every family member with its seed + member role). Empty means
     * "journal only if cacheable".
     */
    std::string journalTag;

    /** Canonical constructors. */
    static ExperimentJob of(const SimConfig &cfg, const std::string &kind,
                            const ServerWorkloadParams &workload);
    static ExperimentJob
    with(const SimConfig &cfg,
         std::function<std::unique_ptr<TlbPrefetcher>()> factory,
         const ServerWorkloadParams &workload);
    static ExperimentJob smtPair(const SimConfig &cfg,
                                 const std::string &kind,
                                 const ServerWorkloadParams &a,
                                 const ServerWorkloadParams &b);
    static ExperimentJob
    smtPairWith(const SimConfig &cfg,
                std::function<std::unique_ptr<TlbPrefetcher>()> factory,
                const ServerWorkloadParams &a,
                const ServerWorkloadParams &b);

    /** Whether the job's output can be memoised by key. Factory
     * prefetchers have no key; checked and fault-injected runs are
     * excluded because their value is in the check being
     * re-executed. */
    bool cacheable() const
    {
        return !prefetcherFactory && cfg.checkLevel == 0 &&
               cfg.injectWalkerBugPeriod == 0;
    }
};

/** Everything one job produces: what the journal, the result cache
 * and a sandboxed child's reply carry. */
struct ExperimentOutput
{
    SimResult result;
    /** Simulator::missStream(): the measured iSTLB miss VPNs, empty
     * unless the job's configuration collects them. */
    std::vector<Vpn> missStream;
};

/**
 * Checkpoint/resume knobs for one job execution (see DESIGN.md §12).
 * Both paths are optional and independent; a corrupt, stale or
 * mismatched image is discarded with a warning and the job simulates
 * from scratch -- snapshots accelerate, they never gate.
 */
struct JobExecutionOptions
{
    /** Snapshot file to resume from (if present and valid) and to
     * autosave into every checkpointEvery instructions. */
    std::string checkpointPath;
    std::uint64_t checkpointEvery = 0;

    /** Warmup-image file (keyed by warmupKey() at the call site):
     * restored when no checkpoint was, written at the
     * warmup->measurement transition by a run that warms up. */
    std::string warmupImagePath;
};

/** A fully wired simulator plus everything it borrows. */
struct JobAssembly
{
    std::unique_ptr<TlbPrefetcher> prefetcher;
    std::unique_ptr<ServerWorkload> trace;
    std::unique_ptr<ServerWorkload> smtTrace;
    std::unique_ptr<Simulator> sim;
};

/** Construct and wire @p job's prefetcher, workloads and
 * simulator. */
JobAssembly buildJob(const ExperimentJob &job);

/**
 * The one restore path: restore @p a from the snapshot at @p path,
 * if one exists. On any SnapshotError, warn "discarding <what>" and
 * replace @p a with rebuild() -- a failed restore may have written
 * part of the state. Returns whether @p a was restored.
 */
bool restoreOrRebuild(JobAssembly &a, const std::string &path,
                      const char *what,
                      const std::function<JobAssembly()> &rebuild);

/** Execute one job on the calling thread (no scheduler, no cache). */
ExperimentOutput executeJob(const ExperimentJob &job,
                            const JobExecutionOptions &opts = {});

/**
 * Validated parse of a worker-count value (MORRIGAN_JOBS / --jobs):
 * fatal() on junk, trailing garbage, zero, or counts above 1024.
 */
unsigned parseJobsValue(const char *what, const char *s);

/** Default worker count: MORRIGAN_JOBS, else hardware concurrency. */
unsigned defaultJobs();

} // namespace morrigan

#endif // MORRIGAN_SIM_JOB_HH
