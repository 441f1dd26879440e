/**
 * @file
 * Fault-isolated campaign supervisor.
 *
 * Every batch -- sweeps, figure benches, the tournament, fuzz
 * families -- runs through Supervisor::run(). It plans the batch
 * (journal replays, ResultCache hits, one representative per repeated
 * cacheable key) and hands the remaining jobs to one attempt
 * scheduler, which returns outcomes in submission order,
 * bit-identical to serial execution for any worker count. Around
 * every ExperimentJob it draws a fault boundary:
 *
 *  - a fault in one job is captured as a per-job failure instead of
 *    aborting the batch;
 *  - a watchdog enforces a per-job wall-clock deadline, derived
 *    from the instruction budget unless pinned;
 *  - failed attempts are retried a bounded number of times with
 *    exponential backoff and deterministic jitter (seeded from the
 *    job key, so reruns schedule identically);
 *  - with SupervisorOptions::snapshotDir set, cacheable jobs
 *    autosave snapshots (see DESIGN.md §12) and a retried attempt
 *    resumes from the last checkpoint -- with a watchdog deadline
 *    derived from the remaining instruction budget -- instead of
 *    re-simulating from scratch;
 *  - every final outcome is appended to an fsync'd JSONL journal,
 *    so a campaign killed at any point (Ctrl-C, CI timeout,
 *    machine loss) resumes exactly where it stopped;
 *  - permanent failures land in the process-wide FailureManifest,
 *    which the CLIs and bench artifacts emit so degraded campaigns
 *    report what is missing instead of silently dropping rows.
 *
 * One attempt scheduler owns the attempt queue, the backoff and the
 * retry-or-finalise decision; an executor only launches, waits and
 * reaps. Thread mode (the default) runs attempts on worker threads
 * and contains C++ exceptions only; a hung thread is abandoned, not
 * killed, and as it may still be running that job, its timeout is
 * never retried. Sandbox mode (SupervisorOptions::isolate, --isolate,
 * MORRIGAN_ISOLATE=1) forks one child per attempt, which sends its
 * outcome back as one journal record; crashes are contained, hung
 * children are SIGKILLed and retried, and the single-threaded
 * scheduler keeps fork() safe.
 */

#ifndef MORRIGAN_SIM_SUPERVISOR_HH
#define MORRIGAN_SIM_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/job.hh"

namespace morrigan
{

/** How one job ended up. */
enum class RunStatus
{
    Ok,       //!< produced a result
    Failed,   //!< threw / exited nonzero on every attempt
    TimedOut, //!< exceeded the watchdog deadline on every attempt
    Crashed,  //!< died by signal on every attempt (sandbox mode)
};

const char *runStatusName(RunStatus s);

/** Captured detail for a non-Ok outcome. */
struct RunFailure
{
    RunStatus status = RunStatus::Failed;
    std::string what;       //!< exception text / exit description
    int signal = 0;         //!< terminating signal (Crashed)
    std::string stderrTail; //!< last stderr bytes (sandbox mode)
    std::string repro;      //!< command (or tag) identifying the job
};

/** Per-job verdict from a supervised batch. */
struct RunOutcome
{
    RunStatus status = RunStatus::Ok;
    ExperimentOutput output; //!< valid iff status == Ok
    RunFailure failure;      //!< valid iff status != Ok
    /** Executions performed: 0 for cache hits and in-batch copies
     * of a repeated key (so 0 means "not simulated for this job");
     * journal replays keep the recording campaign's count. */
    unsigned attempts = 1;
    /** Wall-clock time of the *final* attempt in ms (0 for cache
     * hits and in-batch copies; journal replays keep the recording
     * campaign's value), so post-mortems can tell slow jobs from
     * hung ones. */
    std::uint64_t durationMs = 0;
    bool fromJournal = false;
    bool fromCache = false;
    /** Structural invariant violations observed inside a sandboxed
     * child (merged into the parent's count by the fuzzer). */
    std::uint64_t structuralViolations = 0;

    bool ok() const { return status == RunStatus::Ok; }
};

/** Campaign resilience policy. */
struct SupervisorOptions
{
    /** fork() one child per job; contains crashes and lets the
     * watchdog SIGKILL hung jobs. */
    bool isolate = false;

    /** Per-job wall-clock deadline in ms; 0 derives a deadline from
     * the job's instruction budget (derivedJobTimeoutMs). */
    std::uint64_t jobTimeoutMs = 0;

    /** Total executions per job, first try included. */
    unsigned maxAttempts = 2;

    /** JSONL journal path; empty disables checkpoint/resume. */
    std::string journalPath;

    /**
     * The snapshot store (DESIGN.md §12); empty disables it. A
     * cacheable job restores its checkpoint, else its warmup image;
     * publishes the image at the warmup->measurement transition; and
     * autosaves a checkpoint every checkpointEveryInstructions. So a
     * retried attempt resumes (with a watchdog deadline sized for
     * the *remaining* budget) and a sweep warms each (workload,
     * prefetcher, system) once.
     */
    std::string snapshotDir;

    /** Checkpoint autosave interval in executed instructions; 0
     * turns autosave off (warmup images only). */
    std::uint64_t checkpointEveryInstructions = 1'000'000;

    /**
     * Emit a campaign progress line to stderr at most every this
     * many ms (jobs done/running/retried, the share of the batch
     * served without simulating, aggregate simulated instrs/sec,
     * ETA); 0 disables. Observation only -- never affects scheduling
     * or results.
     */
    std::uint64_t progressEveryMs = 0;

    /** Worker count; 0 defers to defaultJobs(). */
    unsigned jobs = 0;

    /** Route cacheable jobs through ResultCache::global(). */
    bool useCache = true;

    /** Resolve MORRIGAN_ISOLATE / MORRIGAN_JOB_TIMEOUT (seconds) /
     * MORRIGAN_JOB_RETRIES / MORRIGAN_JOURNAL /
     * MORRIGAN_SNAPSHOT_DIR / MORRIGAN_CHECKPOINT_EVERY /
     * MORRIGAN_PROGRESS_MS on top of defaults; junk values and the
     * retired snapshot variables are fatal. */
    static SupervisorOptions fromEnv();

    /**
     * Apply the command-line flag @p arg when it sets one of these
     * options, taking its value from @p next; false for any other
     * flag. The flag and its environment variable accept the same
     * values, and a junk or out-of-range value is fatal, naming the
     * flag. Both CLIs parse their campaign flags here.
     */
    bool applyFlag(std::string_view arg,
                   const std::function<const char *()> &next);

    /** Print the usage lines of the flags applyFlag() accepts. */
    static void printFlagUsage();
};

/** Exponential backoff between retries: attempt k waits
 * base << (k - 2), capped, plus deterministic jitter. */
inline constexpr std::uint64_t retryBackoffBaseMs = 100;
inline constexpr std::uint64_t retryBackoffCapMs = 5'000;

/**
 * Process-wide ledger of permanently failed jobs, drained by the
 * CLIs / bench artifacts into failure manifests. Thread-safe.
 */
class FailureManifest
{
  public:
    struct Entry
    {
        std::string label; //!< human-readable job identity
        RunFailure failure;
        unsigned attempts = 0;
        /** Final attempt's wall-clock ms (see
         * RunOutcome::durationMs). */
        std::uint64_t durationMs = 0;
    };

    static FailureManifest &global();

    void add(const std::string &label, const RunFailure &failure,
             unsigned attempts, std::uint64_t duration_ms = 0);
    std::vector<Entry> entries() const;
    std::size_t size() const;
    void clear();

    /** JSON array of {label, status, what, signal, repro,
     * attempts, duration_ms}. */
    void writeJson(std::ostream &os) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Entry> entries_;
};

/**
 * Default watchdog deadline for a job: a fixed floor plus time
 * proportional to the warmup+measure instruction budget *still to
 * run*. @p executed_instructions is how far a checkpoint the attempt
 * will resume from had progressed (0 = from scratch): an attempt
 * resuming at 90% of a long job gets a deadline sized for the last
 * 10%, not for the whole run again.
 */
std::uint64_t
derivedJobTimeoutMs(const ExperimentJob &job,
                    std::uint64_t executed_instructions = 0);

/**
 * Delay before retry attempt @p attempt (2 = first retry) of the
 * job identified by @p key: exponential backoff plus jitter hashed
 * from (key, attempt), so a rerun of the same campaign schedules
 * identically.
 */
std::uint64_t retryDelayMs(const std::string &key, unsigned attempt);

/** Human-readable job identity for reports and manifests. */
std::string jobLabel(const ExperimentJob &job);

/**
 * Repro command for a job: the morrigan-sim invocation whose parse
 * (configFlags() and parseWorkloadName()) rebuilds the job's
 * experimentKey(). A job the CLI cannot express gets the comment
 * `# non-CLI job: <first differing key field>` instead; factory jobs
 * get one carrying their journal tag.
 */
std::string jobReproCommand(const ExperimentJob &job);

/**
 * Append-only JSONL journal of job-key -> outcome. Appends are
 * single atomic O_APPEND writes, fsync'd, so a record is either
 * fully present or absent; load() tolerates a truncated last line
 * (the job simply reruns). The last record for a key wins.
 */
class CampaignJournal
{
  public:
    /** Opens (creating if absent) and loads @p path; empty path
     * makes an inert journal. */
    explicit CampaignJournal(const std::string &path);
    ~CampaignJournal();

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    bool enabled() const { return fd_ >= 0; }
    std::size_t loadedRecords() const { return replay_.size(); }

    /** Replay a finished outcome for @p key, if journaled. */
    bool lookup(const std::string &key, RunOutcome &out) const;

    /** Durably record @p outcome for @p key. */
    void record(const std::string &key, const RunOutcome &outcome);

  private:
    int fd_ = -1;
    std::unordered_map<std::string, RunOutcome> replay_;
};

/** The supervisor itself. */
class Supervisor
{
  public:
    explicit Supervisor(SupervisorOptions opt = defaultOptions());

    /** Run a batch to completion; one outcome per job, in
     * submission order. Never throws for job-level faults. */
    std::vector<RunOutcome> run(const std::vector<ExperimentJob> &batch);

    /** Resolved worker count: SupervisorOptions::jobs, else
     * defaultJobs(). */
    unsigned jobs() const;

    /**
     * Process-wide default policy: fromEnv(), overridden by
     * setDefaultOptions() (the CLI flags). runBatch() and the other
     * sim/experiment.hh helpers construct their Supervisor from
     * this.
     */
    static SupervisorOptions defaultOptions();
    static void setDefaultOptions(const SupervisorOptions &opt);

  private:
    SupervisorOptions opt_;
};

} // namespace morrigan

#endif // MORRIGAN_SIM_SUPERVISOR_HH
