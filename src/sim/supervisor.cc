#include "supervisor.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "check/invariants.hh"
#include "common/fault_fs.hh"
#include "common/io_retry.hh"
#include "common/json.hh"
#include "common/json_reader.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/telemetry.hh"
#include "sim/config_flags.hh"
#include "sim/result_cache.hh"
#include "workload/workload_factory.hh"

namespace morrigan
{

namespace
{

using Clock = std::chrono::steady_clock;

std::optional<RunStatus>
runStatusFromName(const std::string &name)
{
    if (name == "ok")
        return RunStatus::Ok;
    if (name == "failed")
        return RunStatus::Failed;
    if (name == "timed_out")
        return RunStatus::TimedOut;
    if (name == "crashed")
        return RunStatus::Crashed;
    return std::nullopt;
}

/** One journal record, also the sandbox child's reply (see
 * runChildJob). Failures carry their diagnosis; successes carry the
 * job's whole output (the result with its check report, and the miss
 * stream) and the structural-violation count. */
void
writeJournalLine(std::ostream &os, const std::string &key,
                 const RunOutcome &o)
{
    json::Writer w(os);
    w.beginObject();
    w.kv("schema", "morrigan-journal");
    w.kv("version", json::journalSchemaVersion);
    w.kv("key", key);
    w.kv("status", runStatusName(o.status));
    w.kv("attempts", std::uint64_t{o.attempts});
    w.kv("duration_ms", o.durationMs);
    if (o.ok()) {
        w.key("result").rawValue([&](std::ostream &ro) {
            writeSimResultJson(ro, o.output.result);
        });
        w.kv("check_report", o.output.result.checkReport);
        w.kv("structural", o.structuralViolations);
        w.key("miss_stream").beginArray();
        for (Vpn vpn : o.output.missStream)
            w.value(vpn);
        w.endArray();
    } else {
        w.kv("what", o.failure.what);
        w.kv("signal", o.failure.signal);
        w.kv("stderr_tail", o.failure.stderrTail);
        w.kv("repro", o.failure.repro);
    }
    w.endObject();
}

/**
 * Parse one journal line. @p stale_version is set (and false
 * returned) when the line is a well-formed morrigan-journal record
 * written under a different schema version: the loader reports those
 * separately from corruption, because the fix is "rerun", not
 * "investigate".
 */
bool
parseJournalLine(const std::string &line, std::string &key,
                 RunOutcome &out, std::uint64_t *stale_version)
{
    json::Value doc;
    if (!json::Reader(line).parse(doc) ||
        doc.type != json::Value::Type::Object)
        return false;
    std::string schema, status_name;
    std::uint64_t version = 0, attempts = 0;
    if (!json::getString(doc, "schema", schema) ||
        schema != "morrigan-journal" ||
        !json::getU64(doc, "version", version))
        return false;
    if (version !=
        static_cast<std::uint64_t>(json::journalSchemaVersion)) {
        if (stale_version)
            *stale_version = version;
        return false;
    }
    if (!json::getString(doc, "key", key) ||
        !json::getString(doc, "status", status_name) ||
        !json::getU64(doc, "attempts", attempts))
        return false;
    auto status = runStatusFromName(status_name);
    if (!status)
        return false;

    RunOutcome o;
    o.status = *status;
    o.attempts = static_cast<unsigned>(attempts);
    // Optional since journal schema v1 records predate it; absent
    // keys simply leave the replayed duration at 0.
    json::getU64(doc, "duration_ms", o.durationMs);
    if (o.ok()) {
        const json::Value *res = doc.find("result");
        if (!res || !simResultFromJson(*res, o.output.result) ||
            !json::getU64Array(doc, "miss_stream", o.output.missStream))
            return false;
        json::getString(doc, "check_report",
                        o.output.result.checkReport);
        json::getU64(doc, "structural", o.structuralViolations);
    } else {
        o.failure.status = o.status;
        std::uint64_t sig = 0;
        json::getString(doc, "what", o.failure.what);
        if (json::getU64(doc, "signal", sig))
            o.failure.signal = static_cast<int>(sig);
        json::getString(doc, "stderr_tail", o.failure.stderrTail);
        json::getString(doc, "repro", o.failure.repro);
    }
    out = std::move(o);
    return true;
}

/** Keep the last @p keep bytes, cutting at a line boundary when one
 * is close. */
std::string
tailOf(const std::string &s, std::size_t keep = 2000)
{
    if (s.size() <= keep)
        return s;
    std::size_t start = s.size() - keep;
    std::size_t nl = s.find('\n', start);
    if (nl != std::string::npos && nl + 1 < s.size() &&
        nl - start < 200)
        start = nl + 1;
    return "..." + s.substr(start);
}

RunOutcome
failedOutcome(RunStatus status, std::string what, int signal = 0,
              std::string stderr_tail = {})
{
    RunOutcome o;
    o.status = status;
    o.failure.what = std::move(what);
    o.failure.signal = signal;
    o.failure.stderrTail = std::move(stderr_tail);
    return o;
}

/** Run one attempt on the calling thread: Ok with its output, or
 * Failed with the exception text. */
RunOutcome
executeCaught(const ExperimentJob &job, const JobExecutionOptions &opts)
{
    try {
        RunOutcome o;
        o.output = executeJob(job, opts);
        return o;
    } catch (const std::exception &e) {
        return failedOutcome(RunStatus::Failed, e.what());
    } catch (...) {
        return failedOutcome(RunStatus::Failed, "unknown exception");
    }
}

/**
 * Sandbox child body: run the job, write exactly one journal record
 * for it to the result pipe -- status "ok" with the result, check
 * report and structural count, or "failed" with the exception text
 * -- and _exit() (no atexit handlers, no stream flushing: the parent
 * owns all artifacts).
 */
[[noreturn]] void
runChildJob(const ExperimentJob &job, const std::string &key,
            const JobExecutionOptions &opts, int result_fd)
{
    // The forked child inherits the parent's violation count;
    // report only what this job adds.
    const std::uint64_t structural_before =
        check::invariantViolations();
    RunOutcome o = executeCaught(job, opts);
    if (o.ok())
        o.structuralViolations =
            check::invariantViolations() - structural_before;
    std::ostringstream ss;
    writeJournalLine(ss, key, o);
    const std::string doc = ss.str();
    io::writeAll(result_fd, doc.data(), doc.size());
    ::_exit(o.ok() ? 0 : 2);
}

/** Process-wide default-policy override (the CLI flags). */
std::mutex defaultOptionsMutex;
std::optional<SupervisorOptions> defaultOptionsOverride;

/**
 * Rate-limited campaign progress line (stderr). Purely
 * observational; every member is touched only from the single
 * scheduler thread that owns the campaign, so no locking. The
 * instrs/sec figure counts *simulated* instructions of finalized
 * jobs (warmup + measure budget) per wall second -- a throughput
 * number comparable across campaigns, not a per-attempt profile.
 * The hit rate is this batch's own: the share of its @p batch_size
 * jobs that were @p served without simulating (journal replays,
 * cache hits, in-batch copies).
 */
class ProgressMeter
{
  public:
    ProgressMeter(std::uint64_t every_ms, std::size_t total_jobs,
                  std::size_t served, std::size_t batch_size)
        : everyMs_(every_ms), total_(total_jobs),
          hitRate_(batch_size > 0
                       ? 100.0 * static_cast<double>(served) /
                             static_cast<double>(batch_size)
                       : 0.0),
          start_(Clock::now()), nextPrint_(start_)
    {
    }

    void jobDone(std::uint64_t simulated_instructions)
    {
        ++done_;
        instructions_ += simulated_instructions;
    }

    void retryScheduled() { ++retries_; }

    void maybePrint(std::size_t running)
    {
        if (everyMs_ == 0 || total_ == 0)
            return;
        const Clock::time_point now = Clock::now();
        if (now < nextPrint_)
            return;
        nextPrint_ = now + std::chrono::milliseconds(everyMs_);
        const double elapsed =
            std::chrono::duration<double>(now - start_).count();
        const double mips =
            elapsed > 0.0
                ? static_cast<double>(instructions_) / elapsed / 1e6
                : 0.0;
        std::string eta = "?";
        if (done_ > 0 && elapsed > 0.0) {
            const double per_job = elapsed / static_cast<double>(done_);
            eta = csprintf(
                "%.0fs",
                per_job * static_cast<double>(total_ - done_));
        }
        std::fprintf(stderr,
                     "[supervisor] %zu/%zu done, %zu running, "
                     "%zu retried, cache %.0f%% hit, "
                     "%.1fM instr/s, ETA %s\n",
                     done_, total_, running, retries_, hitRate_,
                     mips, eta.c_str());
    }

  private:
    std::uint64_t everyMs_;
    std::size_t total_;
    double hitRate_;
    Clock::time_point start_;
    Clock::time_point nextPrint_;
    std::size_t done_ = 0;
    std::size_t retries_ = 0;
    std::uint64_t instructions_ = 0;
};

/** Warmup + measurement instructions a job simulates: what its
 * watchdog deadline scales with and what a finalized job adds to the
 * campaign throughput figure. */
std::uint64_t
jobInstructionBudget(const ExperimentJob &job)
{
    return job.cfg.warmupInstructions + job.cfg.simInstructions;
}

} // namespace

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Ok: return "ok";
      case RunStatus::Failed: return "failed";
      case RunStatus::TimedOut: return "timed_out";
      case RunStatus::Crashed: return "crashed";
    }
    return "?";
}

namespace
{

/**
 * Set the option that command-line flag @p flag names from the value
 * @p value returns (not called for a switch); @p what, the flag or
 * its environment variable, names the source in errors. False when
 * @p flag sets no option.
 */
bool
setOption(SupervisorOptions &o, std::string_view flag,
          const std::string &what,
          const std::function<const char *()> &value)
{
    if (flag == "--jobs")
        o.jobs = parseJobsValue(what.c_str(), value());
    else if (flag == "--isolate")
        o.isolate = true;
    else if (flag == "--job-timeout")
        o.jobTimeoutMs = parseU64OrDie(what, value(), 1, 86'400) * 1000;
    else if (flag == "--retries")
        o.maxAttempts = 1 + static_cast<unsigned>(
                                parseU64OrDie(what, value(), 0, 100));
    else if (flag == "--journal")
        o.journalPath = value();
    else if (flag == "--snapshot-dir")
        o.snapshotDir = value();
    else if (flag == "--checkpoint-every")
        o.checkpointEveryInstructions =
            parseU64OrDie(what, value(), 0, std::uint64_t{1} << 40);
    else if (flag == "--progress")
        o.progressEveryMs = parseU64OrDie(what, value(), 1, 3'600'000);
    else
        return false;
    return true;
}

} // namespace

SupervisorOptions
SupervisorOptions::fromEnv()
{
    // The two snapshot stores these named are one store now; a
    // campaign still setting them would silently run uncached.
    for (const char *retired :
         {"MORRIGAN_CHECKPOINT_DIR", "MORRIGAN_WARMUP_CACHE"})
        if (std::getenv(retired))
            fatal("%s is retired: set MORRIGAN_SNAPSHOT_DIR, which "
                  "holds both checkpoints and warmup images",
                  retired);
    SupervisorOptions o;
    if (const char *e = std::getenv("MORRIGAN_ISOLATE"))
        o.isolate = *e != '\0' && std::string(e) != "0";
    // The flag each variable spells; MORRIGAN_JOBS is resolved by
    // defaultJobs() when a Supervisor sizes its pool.
    static constexpr std::pair<const char *, const char *> spellings[] = {
        {"--job-timeout", "MORRIGAN_JOB_TIMEOUT"},
        {"--retries", "MORRIGAN_JOB_RETRIES"},
        {"--journal", "MORRIGAN_JOURNAL"},
        {"--snapshot-dir", "MORRIGAN_SNAPSHOT_DIR"},
        {"--checkpoint-every", "MORRIGAN_CHECKPOINT_EVERY"},
        {"--progress", "MORRIGAN_PROGRESS_MS"},
    };
    for (const auto &[flag, env] : spellings)
        if (const char *e = std::getenv(env))
            setOption(o, flag, env, [e] { return e; });
    return o;
}

bool
SupervisorOptions::applyFlag(std::string_view arg,
                             const std::function<const char *()> &next)
{
    return setOption(*this, arg, std::string(arg), next);
}

void
SupervisorOptions::printFlagUsage()
{
    std::printf(
        "  --jobs N              parallel worker count (default: "
        "MORRIGAN_JOBS, then hardware)\n"
        "  --isolate             sandbox every job in its own "
        "process, so crashing and hanging jobs are contained "
        "(MORRIGAN_ISOLATE=1)\n"
        "  --job-timeout SECS    per-job watchdog deadline (default "
        "derived from the instruction budget; "
        "MORRIGAN_JOB_TIMEOUT)\n"
        "  --retries N           retry failed jobs (and timed-out "
        "ones under --isolate) up to N times with backoff "
        "(default 1; MORRIGAN_JOB_RETRIES)\n"
        "  --journal FILE        append per-job outcomes to FILE "
        "and resume completed jobs from it (MORRIGAN_JOURNAL)\n"
        "  --snapshot-dir DIR    per-job checkpoints and warmup "
        "images, so killed jobs resume and a batch warms each "
        "(workload, prefetcher, system) once (MORRIGAN_SNAPSHOT_DIR)\n"
        "  --checkpoint-every N  snapshot autosave interval in "
        "instructions; 0 turns autosave off (default 1000000; "
        "MORRIGAN_CHECKPOINT_EVERY)\n"
        "  --progress MS         periodic campaign progress line on "
        "stderr, at most every MS ms (MORRIGAN_PROGRESS_MS)\n");
}

FailureManifest &
FailureManifest::global()
{
    static FailureManifest manifest;
    return manifest;
}

void
FailureManifest::add(const std::string &label,
                     const RunFailure &failure, unsigned attempts,
                     std::uint64_t duration_ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.push_back({label, failure, attempts, duration_ms});
}

std::vector<FailureManifest::Entry>
FailureManifest::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_;
}

std::size_t
FailureManifest::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
FailureManifest::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
}

void
FailureManifest::writeJson(std::ostream &os) const
{
    std::vector<Entry> snapshot = entries();
    json::Writer w(os);
    w.beginArray();
    for (const Entry &e : snapshot) {
        w.beginObject();
        w.kv("label", e.label);
        w.kv("status", runStatusName(e.failure.status));
        w.kv("what", e.failure.what);
        w.kv("signal", e.failure.signal);
        w.kv("repro", e.failure.repro);
        w.kv("attempts", std::uint64_t{e.attempts});
        w.kv("duration_ms", e.durationMs);
        w.endObject();
    }
    w.endArray();
}

std::uint64_t
derivedJobTimeoutMs(const ExperimentJob &job,
                    std::uint64_t executed_instructions)
{
    // A generous fixed floor (cold caches, loaded CI machines) plus
    // time proportional to the instruction budget still to run; the
    // simulator sustains well over 1M instructions/s, so 50 us per
    // 1k instructions is an order of magnitude of slack. An attempt
    // resuming from a checkpoint only pays for the remainder.
    const std::uint64_t budget = jobInstructionBudget(job);
    const std::uint64_t remaining =
        budget - std::min(executed_instructions, budget);
    return 60'000 + remaining / 20;
}

std::uint64_t
retryDelayMs(const std::string &key, unsigned attempt)
{
    if (attempt <= 1)
        return 0;
    const unsigned shift = std::min(attempt - 2, 20u);
    const std::uint64_t backoff =
        std::min(retryBackoffCapMs, retryBackoffBaseMs << shift);
    // Jitter in [0, backoff/2], hashed from (key, attempt): spreads
    // concurrent retries without making reruns nondeterministic.
    const std::uint64_t jitter_range = backoff / 2 + 1;
    const std::uint64_t h =
        cacheKeyDigest(key + "#" + std::to_string(attempt));
    return backoff + h % jitter_range;
}

std::string
jobLabel(const ExperimentJob &job)
{
    std::string label = job.workload.name;
    if (job.smt)
        label += "+" + job.smtWorkload.name;
    label += " x ";
    label += job.prefetcherFactory
                 ? std::string("custom")
                 : prefetcherDisplayName(job.kind);
    if (!job.journalTag.empty())
        label += " [" + job.journalTag + "]";
    return label;
}

std::string
jobReproCommand(const ExperimentJob &job)
{
    if (job.prefetcherFactory) {
        if (!job.journalTag.empty())
            return "# non-CLI job: " + job.journalTag;
        return "# job uses a custom prefetcher factory; no CLI repro";
    }
    std::string cmd =
        "./build/tools/morrigan-sim --workload " + job.workload.name;
    if (job.smt)
        cmd += " --smt-with " + job.smtWorkload.name;
    // The job's spec string is the CLI spelling by construction.
    cmd += " --prefetcher " + job.kind;
    // Print the command only if morrigan-sim's own parse of it --
    // the flag table and the workload names -- rebuilds this job.
    SimConfig cfg;
    for (const ConfigFlag &f : configFlags()) {
        if (auto value = configFlagValue(f, job.cfg)) {
            cmd += std::string(" ") + f.flag;
            if (f.arg)
                cmd += " " + *value;
            applyConfigFlag(cfg, f, value->c_str());
        }
    }
    auto cli = [](const ServerWorkloadParams &w) {
        // A name the CLI does not know names no workload at all.
        return parseWorkloadName(w.name).value_or(
            ServerWorkloadParams{.name = ""});
    };
    const ServerWorkloadParams wl = cli(job.workload);
    const ServerWorkloadParams smt = cli(job.smtWorkload);
    const std::string want =
        experimentKey(job.cfg, job.kind, job.workload,
                      job.smt ? &job.smtWorkload : nullptr);
    const std::string got =
        experimentKey(cfg, job.kind, wl, job.smt ? &smt : nullptr);
    return got == want ? cmd
                       : "# non-CLI job: " + firstKeyField(want, got);
}

CampaignJournal::CampaignJournal(const std::string &path)
{
    if (path.empty())
        return;
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0)
        fatal("cannot open journal '%s': %s", path.c_str(),
              std::strerror(errno));

    std::ifstream ifs(path);
    std::string line;
    std::size_t bad = 0, stale = 0;
    std::uint64_t stale_version = 0;
    while (std::getline(ifs, line)) {
        if (line.empty())
            continue;
        std::string key;
        RunOutcome o;
        std::uint64_t v = 0;
        if (parseJournalLine(line, key, o, &v)) {
            o.fromJournal = true;
            replay_[key] = std::move(o); // last record wins
        } else if (v != 0) {
            ++stale;
            stale_version = v;
        } else {
            ++bad;
        }
    }
    if (stale > 0)
        warn("journal '%s': %zu record(s) use journal schema v%llu "
             "(this build writes v%d); those jobs will rerun",
             path.c_str(), stale,
             static_cast<unsigned long long>(stale_version),
             json::journalSchemaVersion);
    if (bad > 0)
        warn("journal '%s': ignoring %zu unparseable line(s) "
             "(interrupted append); those jobs will rerun",
             path.c_str(), bad);
}

CampaignJournal::~CampaignJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
CampaignJournal::lookup(const std::string &key, RunOutcome &out) const
{
    auto it = replay_.find(key);
    if (it == replay_.end())
        return false;
    out = it->second;
    return true;
}

void
CampaignJournal::record(const std::string &key,
                        const RunOutcome &outcome)
{
    if (fd_ < 0)
        return;
    telemetry::ScopedSpan span(telemetry::Phase::JournalAppend);
    std::ostringstream ss;
    writeJournalLine(ss, key, outcome);
    ss << '\n';
    const std::string line = ss.str();
    // One O_APPEND write per record: concurrent appenders cannot
    // interleave. If the write comes up short (disk full, quota),
    // never append the remainder -- another process's record could
    // land between the fragments and be glued onto ours, corrupting
    // *its* line too. Instead seal the fragment with a newline (so
    // only this unparseable record is lost) and retry the whole
    // record once as a fresh line.
    for (int tries = 0; tries < 2; ++tries) {
        const ssize_t n =
            faultfs::write(fd_, line.data(), line.size());
        if (n == static_cast<ssize_t>(line.size())) {
            if (faultfs::fsync(fd_) != 0)
                warn("journal: fsync failed (%s); the record may "
                     "not survive a crash (that job would rerun on "
                     "resume)",
                     std::strerror(errno));
            telemetry::add(telemetry::Counter::Fsyncs);
            return;
        }
        if (n < 0) {
            warn("journal: write failed (%s); record dropped "
                 "(that job will rerun on resume)",
                 std::strerror(errno));
            return;
        }
        io::writeRetry(fd_, "\n", 1);
    }
    warn("journal: short write persists; record dropped (that job "
         "will rerun on resume)");
    faultfs::fsync(fd_);
    telemetry::add(telemetry::Counter::Fsyncs);
}

Supervisor::Supervisor(SupervisorOptions opt) : opt_(std::move(opt))
{
    if (opt_.maxAttempts == 0)
        opt_.maxAttempts = 1;
}

SupervisorOptions
Supervisor::defaultOptions()
{
    {
        std::lock_guard<std::mutex> lock(defaultOptionsMutex);
        if (defaultOptionsOverride)
            return *defaultOptionsOverride;
    }
    return SupervisorOptions::fromEnv();
}

void
Supervisor::setDefaultOptions(const SupervisorOptions &opt)
{
    std::lock_guard<std::mutex> lock(defaultOptionsMutex);
    defaultOptionsOverride = opt;
}

unsigned
Supervisor::jobs() const
{
    return opt_.jobs > 0 ? opt_.jobs : defaultJobs();
}

namespace
{

/** Stable identity for cache + journal; "" = anonymous. */
std::string
jobKey(const ExperimentJob &job)
{
    if (job.cacheable())
        return experimentKey(job.cfg, job.kind, job.workload,
                             job.smt ? &job.smtWorkload : nullptr);
    if (!job.journalTag.empty())
        return "tag:" + job.journalTag;
    return "";
}

/** Snapshot-store paths for one execution of @p job; empty when the
 * store is off or the job is not eligible. */
JobExecutionOptions
jobOptions(const SupervisorOptions &opt, const ExperimentJob &job,
           const std::string &key)
{
    // Only cacheable jobs snapshot: everything else either cannot be
    // saved (checked runs) or has no stable identity to key the image
    // by (factory prefetchers).
    JobExecutionOptions opts;
    if (!job.cacheable() || opt.snapshotDir.empty())
        return opts;
    opts.checkpointPath = snapshotPath(opt.snapshotDir, "ckpt", key);
    opts.checkpointEvery = opt.checkpointEveryInstructions;
    opts.warmupImagePath = snapshotPath(
        opt.snapshotDir, "warm",
        warmupKey(job.cfg, job.kind, job.workload,
                  job.smt ? &job.smtWorkload : nullptr));
    return opts;
}

/** Watchdog deadline for an attempt, accounting for the progress
 * recorded in the job's checkpoint (if any). */
std::uint64_t
attemptTimeoutMs(const SupervisorOptions &opt, const ExperimentJob &job,
                 const JobExecutionOptions &opts)
{
    if (opt.jobTimeoutMs > 0)
        return opt.jobTimeoutMs;
    std::uint64_t executed = 0;
    SnapshotHeader hdr;
    if (!opts.checkpointPath.empty() &&
        readSnapshotHeader(opts.checkpointPath, hdr))
        executed = hdr.progressInstructions;
    return derivedJobTimeoutMs(job, executed);
}

/** One attempt: queued until @c notBefore, then sized and launched
 * by the scheduler. */
struct Attempt
{
    std::size_t idx = 0; //!< index into the batch
    unsigned number = 1; //!< 1-based attempt number
    Clock::time_point notBefore = {};
    JobExecutionOptions opts = {};
    std::uint64_t timeoutMs = 0;
    Clock::time_point launched = {}, deadline = {};
};

/** An attempt that ended: Ok with its output, or a failure (status,
 * what, signal, stderr tail), retried only if @c retryable. */
struct FinishedAttempt
{
    Attempt attempt;
    RunOutcome outcome;
    bool retryable = true;
};

/** Completion signalling shared by the thread executor and its
 * workers, so an abandoned worker can still finish and notify after
 * the executor is gone. */
struct SchedulerSignal
{
    std::mutex m;
    std::condition_variable cv;
};

/** A worker's own copy of its job and its result slot, shared with
 * the executor: an abandoned (detached) worker may outlive
 * Supervisor::run() and the caller's batch vector, so it must never
 * hold a pointer into them. */
struct ThreadAttempt
{
    ExperimentJob job;
    /** Empty until the worker finishes; guarded by SchedulerSignal::m. */
    std::optional<RunOutcome> outcome;
};

/**
 * Worker threads; contain C++ exceptions only. A std::thread cannot
 * be killed, so a worker past its deadline is abandoned (it may still
 * finish into its private ThreadAttempt, which nothing reads). That
 * timeout is terminal: the abandoned thread may still be executing
 * this very job (two concurrent runs would share process-global
 * state) and keeps occupying a core, so a retry would oversubscribe
 * the worker budget.
 */
class ThreadExecutor
{
  public:
    std::size_t running() const { return active_.size(); }

    void
    launch(const ExperimentJob &job, const std::string &, Attempt a)
    {
        auto att = std::make_shared<ThreadAttempt>(ThreadAttempt{job, {}});
        std::thread th([att, signal = signal_, opts = a.opts] {
            RunOutcome o = executeCaught(att->job, opts);
            {
                std::lock_guard<std::mutex> g(signal->m);
                att->outcome = std::move(o);
            }
            signal->cv.notify_all();
        });
        active_.push_back({std::move(att), std::move(th), std::move(a)});
    }

    Clock::time_point
    nextDeadline() const
    {
        Clock::time_point next = Clock::time_point::max();
        for (const Active &a : active_)
            next = std::min(next, a.attempt.deadline);
        return next;
    }

    void
    wait(Clock::time_point until, std::vector<FinishedAttempt> &done)
    {
        std::unique_lock<std::mutex> lk(signal_->m);
        signal_->cv.wait_until(lk, until, [&] {
            return std::ranges::any_of(active_, [](const Active &a) {
                return a.att->outcome.has_value();
            });
        });
        const Clock::time_point now = Clock::now();
        for (auto it = active_.begin(); it != active_.end();) {
            if (it->att->outcome) {
                it->th.join();
                done.push_back(
                    {std::move(it->attempt), std::move(*it->att->outcome)});
            } else if (now >= it->attempt.deadline) {
                it->th.detach();
                done.push_back(
                    {std::move(it->attempt),
                     failedOutcome(
                         RunStatus::TimedOut,
                         csprintf("exceeded %llu ms watchdog deadline "
                                  "(thread abandoned; timed-out jobs "
                                  "are not retried in thread mode -- "
                                  "use --isolate for hard kills and "
                                  "retries)",
                                  static_cast<unsigned long long>(
                                      it->attempt.timeoutMs))),
                     /*retryable=*/false});
            } else {
                ++it;
                continue;
            }
            it = active_.erase(it);
        }
    }

  private:
    struct Active
    {
        std::shared_ptr<ThreadAttempt> att;
        std::thread th;
        Attempt attempt;
    };

    std::shared_ptr<SchedulerSignal> signal_ =
        std::make_shared<SchedulerSignal>();
    std::vector<Active> active_;
};

/**
 * One fork()ed child per attempt, which sends its outcome back as one
 * journal record. Contains crashes and OOM kills. A child past its
 * deadline is SIGKILLed; the kill really ends the attempt, so its
 * timeout may be retried. The scheduler stays single-threaded in this
 * mode (children provide the parallelism), so fork() never races
 * another of our threads holding a lock.
 */
class ForkExecutor
{
    struct Child
    {
        Attempt attempt;
        std::string key;
        pid_t pid;
        int fd[2];               //!< result pipe, stderr pipe
        std::string buf[2] = {}; //!< what each pipe delivered
        bool watchdogKilled = false;
    };

  public:
    std::size_t running() const { return children_.size(); }

    void
    launch(const ExperimentJob &job, const std::string &key, Attempt a)
    {
        int rp[2], ep[2];
        pid_t pid = -1;
        {
            telemetry::ScopedSpan span(telemetry::Phase::SandboxSpawn);
            if (::pipe(rp) != 0 || ::pipe(ep) != 0)
                fatal("pipe: %s", std::strerror(errno));
            pid = ::fork();
        }
        if (pid < 0)
            fatal("fork: %s", std::strerror(errno));
        if (pid == 0) {
            ::close(rp[0]);
            ::close(ep[0]);
            ::dup2(ep[1], 2);
            ::close(ep[1]);
            runChildJob(job, key, a.opts, rp[1]);
        }
        ::close(rp[1]);
        ::close(ep[1]);
        children_.push_back(Child{std::move(a), key, pid, {rp[0], ep[0]}});
    }

    Clock::time_point
    nextDeadline() const
    {
        Clock::time_point next = Clock::time_point::max();
        for (const Child &c : children_)
            if (!c.watchdogKilled)
                next = std::min(next, c.attempt.deadline);
        return next;
    }

    void
    wait(Clock::time_point until, std::vector<FinishedAttempt> &done)
    {
        // Two entries per child (result, stderr); poll() skips the
        // negative fd of a pipe already at EOF.
        std::vector<pollfd> fds;
        for (const Child &c : children_)
            for (int fd : c.fd)
                fds.push_back({fd, POLLIN, 0});
        const long long wait_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                until - Clock::now())
                .count();
        {
            telemetry::ScopedSpan span(telemetry::Phase::SandboxWait);
            io::pollRetry(fds.data(), static_cast<nfds_t>(fds.size()),
                          static_cast<int>(std::clamp(wait_ms + 1, 0LL,
                                                      60'000LL)));
        }
        for (std::size_t fi = 0; fi < fds.size(); ++fi) {
            if (!(fds[fi].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Child &c = children_[fi / 2];
            char chunk[4096];
            const ssize_t n =
                io::readRetry(c.fd[fi % 2], chunk, sizeof(chunk));
            if (n > 0) {
                c.buf[fi % 2].append(chunk, static_cast<std::size_t>(n));
            } else {
                ::close(c.fd[fi % 2]);
                c.fd[fi % 2] = -1;
            }
        }

        const Clock::time_point now = Clock::now();
        for (auto it = children_.begin(); it != children_.end();) {
            if (it->fd[0] < 0 && it->fd[1] < 0) {
                int status = 0;
                io::waitpidRetry(it->pid, &status, 0);
                done.push_back(classify(*it, status));
                it = children_.erase(it);
                continue;
            }
            if (now >= it->attempt.deadline && !it->watchdogKilled) {
                ::kill(it->pid, SIGKILL);
                it->watchdogKilled = true;
            }
            ++it;
        }
    }

  private:
    /** Diagnose a reaped child from its wait status and its reply. */
    static FinishedAttempt
    classify(Child &c, int status)
    {
        const std::string tail = tailOf(c.buf[1]);
        const int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
        const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        FinishedAttempt f{std::move(c.attempt), {}};
        RunOutcome &o = f.outcome;
        std::string key;
        const bool parsed =
            sig == 0 && parseJournalLine(c.buf[0], key, o, nullptr) &&
            key == c.key;
        if (sig != 0 && c.watchdogKilled)
            o = failedOutcome(RunStatus::TimedOut,
                              csprintf("exceeded %llu ms watchdog "
                                       "deadline (child killed)",
                                       static_cast<unsigned long long>(
                                           f.attempt.timeoutMs)),
                              sig, tail);
        else if (sig != 0)
            o = failedOutcome(RunStatus::Crashed,
                              csprintf("terminated by signal %d (%s)",
                                       sig, strsignal(sig)),
                              sig, tail);
        else if (parsed && !o.ok())
            o = failedOutcome(RunStatus::Failed, o.failure.what, 0, tail);
        else if (!parsed || code != 0)
            o = failedOutcome(RunStatus::Failed,
                              csprintf("child exited with status %d "
                                       "without a parseable result",
                                       code),
                              0, tail);
        return f;
    }

    std::vector<Child> children_;
};

/** One Supervisor::run() call, as the attempt scheduler sees it. */
struct Campaign
{
    const SupervisorOptions &opt;
    const std::vector<ExperimentJob> &batch;
    const std::vector<std::string> &keys;
    std::vector<RunOutcome> &out;
    CampaignJournal &journal;
    ProgressMeter meter;
};

/**
 * The attempt scheduler: run batch indices @p work on @p ex, at most
 * @p slots at a time, until each has a final outcome. It alone holds
 * the pending-attempt queue, sizes each attempt before launch,
 * computes the next wake-up and decides, once per ended attempt,
 * whether to retry or finalise. An executor only launches, waits and
 * reaps: running(), launch(job, key, attempt), nextDeadline() (the
 * earliest watchdog deadline it has yet to act on) and wait(until,
 * done), which blocks until an attempt ends, a deadline passes or
 * @p until, and appends every attempt that ended to @p done.
 */
template <class Executor>
void
scheduleAttempts(Campaign &c, Executor &&ex, unsigned slots,
                 const std::vector<std::size_t> &work)
{
    std::deque<Attempt> pending;
    for (std::size_t w : work)
        pending.push_back({w});

    // Retry, or finalise: publish the outcome the moment it is final,
    // so the journal checkpoints progress job by job (a campaign
    // killed mid-flight resumes with every finished job) and a
    // finished job's mid-run checkpoint, now dead weight, goes.
    auto settle = [&](FinishedAttempt &f) {
        const std::size_t i = f.attempt.idx;
        const unsigned n = f.attempt.number;
        const std::string &key = c.keys[i];
        if (!f.outcome.ok() && f.retryable && n < c.opt.maxAttempts) {
            // Jitter hashed from the job's identity: a rerun of the
            // campaign schedules identically.
            const std::uint64_t delay = retryDelayMs(
                key.empty() ? jobLabel(c.batch[i]) : key, n + 1);
            pending.push_back({i, n + 1,
                               Clock::now() +
                                   std::chrono::milliseconds(delay)});
            c.meter.retryScheduled();
            return;
        }
        RunOutcome &o = c.out[i] = std::move(f.outcome);
        o.attempts = n;
        o.durationMs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - f.attempt.launched)
                .count());
        if (!o.ok()) {
            o.failure.status = o.status;
            o.failure.repro = jobReproCommand(c.batch[i]);
        }
        if (o.ok() && c.opt.useCache && c.batch[i].cacheable())
            ResultCache::global().insert(key, o.output);
        if (!key.empty() && c.journal.enabled())
            c.journal.record(key, o);
        if (o.ok() && !f.attempt.opts.checkpointPath.empty())
            ::unlink(f.attempt.opts.checkpointPath.c_str());
        c.meter.jobDone(jobInstructionBudget(c.batch[i]));
    };

    std::vector<FinishedAttempt> finished;
    while (!pending.empty() || ex.running() > 0) {
        // Launch every eligible attempt a free slot can take. Its
        // deadline is sized to what is left: a retry resuming from
        // the previous attempt's checkpoint gets a budget for the
        // remaining instructions. Both are read before launch, so a
        // forked child and its parent agree on the starting image.
        const Clock::time_point now = Clock::now();
        for (auto it = pending.begin();
             it != pending.end() && ex.running() < slots;) {
            if (it->notBefore > now) {
                ++it;
                continue;
            }
            Attempt a = std::move(*it);
            it = pending.erase(it);
            const ExperimentJob &job = c.batch[a.idx];
            a.opts = jobOptions(c.opt, job, c.keys[a.idx]);
            a.timeoutMs = attemptTimeoutMs(c.opt, job, a.opts);
            a.launched = Clock::now();
            a.deadline =
                a.launched + std::chrono::milliseconds(a.timeoutMs);
            ex.launch(job, c.keys[a.idx], std::move(a));
        }

        // Wake at the next deadline, or at the next retry if a slot
        // is free for it.
        Clock::time_point next = ex.nextDeadline();
        if (ex.running() < slots)
            for (const Attempt &p : pending)
                next = std::min(next, p.notBefore);
        if (ex.running() == 0) {
            telemetry::ScopedSpan span(telemetry::Phase::RetryBackoff);
            std::this_thread::sleep_until(next);
        } else {
            ex.wait(next, finished);
        }
        for (FinishedAttempt &f : finished)
            settle(f);
        finished.clear();
        c.meter.maybePrint(ex.running());
    }
}

} // namespace

std::vector<RunOutcome>
Supervisor::run(const std::vector<ExperimentJob> &batch)
{
    std::vector<RunOutcome> out(batch.size());
    std::vector<std::string> keys(batch.size());
    CampaignJournal journal(opt_.journalPath);
    ResultCache &cache = ResultCache::global();

    // Plan: replay journaled outcomes, serve cache hits, dedupe
    // repeated cacheable keys, execute the rest.
    std::unordered_map<std::string, std::size_t> representative;
    std::vector<std::pair<std::size_t, std::size_t>> copies;
    std::vector<bool> is_copy(batch.size(), false);
    std::vector<std::size_t> work;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const ExperimentJob &job = batch[i];
        keys[i] = jobKey(job);
        if (!keys[i].empty() && journal.lookup(keys[i], out[i]))
            continue;
        if (opt_.useCache && job.cacheable() &&
            cache.lookup(keys[i], out[i].output)) {
            out[i].status = RunStatus::Ok;
            out[i].fromCache = true;
            out[i].attempts = 0;
            if (journal.enabled())
                journal.record(keys[i], out[i]);
            continue;
        }
        if (job.cacheable()) {
            auto [it, fresh] = representative.try_emplace(keys[i], i);
            if (!fresh) {
                copies.emplace_back(i, it->second);
                is_copy[i] = true;
                continue;
            }
        }
        work.push_back(i);
    }

    // Everything the planner did not hand to the scheduler was
    // served without simulating; the progress line reports that
    // share.
    Campaign campaign{opt_, batch, keys, out, journal,
                      ProgressMeter(opt_.progressEveryMs, work.size(),
                                    batch.size() - work.size(),
                                    batch.size())};
    const unsigned slots = std::max(1u, jobs());
    if (opt_.isolate)
        scheduleAttempts(campaign, ForkExecutor{}, slots, work);
    else
        scheduleAttempts(campaign, ThreadExecutor{}, slots, work);

    // A copy carries the representative's result, but it was not
    // simulated for this job: attempts == 0 says so, as for a cache
    // hit.
    for (const auto &[dst, src] : copies) {
        out[dst] = out[src];
        out[dst].attempts = 0;
        out[dst].durationMs = 0;
    }

    // Every job that ends this campaign without a result -- fresh
    // failure or replayed one -- belongs in the manifest the CLIs
    // emit.
    for (std::size_t i = 0; i < batch.size(); ++i)
        if (!out[i].ok() && !is_copy[i])
            FailureManifest::global().add(jobLabel(batch[i]),
                                          out[i].failure,
                                          out[i].attempts,
                                          out[i].durationMs);
    return out;
}

} // namespace morrigan
