#include "job.hh"

#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/telemetry.hh"

namespace morrigan
{

ExperimentJob
ExperimentJob::of(const SimConfig &cfg, const std::string &kind,
                  const ServerWorkloadParams &workload)
{
    ExperimentJob job;
    job.cfg = cfg;
    job.kind = kind;
    job.workload = workload;
    return job;
}

ExperimentJob
ExperimentJob::with(
    const SimConfig &cfg,
    std::function<std::unique_ptr<TlbPrefetcher>()> factory,
    const ServerWorkloadParams &workload)
{
    ExperimentJob job;
    job.cfg = cfg;
    job.workload = workload;
    job.prefetcherFactory = std::move(factory);
    return job;
}

ExperimentJob
ExperimentJob::smtPair(const SimConfig &cfg, const std::string &kind,
                       const ServerWorkloadParams &a,
                       const ServerWorkloadParams &b)
{
    ExperimentJob job = of(cfg, kind, a);
    job.smt = true;
    job.smtWorkload = b;
    return job;
}

ExperimentJob
ExperimentJob::smtPairWith(
    const SimConfig &cfg,
    std::function<std::unique_ptr<TlbPrefetcher>()> factory,
    const ServerWorkloadParams &a, const ServerWorkloadParams &b)
{
    ExperimentJob job = with(cfg, std::move(factory), a);
    job.smt = true;
    job.smtWorkload = b;
    return job;
}

JobAssembly
buildJob(const ExperimentJob &job)
{
    JobAssembly a;
    a.prefetcher = job.prefetcherFactory ? job.prefetcherFactory()
                                         : makePrefetcher(job.kind);
    a.trace = std::make_unique<ServerWorkload>(job.workload);
    a.sim = std::make_unique<Simulator>(job.cfg);
    a.sim->attachWorkload(a.trace.get(), 0);
    if (job.smt) {
        a.smtTrace =
            std::make_unique<ServerWorkload>(job.smtWorkload);
        a.sim->attachWorkload(a.smtTrace.get(), 1);
    }
    if (a.prefetcher)
        a.sim->attachPrefetcher(a.prefetcher.get());
    return a;
}

bool
restoreOrRebuild(JobAssembly &a, const std::string &path,
                 const char *what,
                 const std::function<JobAssembly()> &rebuild)
{
    if (path.empty() || ::access(path.c_str(), F_OK) != 0)
        return false;
    try {
        a.sim->restoreCheckpoint(path);
        return true;
    } catch (const SnapshotError &e) {
        warn("discarding %s %s: %s", what, path.c_str(), e.what());
        a = rebuild();
        return false;
    }
}

ExperimentOutput
executeJob(const ExperimentJob &job, const JobExecutionOptions &opts)
{
    telemetry::ScopedSpan job_span(telemetry::Phase::WorkerRun);
    const auto rebuild = [&job] { return buildJob(job); };
    JobAssembly a = rebuild();

    // Restore chain: the job's own checkpoint (mid-run, usually
    // furthest along), else its warmup image, else from scratch.
    {
        telemetry::ScopedSpan span(telemetry::Phase::SimRestore);
        if (!restoreOrRebuild(a, opts.checkpointPath, "checkpoint",
                              rebuild) &&
            !opts.warmupImagePath.empty())
            telemetry::add(
                restoreOrRebuild(a, opts.warmupImagePath,
                                 "warmup image", rebuild)
                    ? telemetry::Counter::WarmupImageHits
                    : telemetry::Counter::WarmupImageMisses);
    }
    // run() publishes the image only when it crosses the warmup
    // boundary: a no-op for a run restored past warmup.
    a.sim->setWarmupImagePath(opts.warmupImagePath);
    a.sim->setCheckpointing(opts.checkpointPath, opts.checkpointEvery);

    return {a.sim->run(), a.sim->missStream()};
}

unsigned
parseJobsValue(const char *what, const char *s)
{
    if (!s || *s == '\0' ||
        !std::isdigit(static_cast<unsigned char>(*s)))
        fatal("%s: '%s' is not a positive integer", what,
              s ? s : "");
    errno = 0;
    char *end = nullptr;
    unsigned long v = std::strtoul(s, &end, 10);
    if (*end != '\0')
        fatal("%s: trailing junk in '%s'", what, s);
    if (errno == ERANGE || v == 0 || v > 1024)
        fatal("%s: %s out of range [1, 1024]", what, s);
    return static_cast<unsigned>(v);
}

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("MORRIGAN_JOBS"))
        return parseJobsValue("MORRIGAN_JOBS", env);
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace morrigan
