#include "experiment.hh"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/logging.hh"
#include "common/stats.hh"

namespace morrigan
{

SimResult
runWorkload(const SimConfig &cfg, const std::string &kind,
            const ServerWorkloadParams &workload)
{
    auto prefetcher = makePrefetcher(kind);
    return runWorkloadWith(cfg, prefetcher.get(), workload);
}

SimResult
runWorkloadWith(const SimConfig &cfg, TlbPrefetcher *prefetcher,
                const ServerWorkloadParams &workload)
{
    ServerWorkload trace(workload);
    Simulator sim(cfg);
    sim.attachWorkload(&trace, 0);
    if (prefetcher)
        sim.attachPrefetcher(prefetcher);
    return sim.run();
}

SimResult
runSmtPair(const SimConfig &cfg, TlbPrefetcher *prefetcher,
           const ServerWorkloadParams &a, const ServerWorkloadParams &b)
{
    ServerWorkload trace_a(a);
    ServerWorkload trace_b(b);
    Simulator sim(cfg);
    sim.attachWorkload(&trace_a, 0);
    sim.attachWorkload(&trace_b, 1);
    if (prefetcher)
        sim.attachPrefetcher(prefetcher);
    return sim.run();
}

std::vector<RunOutcome>
runBatchOutcomes(const std::vector<ExperimentJob> &jobs)
{
    Supervisor supervisor(Supervisor::defaultOptions());
    return supervisor.run(jobs);
}

std::vector<SimResult>
runBatch(const std::vector<ExperimentJob> &jobs)
{
    std::vector<RunOutcome> outcomes = runBatchOutcomes(jobs);
    std::vector<SimResult> results;
    results.reserve(outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        RunOutcome &o = outcomes[i];
        if (!o.ok())
            warn("job '%s' %s after %u attempt(s): %s",
                 jobLabel(jobs[i]).c_str(),
                 runStatusName(o.status), o.attempts,
                 o.failure.what.c_str());
        results.push_back(std::move(o.output.result));
    }
    return results;
}

std::vector<SimResult>
runWorkloads(const SimConfig &cfg, const std::string &kind,
             const std::vector<ServerWorkloadParams> &workloads)
{
    std::vector<ExperimentJob> jobs;
    jobs.reserve(workloads.size());
    for (const ServerWorkloadParams &wl : workloads)
        jobs.push_back(ExperimentJob::of(cfg, kind, wl));
    return runBatch(jobs);
}

std::vector<MissStreamStats>
collectMissStreams(const SimConfig &cfg,
                   const std::vector<ServerWorkloadParams> &workloads)
{
    SimConfig c = cfg;
    c.collectMissStream = true;
    std::vector<ExperimentJob> jobs;
    jobs.reserve(workloads.size());
    for (const ServerWorkloadParams &wl : workloads)
        jobs.push_back(
            ExperimentJob::of(c, "none", wl));
    std::vector<RunOutcome> outcomes = runBatchOutcomes(jobs);
    std::vector<MissStreamStats> streams;
    streams.reserve(outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        RunOutcome &o = outcomes[i];
        if (!o.ok())
            warn("miss-stream job '%s' %s: %s (empty stream "
                 "substituted)",
                 jobLabel(jobs[i]).c_str(),
                 runStatusName(o.status), o.failure.what.c_str());
        streams.emplace_back(o.output.missStream);
    }
    return streams;
}

double
speedupPct(const SimResult &base, const SimResult &opt)
{
    if (base.ipc <= 0.0 || opt.ipc <= 0.0) {
        warn("speedup for '%s' unavailable: %s run missing "
             "(degraded campaign)",
             (base.workload.empty() ? opt.workload : base.workload)
                 .c_str(),
             base.ipc <= 0.0 ? "baseline" : "optimised");
        return std::numeric_limits<double>::quiet_NaN();
    }
    return (opt.ipc / base.ipc - 1.0) * 100.0;
}

double
geomeanSpeedupPct(const std::vector<SimResult> &base,
                  const std::vector<SimResult> &opt)
{
    panic_if(base.size() != opt.size() || base.empty(),
             "mismatched result vectors");
    std::vector<double> ratios;
    ratios.reserve(base.size());
    std::size_t skipped = 0;
    for (std::size_t i = 0; i < base.size(); ++i) {
        if (base[i].ipc <= 0.0 || opt[i].ipc <= 0.0) {
            ++skipped;
            continue;
        }
        ratios.push_back(opt[i].ipc / base[i].ipc);
    }
    if (skipped > 0)
        warn("geomean over %zu/%zu pairs (%zu missing, degraded "
             "campaign)",
             ratios.size(), base.size(), skipped);
    if (ratios.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return (geomean(ratios) - 1.0) * 100.0;
}

BenchScale
benchScale(unsigned max_workloads)
{
    const char *env = std::getenv("MORRIGAN_FULL");
    bool full = env != nullptr && env[0] == '1';
    BenchScale s;
    s.full = full;
    if (full) {
        s.numWorkloads = max_workloads;
        s.warmupInstructions = 2'000'000;
        s.simInstructions = 10'000'000;
    } else {
        s.numWorkloads = std::min(max_workloads, 10u);
        s.warmupInstructions = 1'000'000;
        s.simInstructions = 4'000'000;
    }
    return s;
}

} // namespace morrigan
