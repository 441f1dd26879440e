/**
 * @file
 * The repository benchmark: four workloads, end-to-end metrics from
 * untraced repetitions, per-layer metrics from a separate traced run.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   perfbench --self-test --scratch-dir DIR
 *
 * Prints a human-readable table and, as the last line of stdout, one
 * JSON object {correct, attempted, failed, metrics}. Exit status is 0
 * only when every correctness check passed. See README.md for the
 * metric definitions and why each workload was chosen.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/stats.hh"
#include "common/telemetry.hh"
#include "core/prefetcher_registry.hh"
#include "layers.hh"
#include "mem/memory_hierarchy.hh"
#include "sim/result_cache.hh"
#include "sim/simulator.hh"
#include "sim/supervisor.hh"
#include "tlb/tlb_hierarchy.hh"
#include "workload/server_workload.hh"
#include "workload/workload_factory.hh"

extern char **environ;

using namespace morrigan;
using namespace morrigan::perfbench;

namespace
{

/** Workers of the tournament-grid campaign (at most 2 simulation
 * threads run at once on a 4-core host). */
constexpr unsigned gridWorkers = 2;
/** Standalone set-ups timed after each repetition, so the set-up
 * samples see the same host phases as the rates (setup_s is the median
 * of their kernel-normalised times). */
constexpr unsigned setupSamples = 8;
constexpr unsigned gridSetupSamples = 1;
/** Thread-0 instructions per timed slice of a single simulation. */
constexpr std::uint64_t sliceInstructions = 1 << 16;
/** Budget per repetition of a single simulation: the repetition count
 * is fixed by --seconds, never by host speed (see quietSeconds()). */
constexpr double secondsPerRepetition = 3.0;
/** CalibrationKernel time on a quiet host; it scales the normalised
 * slice times back to seconds (see quietSeconds()). */
constexpr double referenceKernelS = 80e-6;
/** QMM presets of the tournament grid, spread over the suite. */
constexpr unsigned gridPresets[] = {0, 11, 22, 33};

// ---------------------------------------------------------------------
// Workloads

/** One simulation: configuration, prefetcher spec, 1 or 2 streams. */
struct SimJob
{
    SimConfig cfg;
    std::string kind;
    std::vector<ServerWorkloadParams> streams;

    std::uint64_t
    instructions() const
    {
        return cfg.warmupInstructions + cfg.simInstructions;
    }
};

/** The jobs one repetition of a workload runs. */
struct Workload
{
    std::vector<SimJob> jobs;
    /** Tournament grid: jobs[e * presets + p] runs entrants[e] on
     * preset p; entrants[0] is "none". */
    bool grid = false;
    std::vector<std::string> entrants;
    unsigned presets = 1;
};

/** splitmix64 finalizer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Mix the benchmark seed into a preset's generator seed: the
 * simulator receives only generated parameters. */
ServerWorkloadParams
seeded(ServerWorkloadParams p, std::uint64_t seed)
{
    p.seed = mix64(p.seed ^ mix64(seed));
    return p;
}

SimConfig
lengths(std::uint64_t warmup, std::uint64_t measured)
{
    SimConfig cfg;
    cfg.warmupInstructions = warmup;
    cfg.simInstructions = measured;
    return cfg;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "server_1t", "server_smt", "small_code", "tournament_grid"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &w)
{
    w = Workload{};
    const SimConfig single = lengths(2'000'000, 20'000'000);
    if (name == "server_1t") {
        w.jobs.push_back(
            {single, "morrigan", {seeded(qmmWorkloadParams(0), seed)}});
    } else if (name == "server_smt") {
        w.jobs.push_back({single, "morrigan",
                          {seeded(qmmWorkloadParams(0), seed),
                           seeded(qmmWorkloadParams(1), seed)}});
    } else if (name == "small_code") {
        w.jobs.push_back({single, "morrigan",
                          {seeded(specWorkloadParams(0), seed)}});
    } else if (name == "tournament_grid") {
        w.grid = true;
        w.entrants.push_back("none");
        for (const PrefetcherPlugin &p :
             PrefetcherRegistry::global().plugins())
            if (p.tournament)
                w.entrants.push_back(p.name);
        w.presets = std::size(gridPresets);
        const SimConfig cfg = lengths(250'000, 1'000'000);
        for (const std::string &e : w.entrants)
            for (unsigned idx : gridPresets)
                w.jobs.push_back(
                    {cfg, e, {seeded(qmmWorkloadParams(idx), seed)}});
    } else {
        return false;
    }
    return true;
}

/** The "none" twin of a single-simulation workload (speedup base). */
SimJob
baselineOf(const SimJob &job)
{
    SimJob b = job;
    b.kind = "none";
    return b;
}

/** A short differential-checked copy of @p job. */
SimJob
verificationOf(const SimJob &job, bool grid)
{
    SimJob v = job;
    v.cfg.checkLevel = 1;
    v.cfg.warmupInstructions = grid ? 100'000 : 500'000;
    v.cfg.simInstructions = grid ? 400'000 : 2'000'000;
    return v;
}

ExperimentJob
toExperimentJob(const SimJob &job)
{
    if (job.streams.size() == 2)
        return ExperimentJob::smtPair(job.cfg, job.kind, job.streams[0],
                                      job.streams[1]);
    return ExperimentJob::of(job.cfg, job.kind, job.streams[0]);
}

// ---------------------------------------------------------------------
// Assembling and running simulations

/** Decorators a simulation is assembled with. */
enum class Wrap
{
    None,
    /** Slices of sliceInstructions of thread 0, each followed by the
     * calibration kernel (end-to-end). */
    Slices,
    /** Layer timing decorators (traced run). */
    Layers,
};

/** Everything one simulation owns; the simulator is destroyed first. */
struct Assembly
{
    std::unique_ptr<TlbPrefetcher> prefetcher;
    std::unique_ptr<TimedPrefetcher> timedPrefetcher;
    std::vector<std::unique_ptr<ServerWorkload>> streams;
    std::vector<std::unique_ptr<TimedTraceSource>> timedStreams;
    std::unique_ptr<SlicedTraceSource> sliced;
    std::unique_ptr<Simulator> sim;
};

/** Build a job as executeJob() does, with the decorators @p wrap
 * names. */
Assembly
assemble(const SimJob &job, Wrap wrap)
{
    const bool timed = wrap == Wrap::Layers;
    Assembly a;
    a.prefetcher = makePrefetcher(job.kind);
    if (timed && a.prefetcher)
        a.timedPrefetcher =
            std::make_unique<TimedPrefetcher>(*a.prefetcher);
    for (const ServerWorkloadParams &p : job.streams)
        a.streams.push_back(std::make_unique<ServerWorkload>(p));
    a.sim = std::make_unique<Simulator>(job.cfg);
    for (unsigned tid = 0; tid < a.streams.size(); ++tid) {
        TraceSource *src = a.streams[tid].get();
        if (timed) {
            a.timedStreams.push_back(
                std::make_unique<TimedTraceSource>(*src));
            src = a.timedStreams.back().get();
        } else if (wrap == Wrap::Slices && tid == 0) {
            a.sliced =
                std::make_unique<SlicedTraceSource>(*src, sliceInstructions);
            src = a.sliced.get();
        }
        a.sim->attachWorkload(src, tid);
    }
    if (a.timedPrefetcher)
        a.sim->attachPrefetcher(a.timedPrefetcher.get());
    else if (a.prefetcher)
        a.sim->attachPrefetcher(a.prefetcher.get());
    return a;
}

double
seconds(std::uint64_t t0, std::uint64_t t1)
{
    return 1e-9 * static_cast<double>(t1 - t0);
}

struct SetupTime
{
    double rawS = 0.0;
    /** Each job's set-up divided by the calibration kernel's time
     * just before it, times the reference kernel time. */
    double quietS = 0.0;
};

/** Set-up time of every job of a repetition, built one at a time
 * (each is torn down, untimed, before the next is built). */
SetupTime
timeSetup(const std::vector<SimJob> &jobs, CalibrationKernel &kernel)
{
    SetupTime t;
    for (const SimJob &job : jobs) {
        const double kernel_s = 1e-9 * static_cast<double>(kernel.timeNs());
        const std::uint64_t t0 = nowNs();
        Assembly a = assemble(job, Wrap::None);
        const double s = seconds(t0, nowNs());
        t.rawS += s;
        t.quietS += s / kernel_s * referenceKernelS;
    }
    return t;
}

struct TimedSim
{
    SimResult result;
    /** With Wrap::Slices, per slice (the partial last one included):
     * its time and the calibration kernel's. */
    std::vector<double> sliceS, kernelS;
};

TimedSim
runSingle(const SimJob &job, Wrap wrap = Wrap::None)
{
    TimedSim t;
    Assembly a = assemble(job, wrap);
    if (a.sliced)
        a.sliced->start();
    t.result = a.sim->run();
    if (a.sliced) {
        a.sliced->finish();
        for (std::uint64_t ns : a.sliced->sliceNs())
            t.sliceS.push_back(1e-9 * static_cast<double>(ns));
        for (std::uint64_t ns : a.sliced->kernelNs())
            t.kernelS.push_back(1e-9 * static_cast<double>(ns));
    }
    return t;
}

SupervisorOptions
campaignOptions(unsigned workers)
{
    // Built from the defaults, not from the environment: no journal,
    // checkpoint directory, sandbox or retries, and no result cache.
    SupervisorOptions opt;
    opt.jobs = workers;
    opt.useCache = false;
    opt.maxAttempts = 1;
    return opt;
}

struct Campaign
{
    double wallS = 0.0;
    std::vector<RunOutcome> outcomes;
    /** Jobs the supervisor would serve as copies of an identical job
     * of the same batch instead of simulating them. */
    std::uint64_t duplicates = 0;
};

Campaign
runCampaign(const std::vector<SimJob> &jobs, unsigned workers)
{
    std::vector<ExperimentJob> batch;
    std::unordered_set<std::string> keys;
    for (const SimJob &job : jobs) {
        batch.push_back(toExperimentJob(job));
        const ExperimentJob &j = batch.back();
        keys.insert(experimentKey(j.cfg, j.kind, j.workload,
                                  j.smt ? &j.smtWorkload : nullptr));
    }
    Supervisor sup(campaignOptions(workers));
    Campaign c;
    c.duplicates = batch.size() - keys.size();
    const std::uint64_t t0 = nowNs();
    c.outcomes = sup.run(batch);
    c.wallS = seconds(t0, nowNs());
    return c;
}

/** Jobs that did not simulate (cache, journal, in-batch copy). */
std::uint64_t
cacheHits(const Campaign &c)
{
    std::uint64_t n = c.duplicates;
    for (const RunOutcome &o : c.outcomes)
        if (o.fromCache || o.fromJournal)
            ++n;
    return n;
}

/** Totals of one execution of a job list. */
struct Execution
{
    std::vector<SimResult> results;
    std::vector<bool> failed;
    std::uint64_t runNs = 0; //!< sum of per-job run() time
    std::uint64_t instructions = 0;
    std::uint64_t workloadNs = 0;
    std::uint64_t coreNs = 0;
    std::uint64_t engages = 0;
    std::uint64_t requests = 0;
    telemetry::Report tel;
};

/** Run @p jobs on @p workers threads, timing each run(); @p traced
 * attaches the decorators and arms telemetry. */
Execution
runJobs(const std::vector<SimJob> &jobs, unsigned workers, bool traced)
{
    Execution t;
    t.results.resize(jobs.size());
    t.failed.assign(jobs.size(), false);
    std::atomic<std::size_t> next{0};
    std::mutex mutex;

    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= jobs.size())
                return;
            try {
                Assembly a = assemble(
                    jobs[i], traced ? Wrap::Layers : Wrap::None);
                const std::uint64_t t0 = nowNs();
                SimResult r = a.sim->run();
                const std::uint64_t ns = nowNs() - t0;
                std::lock_guard<std::mutex> lock(mutex);
                t.results[i] = std::move(r);
                t.runNs += ns;
                t.instructions += jobs[i].instructions();
                for (const auto &s : a.timedStreams)
                    t.workloadNs += s->ns();
                if (a.timedPrefetcher) {
                    t.coreNs += a.timedPrefetcher->ns();
                    t.engages += a.timedPrefetcher->engages();
                    t.requests += a.timedPrefetcher->requests();
                }
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(mutex);
                std::fprintf(stderr, "job %zu failed: %s\n", i,
                             e.what());
                t.failed[i] = true;
            }
        }
    };

    telemetry::reset();
    telemetry::setEnabled(traced);
    std::vector<std::thread> threads;
    for (unsigned k = 1; k < workers; ++k)
        threads.emplace_back(worker);
    worker();
    for (std::thread &th : threads)
        th.join();
    telemetry::setEnabled(false);
    t.tel = telemetry::snapshot();
    telemetry::reset();
    return t;
}

// ---------------------------------------------------------------------
// Standalone layer replays

struct Replay
{
    std::uint64_t instructions = 0;
    std::uint64_t tlbOps = 0, tlbNs = 0;
    std::uint64_t memOps = 0, memNs = 0;
};

/**
 * Regenerate @p job's stream(s) and replay the translation and
 * cache-reference streams the simulator derives from it (a lookup per
 * new fetch line and per data access, SMT thread offset applied)
 * through a standalone TlbHierarchy::lookup/fill and
 * MemoryHierarchy::access. The generator takes no feedback from the
 * simulator, so the regenerated stream is the run's stream. Only the
 * replay loops are timed, a chunk at a time.
 */
Replay
replayLayers(const SimJob &job)
{
    std::vector<std::unique_ptr<ServerWorkload>> streams;
    for (const ServerWorkloadParams &p : job.streams)
        streams.push_back(std::make_unique<ServerWorkload>(p));
    TlbHierarchy tlbs(job.cfg.tlb);
    MemoryHierarchy mem(job.cfg.mem);

    // Frames are handed out on first touch, as a stand-in for the
    // simulator's page table (the caches take physical addresses).
    std::unordered_map<Vpn, Pfn> frames;
    struct Ref
    {
        Vpn vpn;
        Addr paddr;
        AccessType type;
    };
    constexpr std::size_t chunk = 1 << 16;
    std::vector<Ref> refs;
    refs.reserve(chunk + 64);
    auto record = [&](Addr va, AccessType type) {
        const Vpn vpn = pageOf(va);
        const Pfn pfn = frames.try_emplace(vpn, frames.size()).first->second;
        refs.push_back({vpn, (pfn << pageShift) + pageOffset(va), type});
    };
    Replay r;
    auto flush = [&] {
        const std::uint64_t t0 = nowNs();
        for (const Ref &ref : refs)
            if (tlbs.lookup(ref.vpn, ref.type).level == TlbHitLevel::Miss)
                tlbs.fill(ref.vpn, ref.paddr >> pageShift, ref.type);
        const std::uint64_t t1 = nowNs();
        for (const Ref &ref : refs)
            mem.access(ref.paddr, ref.type);
        const std::uint64_t t2 = nowNs();
        r.tlbNs += t1 - t0;
        r.memNs += t2 - t1;
        r.tlbOps += refs.size();
        r.memOps += refs.size();
        refs.clear();
    };

    constexpr unsigned blockSize = 8;
    TraceRecord block[blockSize];
    Addr lastLine[2] = {~Addr{0}, ~Addr{0}};
    const Addr thread1Offset = job.cfg.smtThread1VpnOffset << pageShift;
    while (r.instructions < job.instructions()) {
        for (unsigned tid = 0; tid < streams.size(); ++tid) {
            const Addr offset = tid == 0 ? 0 : thread1Offset;
            streams[tid]->nextBlock(block, blockSize);
            for (const TraceRecord &rec : block) {
                const Addr pc = rec.pc + offset;
                if (lineOf(pc) != lastLine[tid]) {
                    lastLine[tid] = lineOf(pc);
                    record(pc, AccessType::Instruction);
                }
                if (rec.hasData)
                    record(rec.dataAddr + offset, AccessType::Data);
            }
            r.instructions += blockSize;
        }
        if (refs.size() >= chunk)
            flush();
    }
    flush();
    return r;
}

/** Host time to generate @p job's first stream standalone. */
std::uint64_t
generationNs(const SimJob &job)
{
    ServerWorkload gen(job.streams[0]);
    constexpr unsigned blockSize = 8;
    TraceRecord block[blockSize];
    const std::uint64_t t0 = nowNs();
    for (std::uint64_t i = 0; i < job.instructions(); i += blockSize)
        gen.nextBlock(block, blockSize);
    return nowNs() - t0;
}

// ---------------------------------------------------------------------
// Correctness gate and metric report

std::string
resultJson(const SimResult &r)
{
    std::ostringstream os;
    writeSimResultJson(os, r);
    return os.str();
}

/** Field-for-field equality of two results: the result cache's full-
 * precision serialisation, plus the one field it leaves out. */
bool
sameResult(const SimResult &a, const SimResult &b)
{
    return resultJson(a) == resultJson(b) && a.checkReport == b.checkReport;
}

/** Operations attempted and failed (one operation per simulation). */
struct Gate
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Checks that are not per-operation (cache hits, layer sums). */
    bool consistent = true;

    void
    op(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "FAILED: %s\n", what.c_str());
        }
    }

    void
    require(bool ok, const std::string &what)
    {
        if (!ok) {
            consistent = false;
            std::fprintf(stderr, "FAILED: %s\n", what.c_str());
        }
    }
};

bool
validIpc(const SimResult &r)
{
    return std::isfinite(r.ipc) && r.ipc > 0.0;
}

std::string
label(const SimJob &job)
{
    std::string s = job.kind + " on " + job.streams[0].name;
    if (job.streams.size() == 2)
        s += "+" + job.streams[1].name;
    return s;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    const char *better;
};

struct Report
{
    std::vector<Metric> metrics;

    void
    add(std::string name, double value, std::string unit,
        const char *better)
    {
        metrics.push_back(
            {std::move(name), value, std::move(unit), better});
    }
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Checked short copies of @p w's jobs; one operation each. */
void
verify(const Workload &w, Gate &gate)
{
    std::vector<SimJob> checked;
    for (const SimJob &job : w.jobs)
        checked.push_back(verificationOf(job, w.grid));
    Campaign c = runCampaign(checked, w.grid ? gridWorkers : 1);
    for (std::size_t i = 0; i < checked.size(); ++i) {
        const RunOutcome &o = c.outcomes[i];
        const SimResult &r = o.output.result;
        gate.op(o.ok() && validIpc(r) && r.checkedTranslations > 0 &&
                    r.checkMismatches == 0,
                "check-level 1 verification of " + label(checked[i]) +
                    (o.ok() ? "" : ": " + o.failure.what) +
                    (r.checkReport.empty() ? "" : "\n" + r.checkReport));
    }
}

/**
 * Morrigan over "none" on the same streams: geomean IPC ratio and the
 * ratio of demand page walks (instruction plus data).
 */
void
addMorriganMetrics(const std::vector<SimResult> &base,
                   const std::vector<SimResult> &morrigan, Report &rep)
{
    std::vector<double> ratios;
    double walks = 0.0, base_walks = 0.0;
    for (std::size_t i = 0; i < base.size(); ++i) {
        ratios.push_back(morrigan[i].ipc / base[i].ipc);
        walks += static_cast<double>(morrigan[i].demandWalks);
        base_walks += static_cast<double>(base[i].demandWalks);
    }
    const double speedup = geomean(ratios);
    rep.add("morrigan_speedup", speedup, "x", "higher");
    rep.add("morrigan_walk_ratio", ratio(walks, base_walks), "x",
            "lower");
    std::printf("  Morrigan speedup %+.3f%% over no prefetching "
                "(paper Fig. 15: +7.6%% on 45 QMM traces; this model is "
                "validated only through the synthetic substitutes of "
                "PAPER.md section 2)\n",
                (speedup - 1.0) * 100.0);
}

// ---------------------------------------------------------------------
// End-to-end mode

/**
 * Run time of a single simulation on a quiet host. Each slice's time
 * is divided by the calibration kernel's time right after it, which
 * cancels the host's speed at that moment; the best such ratio of each
 * slice across the repetitions is kept, and the sum is scaled back to
 * seconds by the kernel's quiet-host time. Other tenants of a shared
 * host only ever add time, so the best ratio is the least disturbed.
 * The minimum of more samples reads lower, so the repetition count is
 * fixed.
 */
double
quietSeconds(const std::vector<std::vector<double>> &slices,
             const std::vector<std::vector<double>> &kernels)
{
    double total = 0.0;
    for (std::size_t k = 0; k < slices[0].size(); ++k) {
        double best = slices[0][k] / kernels[0][k];
        for (std::size_t r = 1; r < slices.size(); ++r)
            best = std::min(best, slices[r][k] / kernels[r][k]);
        total += best;
    }
    return total * referenceKernelS;
}

void
endToEnd(const Workload &w, double budget_s, Gate &gate, Report &rep)
{
    std::uint64_t instrs = 0;
    for (const SimJob &job : w.jobs)
        instrs += job.instructions();

    // An untimed set-up first: the allocator's first requests of a
    // process are slower than every later one.
    CalibrationKernel kernel;
    timeSetup(w.jobs, kernel);

    // Timed repetitions, telemetry off. The grid repeats until the
    // budget is spent, a single simulation a fixed number of times.
    const unsigned single_reps = std::max(
        2u, static_cast<unsigned>(budget_s / secondsPerRepetition));
    std::vector<double> setups, raw_setups;
    std::vector<double> rates, durations;
    std::vector<std::vector<double>> slices, kernels; // [repetition][slice]
    std::vector<SimResult> first;
    std::uint64_t hits = 0;
    const std::uint64_t start = nowNs();
    do {
        std::vector<SimResult> results;
        const std::uint64_t t0 = nowNs();
        if (w.grid) {
            Campaign c = runCampaign(w.jobs, gridWorkers);
            hits += cacheHits(c);
            rates.push_back(static_cast<double>(instrs) / c.wallS / 1e6);
            for (std::size_t i = 0; i < w.jobs.size(); ++i) {
                const RunOutcome &o = c.outcomes[i];
                results.push_back(o.output.result);
                if (!o.ok())
                    std::fprintf(stderr, "%s: %s\n",
                                 label(w.jobs[i]).c_str(),
                                 o.failure.what.c_str());
            }
        } else {
            TimedSim t = runSingle(w.jobs[0], Wrap::Slices);
            double run_s = 0.0;
            for (double s : t.sliceS)
                run_s += s;
            rates.push_back(static_cast<double>(instrs) / run_s / 1e6);
            results.push_back(t.result);
            slices.push_back(std::move(t.sliceS));
            kernels.push_back(std::move(t.kernelS));
        }
        durations.push_back(seconds(t0, nowNs()));
        for (std::size_t i = 0; i < results.size(); ++i)
            gate.op(validIpc(results[i]) &&
                        (first.empty() ||
                         sameResult(results[i], first[i])),
                    label(w.jobs[i]) + " (repetition " +
                        std::to_string(rates.size()) + ")");
        if (first.empty())
            first = results;
        for (unsigned k = 0; k < (w.grid ? gridSetupSamples : setupSamples);
             ++k) {
            const SetupTime st = timeSetup(w.jobs, kernel);
            setups.push_back(st.quietS);
            raw_setups.push_back(st.rawS);
        }
    } while (w.grid
                 ? seconds(start, nowNs()) + median(durations) <= budget_s
                 : rates.size() < single_reps);
    const double rss = peakRssMb();

    double rate = median(rates);
    if (!w.grid) {
        bool aligned = true;
        for (const std::vector<double> &rep : slices)
            aligned &= rep.size() == slices[0].size();
        gate.require(aligned, "repetitions differ in their slice count");
        if (aligned)
            rate = static_cast<double>(instrs) /
                   quietSeconds(slices, kernels) / 1e6;
        std::vector<double> all_kernels;
        for (const std::vector<double> &rep : kernels)
            all_kernels.insert(all_kernels.end(), rep.begin(), rep.end());
        std::printf("  median repetition %.3f Minstr/s (host interference "
                    "included); quiet-host estimate %.3f Minstr/s over %zu "
                    "slices; calibration kernel median %.2f us, reference "
                    "%.2f us\n",
                    median(rates), rate, slices[0].size(),
                    1e6 * median(all_kernels), 1e6 * referenceKernelS);
    }
    gate.require(hits == 0, "campaign served " + std::to_string(hits) +
                                " jobs without simulating them");

    // Untimed: the speedup base and the checked verification pass.
    std::vector<SimResult> base, morrigan;
    if (w.grid) {
        for (std::size_t e = 0; e < w.entrants.size(); ++e)
            if (w.entrants[e] == "morrigan")
                for (unsigned p = 0; p < w.presets; ++p) {
                    base.push_back(first[p]);
                    morrigan.push_back(first[e * w.presets + p]);
                }
    } else {
        const SimJob b = baselineOf(w.jobs[0]);
        base.push_back(runSingle(b).result);
        gate.op(validIpc(base[0]), label(b));
        morrigan.push_back(first[0]);
    }
    verify(w, gate);

    std::vector<double> ipcs;
    for (const SimResult &r : first)
        ipcs.push_back(validIpc(r) ? r.ipc : 1e-300);

    rep.add("sim_minstr_per_s", rate, "Minstr/s", "higher");
    rep.add("setup_s", median(setups), "s", "lower");
    std::printf("  set-up: median %.6f s as measured, %.6f s normalised "
                "by the calibration kernel, over %zu samples\n",
                median(raw_setups), median(setups), setups.size());
    rep.add("peak_rss_mb", rss, "MB", "lower");
    rep.add("ipc", geomean(ipcs), "instr/cycle", "higher");
    if (gate.failed == 0)
        addMorriganMetrics(base, morrigan, rep);
    std::printf("  %zu timed repetition(s) of %.1f M instructions; "
                "%zu set-up samples\n",
                rates.size(), static_cast<double>(instrs) / 1e6,
                setups.size());
}

// ---------------------------------------------------------------------
// Per-layer (traced) mode

void
layers(const Workload &w, Gate &gate, Report &rep)
{
    // Untraced runs bracket the traced one on the same executor, so
    // warm-up and drift of the host cancel in the overhead estimate.
    // The supervisor campaign supplies the job statistics.
    const unsigned workers = w.grid ? gridWorkers : 1;
    const Execution before = runJobs(w.jobs, workers, false);
    const Execution tr = runJobs(w.jobs, workers, true);
    const Execution after = runJobs(w.jobs, workers, false);
    const Campaign campaign = runCampaign(w.jobs, workers);
    std::vector<double> job_s;
    double busy_s = 0.0;
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
        const SimResult &plain = before.results[i];
        const RunOutcome &o = campaign.outcomes[i];
        gate.op(!before.failed[i] && validIpc(plain),
                label(w.jobs[i]) + ": untraced");
        gate.op(!tr.failed[i] && sameResult(plain, tr.results[i]),
                label(w.jobs[i]) + ": traced result equals untraced");
        gate.op(!after.failed[i] && sameResult(plain, after.results[i]),
                label(w.jobs[i]) + ": untraced repetition");
        gate.op(o.ok() && sameResult(plain, o.output.result),
                label(w.jobs[i]) + ": supervised result equals direct");
        job_s.push_back(1e-3 * static_cast<double>(o.durationMs));
        busy_s += job_s.back();
    }
    const std::uint64_t hits = cacheHits(campaign);
    gate.require(hits == 0, "campaign served " + std::to_string(hits) +
                                " jobs without simulating them");
    const double wall_s = campaign.wallS;

    // Replays and regeneration, once per distinct stream.
    Replay rp;
    std::uint64_t regen_ns = 0;
    for (unsigned p = 0; p < w.presets; ++p) {
        const Replay one = replayLayers(w.jobs[p]);
        rp.instructions += one.instructions;
        rp.tlbOps += one.tlbOps;
        rp.tlbNs += one.tlbNs;
        rp.memOps += one.memOps;
        rp.memNs += one.memNs;
        if (w.grid)
            regen_ns += (w.entrants.size() - 1) * generationNs(w.jobs[p]);
    }
    verify(w, gate);

    const double instr = static_cast<double>(tr.instructions);
    auto per_instr = [&](std::uint64_t ns) {
        return static_cast<double>(ns) / instr;
    };
    auto span_ns = [&](telemetry::Phase ph) {
        return tr.tel.phase(ph).totalNs;
    };
    const double traced = per_instr(tr.runNs);
    const double workload = per_instr(tr.workloadNs);
    const double core = per_instr(tr.coreNs);
    const double demand = per_instr(span_ns(telemetry::Phase::DemandWalk));
    const double data = per_instr(span_ns(telemetry::Phase::DataWalk));
    const double pf = per_instr(span_ns(telemetry::Phase::PrefetchWalk));
    const double other = traced - workload - core - demand - data - pf;
    gate.require(other >= 0.0, "attributed layers exceed the traced run");
    const double untraced =
        0.5 * static_cast<double>(before.runNs + after.runNs) / instr;

    // Simulated counts over the measured phase of every job.
    double minstr = 0.0, cycles = 0.0, itlb = 0.0, istlb = 0.0,
           dstlb = 0.0, l1i = 0.0, istlb_cycles = 0.0;
    std::uint64_t pb_hits = 0, istlb_misses = 0, pf_walks = 0,
                  demand_walks = 0, data_walks = 0, walk_refs = 0;
    for (const SimResult &r : tr.results) {
        const double n = static_cast<double>(r.instructions);
        minstr += n;
        cycles += r.cycles;
        itlb += r.itlbMpki * n;
        istlb += r.istlbMpki * n;
        dstlb += r.dstlbMpki * n;
        l1i += r.l1iMpki * n;
        istlb_cycles += r.istlbCycleFraction * r.cycles;
        pb_hits += r.pbHits;
        istlb_misses += r.istlbMisses;
        pf_walks += r.prefetchWalks;
        demand_walks += r.demandWalksInstr;
        data_walks += r.demandWalks - r.demandWalksInstr;
        walk_refs += r.demandWalkRefs + r.prefetchWalkRefs;
    }
    auto pki = [&](std::uint64_t n) {
        return 1000.0 * static_cast<double>(n) / minstr;
    };

    // Entrants that issue no prefetch walk on some workload.
    std::uint64_t silent = 0;
    for (std::size_t e = 0; e < (w.grid ? w.entrants.size() : 1); ++e) {
        if (w.jobs[e * w.presets].kind == "none")
            continue;
        bool quiet = false;
        for (unsigned p = 0; p < w.presets; ++p)
            quiet |= tr.results[e * w.presets + p].prefetchWalks == 0;
        silent += quiet;
    }

    std::sort(job_s.begin(), job_s.end());
    rep.add("workload.ns_per_instr", workload, "ns", "lower");
    rep.add("workload.share", ratio(workload, traced), "fraction",
            "lower");
    rep.add("workload.regen_share",
            w.grid ? 1e-9 * static_cast<double>(regen_ns) / busy_s : 0.0,
            "fraction", "lower");
    rep.add("core.engages_pki",
            1000.0 * static_cast<double>(tr.engages) / instr, "1/kinstr",
            "lower");
    rep.add("core.ns_per_engage",
            ratio(static_cast<double>(tr.coreNs),
                  static_cast<double>(tr.engages)),
            "ns", "lower");
    rep.add("core.requests_per_engage",
            ratio(static_cast<double>(tr.requests),
                  static_cast<double>(tr.engages)),
            "count", "lower");
    rep.add("core.ns_per_instr", core, "ns", "lower");
    rep.add("core.accuracy",
            ratio(static_cast<double>(pb_hits),
                  static_cast<double>(pf_walks)),
            "fraction", "higher");
    rep.add("core.silent_entrants", static_cast<double>(silent), "count",
            "lower");
    rep.add("vm.demand_walk_ns_per_instr", demand, "ns", "lower");
    rep.add("vm.data_walk_ns_per_instr", data, "ns", "lower");
    rep.add("vm.prefetch_walk_ns_per_instr", pf, "ns", "lower");
    rep.add("vm.demand_walks_pki", pki(demand_walks), "1/kinstr", "lower");
    rep.add("vm.data_walks_pki", pki(data_walks), "1/kinstr", "lower");
    rep.add("vm.prefetch_walks_pki", pki(pf_walks), "1/kinstr", "lower");
    rep.add("vm.walk_refs_pki", pki(walk_refs), "1/kinstr", "lower");
    rep.add("tlb.itlb_mpki", itlb / minstr, "1/kinstr", "lower");
    rep.add("tlb.istlb_mpki", istlb / minstr, "1/kinstr", "lower");
    rep.add("tlb.dstlb_mpki", dstlb / minstr, "1/kinstr", "lower");
    rep.add("tlb.pb_coverage",
            ratio(static_cast<double>(pb_hits),
                  static_cast<double>(istlb_misses)),
            "fraction", "higher");
    rep.add("tlb.lookup_ns",
            ratio(static_cast<double>(rp.tlbNs),
                  static_cast<double>(rp.tlbOps)),
            "ns", "lower");
    rep.add("tlb.replay_ns_per_instr",
            ratio(static_cast<double>(rp.tlbNs),
                  static_cast<double>(rp.instructions)),
            "ns", "lower");
    rep.add("mem.l1i_mpki", l1i / minstr, "1/kinstr", "lower");
    rep.add("mem.access_ns",
            ratio(static_cast<double>(rp.memNs),
                  static_cast<double>(rp.memOps)),
            "ns", "lower");
    rep.add("mem.replay_ns_per_instr",
            ratio(static_cast<double>(rp.memNs),
                  static_cast<double>(rp.instructions)),
            "ns", "lower");
    rep.add("sim.traced_ns_per_instr", traced, "ns", "lower");
    rep.add("sim.other_ns_per_instr", other, "ns", "lower");
    rep.add("sim.istlb_cycle_frac", istlb_cycles / cycles, "fraction",
            "lower");
    rep.add("sim.trace_overhead_pct", (traced / untraced - 1.0) * 100.0,
            "%", "lower");
    rep.add("sim.job_s_p50", median(job_s), "s", "lower");
    rep.add("sim.job_s_max", job_s.back(), "s", "lower");
    rep.add("sim.pool_busy_frac", busy_s / (workers * wall_s), "fraction",
            "higher");
    rep.add("sim.cache_hits", static_cast<double>(hits), "count",
            "lower");

    std::printf("  layer sum: workload %.2f + core %.2f + demand walks "
                "%.2f + data walks %.2f + prefetch walks %.2f + other "
                "%.2f = traced %.2f ns/instr\n",
                workload, core, demand, data, pf, other, traced);
    std::printf("  of the other %.2f ns/instr, standalone replays "
                "estimate TLB lookups at %.2f and cache accesses at "
                "%.2f\n",
                other, ratio(static_cast<double>(rp.tlbNs),
                             static_cast<double>(rp.instructions)),
                ratio(static_cast<double>(rp.memNs),
                      static_cast<double>(rp.instructions)));
}

// ---------------------------------------------------------------------
// Self-test

/**
 * Every decorator virtual is exercised: a wrapped run equals the
 * unwrapped run field for field, and so does a wrapped run resumed
 * from a checkpoint a wrapped run wrote (save/restore forwarding).
 */
bool
selfTest(const std::string &scratch_dir)
{
    const std::string snap = scratch_dir + "/perfbench-selftest.snap";
    std::vector<SimJob> jobs;
    Workload w;
    for (const std::string &name : workloadNames()) {
        makeWorkload(name, 1, w);
        if (w.grid) {
            for (std::size_t e = 0; e < w.entrants.size(); ++e)
                jobs.push_back(w.jobs[e * w.presets]);
        } else {
            jobs.push_back(w.jobs[0]);
        }
    }
    bool ok = true;
    for (SimJob job : jobs) {
        job.cfg.warmupInstructions = 100'000;
        job.cfg.simInstructions = 400'000;
        // Context switches reach onContextSwitch through the decorator.
        job.cfg.contextSwitchInterval = 150'000;
        const SimResult plain = runSingle(job).result;
        const SimResult sliced = runSingle(job, Wrap::Slices).result;

        Assembly writer = assemble(job, Wrap::Layers);
        writer.sim->setCheckpointing(snap, 300'000);
        const SimResult wrapped = writer.sim->run();

        Assembly reader = assemble(job, Wrap::Layers);
        reader.sim->restoreCheckpoint(snap);
        const SimResult resumed = reader.sim->run();
        std::remove(snap.c_str());

        bool same = validIpc(plain) && plain.contextSwitches > 0 &&
                    sameResult(plain, sliced) &&
                    sameResult(plain, wrapped) &&
                    sameResult(plain, resumed) &&
                    reader.sim->progressInstructions() ==
                        job.instructions();
        if (writer.prefetcher)
            same = same &&
                   writer.timedPrefetcher->storageBits() ==
                       writer.prefetcher->storageBits() &&
                   writer.timedPrefetcher->frequencyStackResets() ==
                       writer.prefetcher->frequencyStackResets() &&
                   std::strcmp(writer.timedPrefetcher->name(),
                               writer.prefetcher->name()) == 0;
        std::printf("  self-test %-40s %s\n", label(job).c_str(),
                    same ? "ok" : "MISMATCH");
        ok &= same;
    }
    return ok;
}

// ---------------------------------------------------------------------
// Command line and output

/** Pin the environment: no MORRIGAN_* variable (worker count, result
 * cache, journal, warmup cache, checkpoints, sandboxing, check levels,
 * fault injection, retries) may change what is measured. */
void
clearMorriganEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "MORRIGAN_", 9) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    for (const std::string &n : names)
        unsetenv(n.c_str());
}

void
printResult(const Gate &gate, const Report &rep)
{
    bool finite = true;
    for (const Metric &m : rep.metrics) {
        finite &= std::isfinite(m.value);
        std::printf("  %-32s %16.6f %-12s (%s is better)\n",
                    m.name.c_str(), m.value, m.unit.c_str(), m.better);
    }
    const bool correct = gate.failed == 0 && gate.consistent && finite;
    std::printf("  operations: %llu attempted, %llu failed; outputs %s\n",
                static_cast<unsigned long long>(gate.attempted),
                static_cast<unsigned long long>(gate.failed),
                correct ? "correct" : "NOT correct");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(gate.attempted),
                static_cast<unsigned long long>(gate.failed));
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "       perfbench --self-test --scratch-dir DIR\n"
                 "workloads: server_1t server_smt small_code "
                 "tournament_grid\n",
                 why);
    return 2;
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    if (!s || !*s)
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (*end != '\0' || errno == ERANGE || *s == '-')
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    clearMorriganEnvironment();
    std::string workload, scratch = ".";
    std::uint64_t seed = 1, secs = 10, trace = 0;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--self-test") {
            self_test = true;
            continue;
        }
        if (!v)
            return usage(("missing value for " + a).c_str());
        ++i;
        if (a == "--workload")
            workload = v;
        else if (a == "--scratch-dir")
            scratch = v;
        else if ((a == "--seed" && parseU64(v, seed)) ||
                 (a == "--seconds" && parseU64(v, secs) && secs > 0) ||
                 (a == "--trace" && parseU64(v, trace) && trace <= 1))
            continue;
        else
            return usage(("bad argument " + a + " " + v).c_str());
    }
    if (self_test)
        return selfTest(scratch) ? 0 : 1;

    Workload w;
    if (!makeWorkload(workload, seed, w))
        return usage(("unknown workload '" + workload + "'").c_str());
    std::printf("perfbench %s seed %llu (%s run)\n", workload.c_str(),
                static_cast<unsigned long long>(seed),
                trace ? "traced per-layer" : "untraced end-to-end");
    Gate gate;
    Report rep;
    if (trace)
        layers(w, gate, rep);
    else
        endToEnd(w, static_cast<double>(secs), gate, rep);
    printResult(gate, rep);
    std::fflush(stdout);
    return gate.failed == 0 && gate.consistent ? 0 : 1;
}
