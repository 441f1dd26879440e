/**
 * @file
 * Command-line simulator driver.
 *
 * The ChampSim-style front end for the library: pick a workload, a
 * prefetcher and any configuration overrides, run, and get the full
 * result record (optionally with every component counter and
 * the miss-stream characterisation).
 *
 * Examples:
 *   morrigan_sim --workload qmm_07 --prefetcher morrigan
 *   morrigan_sim --workload java:cassandra --prefetcher mp \
 *                --instructions 10000000
 *   morrigan_sim --workload qmm_00 --smt-with qmm_01 \
 *                --prefetcher morrigan --smt-scaled
 *   morrigan_sim --workload qmm_03 --prefetcher morrigan \
 *                --pt-depth 5 --stats --miss-stream
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "check/invariants.hh"
#include "common/build_info.hh"
#include "common/fault_fs.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/telemetry.hh"
#include "core/morrigan.hh"
#include "core/prefetcher_registry.hh"
#include "sim/config_flags.hh"
#include "sim/experiment.hh"
#include "sim/result_cache.hh"
#include "sim/simulator.hh"
#include "workload/workload_factory.hh"

using namespace morrigan;

namespace
{

void
usage()
{
    std::printf(
        "morrigan_sim -- instruction TLB prefetching simulator\n"
        "\n"
        "  --workload NAME       qmm_NN, spec_NN, or java:NAME\n"
        "  --smt-with NAME       colocate a second workload (SMT)\n"
        "  --prefetcher SPEC     none, a registered prefetcher, or\n"
        "                        a 'a+b' hybrid composition\n"
        "  --smt-scaled          double Morrigan's tables (SMT)\n");
    for (const ConfigFlag &f : configFlags()) {
        const std::string flag =
            f.arg ? std::string(f.flag) + " " + f.arg : f.flag;
        std::printf("  %-22s%s\n", flag.c_str(), f.help);
    }
    std::printf(
        "  --check               cross-check every demand "
        "translation against the golden reference model "
        "(MORRIGAN_CHECK=1 does the same)\n"
        "  --stats               print every component counter\n"
        "  --stats-json FILE     write the versioned JSON stats "
        "document\n"
        "  --trace FILE          JSONL prefetch lifecycle event log\n"
        "  --interval N          sample metrics every N measured "
        "instructions\n"
        "  --interval-out FILE   stream interval epochs to FILE\n"
        "  --interval-csv        CSV instead of JSONL for "
        "--interval-out\n"
        "  --baseline            also run the no-prefetch baseline "
        "and report speedup\n"
        "  --sweep               run the whole QMM suite (baseline "
        "+ prefetcher) and report speedups\n"
        "  --checkpoint FILE     autosave a snapshot to FILE and, "
        "when FILE already holds a valid snapshot, resume the run "
        "from it (single-run mode)\n"
        "  --telemetry           collect self-profiling phase "
        "timers/counters; adds a telemetry section (with "
        "instrs_per_sec) to --stats-json\n"
        "  --trace-events FILE   record every span and export Chrome "
        "trace-event JSON to FILE at exit (chrome://tracing, "
        "Perfetto); implies --telemetry\n"
        "  --version             print build identity (git SHA, "
        "compiler, flags) and exit\n"
        "\n"
        "campaign options (batch modes; --checkpoint-every also "
        "sets the --checkpoint interval):\n");
    SupervisorOptions::printFlagUsage();
    std::printf("\nregistered prefetchers (compose with '+'):\n");
    for (const PrefetcherPlugin &p :
         PrefetcherRegistry::global().plugins()) {
        std::printf("  %-14s %-18s %s\n", p.name.c_str(),
                    p.displayName.c_str(), p.description.c_str());
    }
}

void
printResult(const SimResult &r)
{
    std::printf("workload            %s\n", r.workload.c_str());
    std::printf("prefetcher          %s\n", r.prefetcher.c_str());
    std::printf("instructions        %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("cycles              %.0f\n", r.cycles);
    std::printf("IPC                 %.4f\n", r.ipc);
    std::printf("L1I MPKI            %.2f\n", r.l1iMpki);
    std::printf("I-TLB MPKI          %.2f\n", r.itlbMpki);
    std::printf("iSTLB MPKI          %.2f\n", r.istlbMpki);
    std::printf("dSTLB MPKI          %.2f\n", r.dstlbMpki);
    std::printf("iSTLB cycle share   %.1f%%\n",
                r.istlbCycleFraction * 100.0);
    std::printf("PB hits             %llu (IRIP %llu / SDP %llu / "
                "I$ %llu)\n",
                static_cast<unsigned long long>(r.pbHits),
                static_cast<unsigned long long>(r.pbHitsIrip),
                static_cast<unsigned long long>(r.pbHitsSdp),
                static_cast<unsigned long long>(r.pbHitsICache));
    std::printf("miss coverage       %.1f%%\n", r.coverage * 100.0);
    std::printf("demand walks        %llu (instr %llu)\n",
                static_cast<unsigned long long>(r.demandWalks),
                static_cast<unsigned long long>(r.demandWalksInstr));
    std::printf("demand walk refs    %llu (instr %llu)\n",
                static_cast<unsigned long long>(r.demandWalkRefs),
                static_cast<unsigned long long>(
                    r.demandWalkRefsInstr));
    std::printf("prefetch walks      %llu (refs %llu)\n",
                static_cast<unsigned long long>(r.prefetchWalks),
                static_cast<unsigned long long>(r.prefetchWalkRefs));
    std::printf("walk latency        instr %.0f / data %.0f "
                "cycles\n",
                r.meanDemandWalkLatencyInstr,
                r.meanDemandWalkLatencyData);
    if (r.contextSwitches > 0)
        std::printf("context switches    %llu\n",
                    static_cast<unsigned long long>(
                        r.contextSwitches));
}

/**
 * The full --stats-json document: schema header, run identity, the
 * run's configuration, the result record (the campaign journal's),
 * every component counter record, and -- when enabled -- the
 * prefetch lifecycle summary and the interval epoch ring.
 */
void
writeStatsJsonDocument(std::ostream &os, Simulator &sim,
                       const SimResult &r, double run_seconds)
{
    json::Writer w(os);
    w.beginObject();
    w.kv("schema", "morrigan-stats");
    w.kv("version", json::statsSchemaVersion);
    // Deterministic per binary, so safe in byte-compared documents.
    w.key("build_info").rawValue([](std::ostream &o) {
        json::Writer bw(o);
        writeBuildInfoJson(bw);
    });
    w.kv("workload", r.workload);
    w.kv("prefetcher", r.prefetcher);
    w.key("config").beginObject();
    json::writeFields(w, sim.config());
    w.endObject();
    w.key("result").rawValue(
        [&](std::ostream &o) { writeSimResultJson(o, r); });
    w.key("stats");
    sim.writeStatsJson(w);
    if (sim.tracer())
        w.key("trace_summary").rawValue([&](std::ostream &o) {
            sim.tracer()->writeSummaryJson(o);
        });
    if (sim.intervalSampler())
        w.key("intervals").rawValue([&](std::ostream &o) {
            sim.intervalSampler()->writeRingJson(o);
        });
    // Wall-clock figures are nondeterministic, so this section only
    // appears when the user armed --telemetry: byte-comparing
    // documents (the CI resume-identity check) stays valid by
    // default.
    if (telemetry::enabled())
        w.key("telemetry").rawValue([&](std::ostream &o) {
            json::Writer tw(o);
            tw.beginObject();
            tw.kv("run_seconds", run_seconds);
            tw.kv("instrs_per_sec",
                  run_seconds > 0.0
                      ? static_cast<double>(r.instructions) /
                            run_seconds
                      : 0.0);
            tw.kv("peak_rss_mb", telemetry::peakRssMb());
            tw.key("report").rawValue([](std::ostream &ro) {
                json::Writer rw(ro);
                telemetry::writeReportJson(rw,
                                           telemetry::snapshot());
            });
            tw.endObject();
        });
    // Batch jobs (--baseline) that failed permanently: degraded
    // campaigns must say what is missing.
    if (FailureManifest::global().size() > 0)
        w.key("failures").rawValue([&](std::ostream &o) {
            FailureManifest::global().writeJson(o);
        });
    w.endObject();
    os << '\n';
}

/** Open @p path for writing, or die naming @p flag. */
void
openOutput(std::ofstream &os, const std::string &path, const char *flag)
{
    os.open(path);
    if (!os)
        fatal("cannot open %s file '%s'", flag, path.c_str());
}

/** Export the span buffer as Chrome trace-event JSON (all exits). */
void
exportTraceEvents(const std::string &path)
{
    if (path.empty())
        return;
    std::string err;
    if (!telemetry::writeChromeTrace(path, &err))
        warn("cannot write --trace-events file: %s", err.c_str());
    else
        std::fprintf(stderr,
                     "trace events written to %s (load in "
                     "chrome://tracing or Perfetto)\n",
                     path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    // Die on a MORRIGAN_FAULT_FS typo before any work happens, not
    // at the first journal/snapshot write (or never).
    faultfs::initFromEnv();
    std::string workload_name = "qmm_00";
    std::string smt_name;
    std::string prefetcher_name = "morrigan";
    SimConfig cfg;
    bool smt_scaled = false;
    bool dump_stats = false;
    bool with_baseline = false;
    bool sweep = false;
    std::string stats_json_path;
    std::string trace_path;
    std::string interval_out_path;
    std::uint64_t interval = 0;
    bool interval_csv = false;
    std::string checkpoint_path;
    bool telemetry_on = false;
    std::string trace_events_path;
    // Campaign resilience policy: env defaults, overridden by the
    // flags below, installed process-wide for every batch.
    SupervisorOptions sup = Supervisor::defaultOptions();

    // MORRIGAN_CHECK=1 is the environment spelling of --check. The
    // env is resolved here, at the CLI boundary, so SimConfig (and
    // with it every experiment cache key) stays a pure function of
    // the flags.
    if (const char *e = std::getenv("MORRIGAN_CHECK"))
        if (*e != '\0' && std::string(e) != "0")
            cfg.checkLevel = 1;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--version") {
            std::printf("%s\n", buildInfoLine().c_str());
            return 0;
        } else if (arg == "--telemetry") {
            telemetry_on = true;
        } else if (arg == "--trace-events") {
            trace_events_path = next();
            telemetry_on = true;
        } else if (arg == "--workload") {
            workload_name = next();
        } else if (arg == "--smt-with") {
            smt_name = next();
        } else if (arg == "--prefetcher") {
            prefetcher_name = next();
        } else if (arg == "--smt-scaled") {
            smt_scaled = true;
        } else if (const ConfigFlag *f = findConfigFlag(arg)) {
            const std::string error =
                applyConfigFlag(cfg, *f, f->arg ? next() : nullptr);
            if (!error.empty())
                fatal("%s", error.c_str());
        } else if (arg == "--check") {
            cfg.checkLevel = std::max(cfg.checkLevel, 1);
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--stats-json") {
            stats_json_path = next();
        } else if (arg == "--trace") {
            trace_path = next();
        } else if (arg == "--interval") {
            interval =
                parseU64OrDie(arg, next(), 1, std::uint64_t{1} << 40);
        } else if (arg == "--interval-out") {
            interval_out_path = next();
        } else if (arg == "--interval-csv") {
            interval_csv = true;
        } else if (arg == "--baseline") {
            with_baseline = true;
        } else if (arg == "--sweep") {
            sweep = true;
        } else if (arg == "--checkpoint") {
            checkpoint_path = next();
        } else if (!sup.applyFlag(arg, next)) {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage();
            return 1;
        }
    }

    Supervisor::setDefaultOptions(sup);

    if (telemetry_on)
        telemetry::setEnabled(true);
    if (!trace_events_path.empty())
        telemetry::setTracing(true);

    if (cfg.checkLevel > 0) {
        // Arm the structural invariant hooks to the same level
        // unless the user pinned MORRIGAN_CHECK_LEVEL themselves.
        // The env is read lazily on first use, which is after this.
        setenv("MORRIGAN_CHECK_LEVEL",
               std::to_string(cfg.checkLevel).c_str(),
               /*overwrite=*/0);
    }

    std::string spec_err = checkPrefetcherSpec(prefetcher_name);
    if (!spec_err.empty()) {
        std::fprintf(stderr, "%s\n", spec_err.c_str());
        return 1;
    }
    // Morrigan variants honour --smt-scaled; everything else comes
    // from the registry.
    const bool scaled_morrigan =
        prefetcher_name == "morrigan" && smt_scaled;
    auto scaled_factory = [] {
        return std::make_unique<MorriganPrefetcher>(
            MorriganParams{}.smtScaled());
    };

    // --sweep: the whole QMM suite, baseline + chosen prefetcher,
    // as one parallel batch through the shared pool and result
    // cache. Per-run observability flags don't apply here.
    if (sweep) {
        SimConfig sweep_cfg = cfg;
        sweep_cfg.collectMissStream = false;

        std::vector<ExperimentJob> jobs;
        for (unsigned i = 0; i < numQmmWorkloads; ++i)
            jobs.push_back(ExperimentJob::of(
                sweep_cfg, "none",
                qmmWorkloadParams(i)));
        for (unsigned i = 0; i < numQmmWorkloads; ++i) {
            ExperimentJob job = ExperimentJob::of(
                sweep_cfg, prefetcher_name, qmmWorkloadParams(i));
            if (scaled_morrigan) {
                job.prefetcherFactory = scaled_factory;
                // Factory jobs are uncacheable; give them a stable
                // tag naming every key field (PB size, walker, ...)
                // so --journal resumes them, and only under the
                // configuration that recorded them.
                job.journalTag =
                    "sweep:smt-scaled:" +
                    experimentKey(sweep_cfg, "morrigan",
                                  qmmWorkloadParams(i));
            }
            jobs.push_back(std::move(job));
        }
        std::vector<RunOutcome> outcomes = runBatchOutcomes(jobs);
        std::vector<SimResult> base, opt;
        for (unsigned i = 0; i < numQmmWorkloads; ++i)
            base.push_back(outcomes[i].output.result);
        for (unsigned i = 0; i < numQmmWorkloads; ++i)
            opt.push_back(
                outcomes[numQmmWorkloads + i].output.result);

        std::printf("-- QMM suite sweep: %s vs baseline "
                    "(%u workloads, %u jobs) --\n",
                    prefetcher_name.c_str(), numQmmWorkloads,
                    Supervisor().jobs());
        std::printf("%-10s %10s %10s %9s\n", "workload", "base IPC",
                    "opt IPC", "speedup");
        unsigned failed_rows = 0;
        for (unsigned i = 0; i < numQmmWorkloads; ++i) {
            const RunOutcome &bo = outcomes[i];
            const RunOutcome &oo = outcomes[numQmmWorkloads + i];
            if (!bo.ok() || !oo.ok()) {
                ++failed_rows;
                std::printf("%-10s %10s %10s %9s  (%s)\n",
                            qmmWorkloadParams(i).name.c_str(), "-",
                            "-", "-",
                            runStatusName(!bo.ok() ? bo.status
                                                   : oo.status));
                continue;
            }
            std::printf("%-10s %10.4f %10.4f %8.2f%%\n",
                        base[i].workload.c_str(), base[i].ipc,
                        opt[i].ipc, speedupPct(base[i], opt[i]));
        }
        const double geomean_pct = geomeanSpeedupPct(base, opt);
        std::printf("geomean speedup     %.2f%%\n", geomean_pct);

        // Degraded-mode report: every permanently failed job, with
        // its repro, on stderr; machine-readable in --stats-json.
        const auto failures = FailureManifest::global().entries();
        if (!failures.empty()) {
            std::fprintf(stderr,
                         "%zu job(s) failed permanently:\n",
                         failures.size());
            for (const auto &f : failures)
                std::fprintf(stderr, "  [%s] %s: %s\n    repro: %s\n",
                             runStatusName(f.failure.status),
                             f.label.c_str(),
                             f.failure.what.c_str(),
                             f.failure.repro.c_str());
        }
        if (!stats_json_path.empty()) {
            std::ofstream ofs;
            openOutput(ofs, stats_json_path, "--stats-json");
            json::Writer w(ofs);
            w.beginObject();
            w.kv("schema", "morrigan-stats");
            w.kv("version", json::statsSchemaVersion);
            w.key("build_info").rawValue([](std::ostream &o) {
                json::Writer bw(o);
                writeBuildInfoJson(bw);
            });
            w.kv("mode", "sweep");
            w.kv("prefetcher", prefetcher_name);
            w.key("rows").beginArray();
            for (unsigned i = 0; i < numQmmWorkloads; ++i) {
                const RunOutcome &bo = outcomes[i];
                const RunOutcome &oo =
                    outcomes[numQmmWorkloads + i];
                w.beginObject();
                w.kv("workload", qmmWorkloadParams(i).name);
                w.kv("ok", bo.ok() && oo.ok());
                if (bo.ok() && oo.ok()) {
                    w.kv("base_ipc", base[i].ipc);
                    w.kv("opt_ipc", opt[i].ipc);
                    w.kv("speedup_pct",
                         speedupPct(base[i], opt[i]));
                }
                w.endObject();
            }
            w.endArray();
            w.kv("geomean_speedup_pct", geomean_pct);
            if (telemetry::enabled())
                w.key("telemetry").rawValue([](std::ostream &o) {
                    json::Writer tw(o);
                    telemetry::writeReportJson(
                        tw, telemetry::snapshot());
                });
            if (FailureManifest::global().size() > 0)
                w.key("failures").rawValue([&](std::ostream &o) {
                    FailureManifest::global().writeJson(o);
                });
            w.endObject();
            ofs << '\n';
        }

        exportTraceEvents(trace_events_path);

        if (cfg.checkLevel > 0) {
            std::uint64_t checked = 0, mismatched = 0;
            for (const RunOutcome &o : outcomes) {
                if (!o.ok())
                    continue;
                const SimResult &sr = o.output.result;
                checked += sr.checkedTranslations;
                mismatched += sr.checkMismatches;
                if (!sr.checkReport.empty())
                    std::fprintf(stderr, "[%s] %s",
                                 sr.workload.c_str(),
                                 sr.checkReport.c_str());
            }
            std::printf("diff-check          %llu translations, "
                        "%llu mismatches\n",
                        static_cast<unsigned long long>(checked),
                        static_cast<unsigned long long>(mismatched));
            if (mismatched > 0 ||
                morrigan::check::invariantViolations() > 0)
                return 1;
        }
        return failed_rows > 0 ? 2 : 0;
    }

    auto workload = [](const std::string &name) {
        auto params = parseWorkloadName(name);
        if (!params) {
            std::fprintf(stderr, "unknown workload %s\n", name.c_str());
            std::exit(1);
        }
        return *params;
    };
    const ServerWorkloadParams wl = workload(workload_name);
    ExperimentJob job =
        smt_name.empty()
            ? ExperimentJob::of(cfg, prefetcher_name, wl)
            : ExperimentJob::smtPair(cfg, prefetcher_name, wl,
                                     workload(smt_name));
    if (scaled_morrigan)
        job.prefetcherFactory = scaled_factory;

    // Observability wiring: lifecycle tracing, interval sampling and
    // the JSON stats document are all opt-in and independent, except
    // that --interval implies the tracer (for per-component counts).
    std::ofstream trace_ofs, interval_ofs;
    if (!trace_path.empty())
        openOutput(trace_ofs, trace_path, "--trace");
    if (interval == 0 && (!interval_out_path.empty() || interval_csv))
        fatal("--interval-out/--interval-csv require --interval N");
    if (interval > 0 && !interval_out_path.empty())
        openOutput(interval_ofs, interval_out_path, "--interval-out");
    auto build = [&] {
        JobAssembly a = buildJob(job);
        if (trace_ofs.is_open())
            a.sim->enableTracer(&trace_ofs);
        else if (!stats_json_path.empty() || interval > 0)
            a.sim->enableTracer();
        if (interval > 0) {
            IntervalSampler &sampler =
                a.sim->enableIntervalSampler(interval);
            if (interval_ofs.is_open())
                sampler.setSink(&interval_ofs,
                                interval_csv ? IntervalFormat::Csv
                                             : IntervalFormat::Jsonl);
        }
        return a;
    };
    JobAssembly assembly = build();

    // Checkpoint/resume (single-run mode): a valid snapshot at the
    // given path means a previous invocation of this command was
    // interrupted -- resume it; a corrupt, stale or mismatched one
    // is discarded and the run starts over. Either way the run
    // autosaves so the *next* interruption also resumes. The final
    // result is bit-identical to an uninterrupted run.
    if (!checkpoint_path.empty()) {
        if (restoreOrRebuild(assembly, checkpoint_path, "checkpoint",
                             build))
            std::fprintf(
                stderr,
                "resuming from checkpoint %s (%llu / %llu "
                "instructions)\n",
                checkpoint_path.c_str(),
                static_cast<unsigned long long>(
                    assembly.sim->progressInstructions()),
                static_cast<unsigned long long>(
                    assembly.sim->totalInstructions()));
        assembly.sim->setCheckpointing(
            checkpoint_path, sup.checkpointEveryInstructions);
    }
    Simulator &sim = *assembly.sim;

    const std::uint64_t run_begin_ns = telemetry::nowNs();
    SimResult r = sim.run();
    const double run_seconds =
        1e-9 *
        static_cast<double>(telemetry::nowNs() - run_begin_ns);
    printResult(r);
    if (telemetry_on && run_seconds > 0.0)
        std::printf("sim throughput      %.2fM instr/s "
                    "(%.2fs wall)\n",
                    static_cast<double>(r.instructions) /
                        run_seconds / 1e6,
                    run_seconds);

    // The run finished; the checkpoint would only make a rerun of
    // this command replay the tail of *this* run instead of
    // simulating afresh.
    if (!checkpoint_path.empty())
        ::unlink(checkpoint_path.c_str());

    if (!stats_json_path.empty()) {
        std::ofstream ofs;
        openOutput(ofs, stats_json_path, "--stats-json");
        writeStatsJsonDocument(ofs, sim, r, run_seconds);
    }

    if (with_baseline) {
        // The baseline is a cacheable job: route it through the
        // supervisor so a journaled invocation (--journal /
        // MORRIGAN_JOURNAL) replays it rather than re-simulating.
        SimConfig base_cfg = cfg;
        base_cfg.collectMissStream = false;
        ExperimentJob base =
            job.smt ? ExperimentJob::smtPair(base_cfg, "none", wl,
                                             job.smtWorkload)
                    : ExperimentJob::of(base_cfg, "none", wl);
        SimResult b = runBatch({base}).front();
        std::printf("baseline IPC        %.4f\n", b.ipc);
        std::printf("speedup             %.2f%%\n",
                    speedupPct(b, r));
    }

    if (cfg.collectMissStream) {
        const MissStreamStats ms(sim.missStream());
        std::printf("\n-- iSTLB miss stream --\n");
        std::printf("misses              %llu (%zu distinct pages)\n",
                    static_cast<unsigned long long>(
                        ms.totalMisses()),
                    ms.distinctPages());
        std::printf("pages for 90%%       %zu\n",
                    ms.pagesCoveringFraction(0.9));
        std::printf("delta CDF @10       %.1f%%\n",
                    100.0 * ms.deltaCdfAt(10));
        std::printf("top successor prob  %.2f\n",
                    ms.successorProbability(0));
    }

    if (dump_stats) {
        std::printf("\n-- component statistics --\n");
        sim.writeStats(std::cout);
    }

    exportTraceEvents(trace_events_path);

    if (cfg.checkLevel > 0) {
        std::printf("diff-check          %llu translations, "
                    "%llu mismatches\n",
                    static_cast<unsigned long long>(
                        r.checkedTranslations),
                    static_cast<unsigned long long>(
                        r.checkMismatches));
        if (!r.checkReport.empty())
            std::fprintf(stderr, "%s", r.checkReport.c_str());
        std::uint64_t structural =
            morrigan::check::invariantViolations();
        if (structural > 0)
            std::fprintf(stderr,
                         "%llu structural invariant violation(s)\n",
                         static_cast<unsigned long long>(structural));
        if (r.checkMismatches > 0 || structural > 0)
            return 1;
    }
    return 0;
}
