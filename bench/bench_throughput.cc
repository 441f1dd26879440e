/**
 * @file
 * Simulator throughput grid: how many simulated instructions per
 * wall-clock second the engine itself sustains, across the
 * configurations that dominate campaign cost -- baseline vs Morrigan,
 * single-thread vs SMT, unchecked vs differential-checked -- plus the
 * telemetry overhead contract (enabled < 5%, disabled < 1%; see
 * src/common/telemetry.hh and DESIGN.md §13).
 *
 * This is the host-performance baseline ROADMAP item 1 (hot-loop
 * speed) measures against: the golden copy in
 * bench/golden/BENCH_Throughput.json is gated one-sidedly in CI
 * (compare_bench_json.py --min-ratio 0.7), so only a real slowdown
 * fails -- faster is always fine, and machine-to-machine variance is
 * absorbed by the ratio floor.
 *
 * Cells run through executeJob() directly (no result cache, no
 * supervisor) so every measurement simulates for real; each is
 * best-of-2 to shave scheduler noise.
 */

#include "bench_util.hh"

#include "common/telemetry.hh"
#include "sim/job.hh"

using namespace morrigan;
using namespace morrigan::bench;

namespace
{

/** Simulated M instructions per wall second for one job, best of
 * @p reps fresh runs. */
double
measureMips(const ExperimentJob &job, int reps = 2)
{
    const double instrs = static_cast<double>(
        job.cfg.warmupInstructions + job.cfg.simInstructions);
    double best = 0.0;
    for (int i = 0; i < reps; ++i) {
        const std::uint64_t t0 = telemetry::nowNs();
        executeJob(job);
        const std::uint64_t t1 = telemetry::nowNs();
        const double secs = 1e-9 * static_cast<double>(t1 - t0);
        if (secs > 0.0)
            best = std::max(best, instrs / secs / 1e6);
    }
    return best;
}

} // namespace

int
main()
{
    BenchScale scale = benchScale(1);
    header("Throughput",
           "simulator wall-clock throughput (M simulated instr/s)",
           scale);
    SimConfig cfg = scaledConfig(scale);
    const ServerWorkloadParams wa = qmmWorkloadParams(0);
    const ServerWorkloadParams wb = qmmWorkloadParams(1);

    // One untimed run first: the early grid cells otherwise pay the
    // host's cold start (CPU frequency ramp, allocator/page-cache
    // warm-up) and read systematically slower than the late ones.
    executeJob(ExperimentJob::of(cfg, "morrigan", wa));

    row("baseline-1t",
        measureMips(ExperimentJob::of(cfg, "none", wa)),
        "Minstr/s", "no prefetcher, single thread");
    const double morrigan_1t = measureMips(
        ExperimentJob::of(cfg, "morrigan", wa));
    row("morrigan-1t", morrigan_1t, "Minstr/s",
        "Morrigan composite, single thread");
    row("morrigan-smt",
        measureMips(ExperimentJob::smtPair(
            cfg, "morrigan", wa, wb)),
        "Minstr/s", "Morrigan, two SMT workloads");
    SimConfig checked = cfg;
    checked.checkLevel = 1;
    row("morrigan-checked",
        measureMips(ExperimentJob::of(checked,
                                      "morrigan", wa)),
        "Minstr/s", "with the differential reference checker");

    // Telemetry overhead contract. The grid above ran with telemetry
    // in its default (disabled) state; re-measure the same cell with
    // collection armed. Only the throughputs are golden-gated rows --
    // an overhead *percentage* would gate backwards under the
    // one-sided min-ratio rule (bigger would pass).
    telemetry::setEnabled(true);
    const double telemetry_on = measureMips(
        ExperimentJob::of(cfg, "morrigan", wa));
    telemetry::setEnabled(false);
    telemetry::reset();
    row("morrigan-1t-telemetry", telemetry_on, "Minstr/s",
        "same cell with span/counter collection armed");

    if (morrigan_1t > 0.0 && telemetry_on > 0.0) {
        const double overhead_pct =
            (morrigan_1t / telemetry_on - 1.0) * 100.0;
        std::printf("  (telemetry-enabled overhead: %+.1f%% vs "
                    "disabled; contract is < 5%% on an unloaded "
                    "host -- run-to-run noise can swamp it)\n",
                    overhead_pct);
    }
    return 0;
}
