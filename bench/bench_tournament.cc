/**
 * @file
 * ISO-storage prefetcher tournament -- a figure beyond the paper.
 *
 * Every plugin the registry flags as a tournament entrant (the
 * hardware-budget configurations that fire on the iSTLB miss stream:
 * the paper's SP, DP and ISO-storage MP, Morrigan and Morrigan-mono,
 * plus the modern competitors FNL+MMA, MANA and FDIP) and one
 * Morrigan hybrid composition are run over the shared workload suite
 * against the no-prefetching baseline, and ranked by geomean speedup.
 * Three companion sections report the instruction demand-walk
 * reduction (the paper's MPKI-
 * reduction proxy: PB prefetching eliminates walks, not misses),
 * the systemwide prefetch accuracy (PB hits per prefetch walk) and
 * each entrant's hardware budget.
 *
 * Liveness gate: an entrant that issues no prefetch walk over the
 * whole suite measures only the PB-probe latency, so the bench names
 * it on stderr and exits 1 after writing its rows.
 *
 * The emitted BENCH_Tournament.json is gated against
 * bench/golden/ by the CI `tournament` job.
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hh"
#include "core/prefetcher_registry.hh"

using namespace morrigan;
using namespace morrigan::bench;

int
main()
{
    BenchScale scale = benchScale(45);
    SimConfig cfg = scaledConfig(scale);
    const std::vector<ServerWorkloadParams> suite =
        qmmParams(workloadIndices(scale));

    // Entrants: every registered hardware-budget plugin, plus a
    // Morrigan hybrid (SP is stateless, so the composition stays at
    // Morrigan-mono's ISO budget).
    std::vector<std::string> entrants;
    for (const PrefetcherPlugin &p :
         PrefetcherRegistry::global().plugins()) {
        if (p.tournament)
            entrants.push_back(p.name);
    }
    entrants.push_back("morrigan-mono+sp");

    header("Tournament", "ISO-storage tournament: geomean speedup",
           scale);
    std::vector<SimResult> base = runWorkloads(cfg, "none", suite);
    std::uint64_t base_walks = 0;
    for (const SimResult &r : base)
        base_walks += r.demandWalksInstr;

    struct Entrant
    {
        std::string display;
        double speedupPct = 0.0;
        double walkReductionPct = 0.0;
        double accuracyPct = 0.0;
        double storageKb = 0.0;
    };
    std::vector<Entrant> ranked;
    std::vector<std::string> silent;
    for (const std::string &spec : entrants) {
        std::vector<SimResult> runs = runWorkloads(cfg, spec, suite);
        Entrant e;
        e.display = prefetcherDisplayName(spec);
        e.speedupPct = geomeanSpeedupPct(base, runs);
        std::uint64_t walks = 0, pb_hits = 0, pf_walks = 0;
        for (const SimResult &r : runs) {
            walks += r.demandWalksInstr;
            pb_hits += r.pbHits;
            pf_walks += r.prefetchWalks;
        }
        if (pf_walks == 0)
            silent.push_back(e.display + " (" + spec + ")");
        e.walkReductionPct =
            100.0 * (1.0 - static_cast<double>(walks) /
                               static_cast<double>(
                                   std::max<std::uint64_t>(
                                       1, base_walks)));
        e.accuracyPct = 100.0 * static_cast<double>(pb_hits) /
                        static_cast<double>(
                            std::max<std::uint64_t>(1, pf_walks));
        e.storageKb = makePrefetcher(spec)->storageBits() / 8192.0;
        ranked.push_back(std::move(e));
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const Entrant &a, const Entrant &b) {
                         return a.speedupPct > b.speedupPct;
                     });

    // Ranks live in the note column: the golden gate keys rows by
    // (section, label) and compares values, so a reshuffle shows up
    // as value drift rather than a spurious label mismatch.
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        std::string note = "rank " + std::to_string(i + 1);
        row(ranked[i].display, ranked[i].speedupPct, "%",
            note.c_str());
    }

    header("Tournament-walks",
           "instruction demand page-walk reduction vs baseline",
           scale);
    for (const Entrant &e : ranked)
        row(e.display, e.walkReductionPct, "%", "");

    header("Tournament-accuracy",
           "prefetch accuracy: PB hits per prefetch walk", scale);
    for (const Entrant &e : ranked)
        row(e.display, e.accuracyPct, "%", "");

    header("Tournament-storage", "hardware budget per entrant",
           scale);
    for (const Entrant &e : ranked)
        row(e.display, e.storageKb, "KB",
            e.storageKb == 0.0 ? "stateless" : "");

    for (const std::string &name : silent)
        std::fprintf(stderr,
                     "liveness: entrant %s issued no prefetch walk\n",
                     name.c_str());
    return silent.empty() ? 0 : 1;
}
