/**
 * @file
 * Example: characterise the iSTLB miss stream of a server workload.
 *
 * Reproduces the Section 3.3 methodology on one workload: run the
 * baseline system, record every instruction STLB miss, and print the
 * delta locality, page-level skew and successor statistics that
 * motivated Morrigan's design (Findings 1-3).
 *
 *   ./build/examples/istlb_characterization [workload-index]
 */

#include <cstdio>
#include <cstdlib>

#include "sim/simulator.hh"
#include "workload/miss_stream_stats.hh"
#include "workload/workload_factory.hh"

using namespace morrigan;

int
main(int argc, char **argv)
{
    unsigned index = 0;
    if (argc > 1)
        index = static_cast<unsigned>(std::atoi(argv[1]));
    if (index >= numQmmWorkloads) {
        std::fprintf(stderr, "workload index must be < %u\n",
                     numQmmWorkloads);
        return 1;
    }

    SimConfig cfg;
    cfg.warmupInstructions = 1'000'000;
    cfg.simInstructions = 6'000'000;
    cfg.collectMissStream = true;

    ServerWorkloadParams wl = qmmWorkloadParams(index);
    ServerWorkload trace(wl);
    Simulator sim(cfg);
    sim.attachWorkload(&trace, 0);
    SimResult r = sim.run();
    const MissStreamStats ms(sim.missStream());

    std::printf("workload %s: %llu iSTLB misses over %llu "
                "instructions (%.2f MPKI)\n",
                wl.name.c_str(),
                static_cast<unsigned long long>(ms.totalMisses()),
                static_cast<unsigned long long>(r.instructions),
                r.istlbMpki);

    std::printf("\nFinding 1 -- spatial locality of consecutive "
                "misses:\n");
    for (std::uint64_t bound : {1ull, 10ull, 100ull, 1000ull}) {
        std::printf("  |delta| <= %-5llu : %5.1f%% of misses\n",
                    static_cast<unsigned long long>(bound),
                    100.0 * ms.deltaCdfAt(bound));
    }

    std::printf("\nFinding 2 -- page-level skew:\n");
    std::printf("  distinct missing pages : %zu\n",
                ms.distinctPages());
    for (double frac : {0.5, 0.75, 0.9}) {
        std::printf("  pages covering %3.0f%%   : %zu\n",
                    frac * 100, ms.pagesCoveringFraction(frac));
    }

    std::printf("\nFinding 3 -- successor stability (top-50 "
                "pages):\n");
    std::printf("  P(most frequent successor)  = %.2f\n",
                ms.successorProbability(0));
    std::printf("  P(2nd most frequent)        = %.2f\n",
                ms.successorProbability(1));
    std::printf("  P(3rd most frequent)        = %.2f\n",
                ms.successorProbability(2));
    std::printf("  P(less-frequent tail)       = %.2f\n",
                ms.successorTailProbability(3));

    std::printf("\nsuccessor fan-out buckets (share of missing "
                "pages):\n");
    std::printf("  1-2: %.2f   3-4: %.2f   5-8: %.2f   >8: %.2f\n",
                ms.successorCountFraction(1, 2),
                ms.successorCountFraction(3, 4),
                ms.successorCountFraction(5, 8),
                ms.successorCountFraction(9, 1u << 30));
    return 0;
}
