/**
 * @file
 * Table 1: system configuration. Prints the simulated configuration
 * so runs are auditable against the paper's table.
 */

#include <cstdio>

#include "sim/sim_config.hh"

using namespace morrigan;

int
main()
{
    SimConfig cfg;
    std::printf("Table 1: System configuration "
                "(paper value in parentheses)\n");
    std::printf("%-22s %s\n", "Component", "Description");

    auto tlb_line = [](const char *name, const TlbParams &p,
                       const char *paper) {
        std::printf("%-22s %u-entry, %u-way, %llu-cycle (%s)\n", name,
                    p.entries, p.ways,
                    static_cast<unsigned long long>(p.latency), paper);
    };
    tlb_line("L1 I-TLB", cfg.tlb.itlb, "128-entry, 8-way, 1-cycle");
    tlb_line("L1 D-TLB", cfg.tlb.dtlb, "64-entry, 4-way, 1-cycle");
    tlb_line("L2 TLB (STLB)", cfg.tlb.stlb,
             "1536-entry, 6-way, 8-cycle");

    const PscParams &psc = cfg.walker.psc;
    std::printf("%-22s PML4 %u-entry FA, PDP %u-entry FA, PD "
                "%u-entry %u-way, %llu-cycle "
                "(3-level split PSC, 2-cycle)\n",
                "Page Structure Caches", psc.pml4Entries,
                psc.pdpEntries, psc.pdEntries, pscPdWays,
                static_cast<unsigned long long>(psc.latency));
    // The walker's ports bound the walks in flight, which is what the
    // STLB's MSHRs bound in the paper's system.
    std::printf("%-22s %u ports: concurrent walks, the STLB MSHR "
                "(1 walk/cycle, 4-entry STLB MSHR)\n",
                "Page walker", cfg.walker.ports);
    std::printf("%-22s %u-entry, fully assoc, %llu-cycle "
                "(64-entry, fully assoc, 2-cycle)\n",
                "Prefetch Buffer (PB)", cfg.pbEntries,
                static_cast<unsigned long long>(pbLatency));

    auto cache_line = [](const char *name, const CacheParams &p,
                         const char *paper) {
        std::printf("%-22s %uKB, %u-way, %llu-cycle, MSHRs not "
                    "modelled (%s)\n",
                    name, p.sizeBytes / 1024, p.ways,
                    static_cast<unsigned long long>(p.latency), paper);
    };
    cache_line("L1 I-Cache", cfg.mem.l1i,
               "32KB, 8-way, 4-cycle, 8-entry MSHR, next-line "
               "prefetcher");
    cache_line("L1 D-Cache", cfg.mem.l1d,
               "32KB, 8-way, 4-cycle, 8-entry MSHR");
    cache_line("L2 Cache", cfg.mem.l2,
               "512KB, 8-way, 8-cycle, 32-entry MSHR, SPP");
    cache_line("LLC (per core)", cfg.mem.llc,
               "2MB, 16-way, 10-cycle, 64-entry MSHR");

    std::printf("%-22s tRP=tRCD=tCAS=%llu core cycles, %u banks "
                "(tRP=tRCD=tCAS=12, 12.8 GB/s)\n", "DRAM",
                static_cast<unsigned long long>(dramTParam),
                cfg.mem.dram.banks);
    std::printf("%-22s %u-wide, data-MLP factor %.2f, fetch overlap "
                "%.2f (4-wide OoO, hashed perceptron BP)\n",
                "Core", coreWidth, dataMlpFactor, fetchOverlapFactor);
    return 0;
}
