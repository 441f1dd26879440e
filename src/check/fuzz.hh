/**
 * @file
 * Deterministic config/workload fuzzer.
 *
 * Each fuzz seed deterministically samples a random-but-valid
 * simulator configuration (TLB/PSC/PRT geometries, SDP on/off, page
 * table depth and format, SMT pairs, Zipf skews and footprints of
 * the workload generator) and runs a small family of short
 * simulations under the differential checker:
 *
 *   base      the sampled prefetcher on the sampled workload
 *   none      identical config with no STLB prefetcher
 *   zero      identical config with a prefetcher that never issues
 *   doubled   no-prefetcher config with twice the STLB ways
 *   pair/solo SMT colocation plus the two per-thread solo runs
 *             (only for seeds that sample SMT)
 *
 * and evaluates metamorphic invariants across the family:
 *
 *   M1  prefetching into the PB never changes the demand miss
 *       counts (iSTLB and dSTLB) -- prefetches stage translations,
 *       they must not perturb what counts as a miss;
 *   M2  a prefetcher with zero prefetch budget is indistinguishable
 *       from no prefetcher in every timing-independent counter
 *       (miss counts, zero PB hits; demand instruction walks too
 *       when the I-cache prefetcher is timing-insensitive);
 *   M3  doubling the STLB's associativity (same set count -- the
 *       LRU stack-inclusion direction) never increases iSTLB or
 *       dSTLB misses on the same access stream;
 *   M4  an SMT pair over disjoint address spaces maps exactly the
 *       sum of the pages its two solo halves map (architectural
 *       additivity; miss counts are capacity-coupled and excluded);
 *   M5  interrupting the run at a (seed-derived) random instruction
 *       via a snapshot checkpoint and resuming in a fresh process
 *       image produces a bit-identical result to running straight
 *       through (checking is disabled for this pair: snapshots
 *       refuse checked runs by design);
 *   M6  running with self-profiling telemetry enabled
 *       (common/telemetry.hh) produces a bit-identical result to
 *       running with it disabled -- observation must never perturb
 *       simulation;
 *   M7  every run of the family charges each measured cycle to
 *       exactly one bucket: its five cycle fractions sum to 1 within
 *       ledgerTolerance() (sim/run_counters.hh).
 *
 * Every run also carries the differential checker (checkLevel >= 1),
 * so any translation the fast simulator resolves to the wrong frame
 * fails the seed with a mismatch report. The whole campaign is
 * reproducible from (seedBase, seeds, instructions, warmup) alone.
 */

#ifndef MORRIGAN_CHECK_FUZZ_HH
#define MORRIGAN_CHECK_FUZZ_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/morrigan.hh"
#include "core/prefetcher_registry.hh"
#include "sim/sim_config.hh"
#include "workload/server_workload.hh"

namespace morrigan::check
{

/** Campaign parameters (mirrors the morrigan-fuzz CLI). How the runs
 * are scheduled -- workers, sandboxing, deadlines, the journal -- is
 * Supervisor::defaultOptions(), as for every batch. */
struct FuzzOptions
{
    std::uint64_t seeds = 25;
    std::uint64_t seedBase = 1;
    /** Measured instructions per simulation. */
    std::uint64_t instructions = 200'000;
    /** Warmup instructions per simulation. */
    std::uint64_t warmupInstructions = 50'000;
    /** Differential check level applied to every run (min 1). */
    int checkLevel = 1;
    /**
     * Fault injection: corrupt every Nth instruction demand walk of
     * each seed's base run (SimConfig::injectWalkerBugPeriod). With
     * injection on, a seed *passes* when the checker catches the
     * corruption -- the campaign validates the checker itself.
     */
    std::uint64_t injectPeriod = 0;
    /** Directory for failing-seed repro artifacts; empty disables. */
    std::string artifactDir;
};

/** One sampled configuration point. */
struct FuzzCase
{
    SimConfig cfg;
    /** Base prefetcher: a named kind... */
    std::string kind = "morrigan";
    /** ...or, when set, a custom-geometry Morrigan. */
    bool customMorrigan = false;
    MorriganParams morrigan{};
    ServerWorkloadParams workload;
    bool smt = false;
    ServerWorkloadParams smtWorkload{};
    /** One-line human-readable description of the sampled point. */
    std::string summary;
};

/** The one-line summary of @p fc: every keyed config and workload
 * field that differs from its default, then the prefetcher. */
std::string describeCase(const FuzzCase &fc);

/** Deterministically sample the configuration point of @p seed. */
FuzzCase sampleCase(std::uint64_t seed, const FuzzOptions &opt);

/** The simulation family of one seed (inputs to the invariants).
 * Exposed so tests can doctor results and watch invariants fire. */
struct SeedRunSet
{
    FuzzCase fc;
    SimResult base;
    SimResult none;
    SimResult zeroBudget;
    SimResult doubledStlb;
    bool hasSmt = false;
    SimResult smtPair;
    SimResult soloA;
    SimResult soloB;
};

/**
 * Evaluate the differential check plus metamorphic invariants M1-M4
 * and M7 over one seed's run family; returns one message per violated
 * property (empty == seed passed).
 *
 * @param inject_expected The base run carried fault injection, so
 * the checker *must* have reported mismatches on it.
 */
std::vector<std::string>
evaluateSeedInvariants(const SeedRunSet &rs, bool inject_expected);

/**
 * Evaluate M5 for one sampled configuration: run the seed's base
 * configuration (checking and fault injection stripped) straight
 * through, then again resuming from the snapshot the first run
 * autosaved at a seed-derived instruction, and compare the two
 * SimResults bit-for-bit. Snapshot files go into @p scratch_dir and
 * are removed afterwards. Returns one message per divergence (empty
 * == invariant held).
 */
std::vector<std::string>
evaluateCheckpointInvariant(const FuzzCase &fc, std::uint64_t seed,
                            const std::string &scratch_dir);

/**
 * Evaluate M6 for one sampled configuration: run the seed's base
 * configuration (checking and fault injection stripped) once with
 * telemetry disabled and once enabled, and compare the two
 * SimResults bit-for-bit. The process-wide telemetry flag is
 * restored before returning. Returns one message per divergence
 * (empty == invariant held).
 */
std::vector<std::string>
evaluateTelemetryInvariant(const FuzzCase &fc);

/** Outcome of one fuzzed seed. */
struct FuzzSeedOutcome
{
    std::uint64_t seed = 0;
    std::string summary;
    bool passed = false;
    /** A family member crashed / hung / failed under the sandbox;
     * the invariants were not evaluable and the seed is counted
     * failed. */
    bool quarantined = false;
    std::vector<std::string> failures;
    /** First non-empty differential mismatch report of the family. */
    std::string checkReport;
};

/** Outcome of a whole campaign. */
struct FuzzCampaignOutcome
{
    std::vector<FuzzSeedOutcome> seeds;
    std::uint64_t passedSeeds = 0;
    std::uint64_t failedSeeds = 0;
    /** Structural invariant violations (MORRIGAN_CHECK_LEVEL hooks)
     * observed process-wide during the campaign. */
    std::uint64_t structuralViolations = 0;

    bool
    passed() const
    {
        return failedSeeds == 0 && structuralViolations == 0;
    }
};

/** The exact command line that reruns @p seed by itself. */
std::string reproCommand(std::uint64_t seed, const FuzzOptions &opt);

/**
 * Run the campaign: sample every seed, fan the run families out
 * through the Supervisor, evaluate the invariants, and (when
 * opt.artifactDir is set) write one repro artifact per failing
 * seed. Progress and failures are narrated to @p log when given.
 */
FuzzCampaignOutcome runCampaign(const FuzzOptions &opt,
                                std::ostream *log = nullptr);

} // namespace morrigan::check

#endif // MORRIGAN_CHECK_FUZZ_HH
