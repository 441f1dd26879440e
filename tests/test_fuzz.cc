/**
 * @file
 * Config/workload fuzzer: deterministic sampling, metamorphic
 * invariants firing on deliberately doctored run families, and a
 * miniature end-to-end campaign.
 */

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/fuzz.hh"

using namespace morrigan;
using namespace morrigan::check;

namespace
{

bool
hasFailure(const std::vector<std::string> &fails,
           const std::string &needle)
{
    return std::any_of(fails.begin(), fails.end(),
                       [&](const std::string &f) {
                           return f.find(needle) != std::string::npos;
                       });
}

/** A run family in which every invariant holds. */
SeedRunSet
cleanSet()
{
    SeedRunSet rs;
    rs.fc.cfg.icachePref = ICachePrefKind::None;

    rs.base.checkedTranslations = 1000;
    rs.base.istlbMisses = 500;
    rs.base.dstlbMisses = 300;
    rs.base.pbHits = 100;
    rs.base.demandWalksInstr = 400;

    rs.none = rs.base;
    rs.none.pbHits = 0;
    rs.none.demandWalksInstr = 500;

    rs.zeroBudget = rs.none;

    rs.doubledStlb = rs.none;
    rs.doubledStlb.istlbMisses = 450;
    rs.doubledStlb.dstlbMisses = 280;

    rs.hasSmt = true;
    rs.smtPair.checkMappedPages = 900;
    rs.soloA.checkMappedPages = 500;
    rs.soloB.checkMappedPages = 400;
    return rs;
}

} // namespace

TEST(FuzzInvariants, CleanFamilyPasses)
{
    EXPECT_TRUE(evaluateSeedInvariants(cleanSet(), false).empty());
}

TEST(FuzzInvariants, DiffCheckMismatchFails)
{
    SeedRunSet rs = cleanSet();
    rs.base.checkMismatches = 3;
    EXPECT_TRUE(hasFailure(evaluateSeedInvariants(rs, false),
                           "diff-check: base run diverged"));

    rs = cleanSet();
    rs.doubledStlb.checkMismatches = 1;
    EXPECT_TRUE(hasFailure(evaluateSeedInvariants(rs, false),
                           "diff-check: doubled-stlb run diverged"));
}

TEST(FuzzInvariants, CheckedNothingFails)
{
    SeedRunSet rs = cleanSet();
    rs.base.checkedTranslations = 0;
    EXPECT_TRUE(hasFailure(evaluateSeedInvariants(rs, false),
                           "cross-checked zero translations"));
}

TEST(FuzzInvariants, InjectExpectedFlipsTheOracle)
{
    // With injection, a caught corruption is a PASS...
    SeedRunSet rs = cleanSet();
    rs.base.checkMismatches = 7;
    EXPECT_TRUE(evaluateSeedInvariants(rs, true).empty());

    // ...and an undetected one is the failure.
    rs.base.checkMismatches = 0;
    EXPECT_TRUE(hasFailure(evaluateSeedInvariants(rs, true),
                           "went undetected"));
}

TEST(FuzzInvariants, M1PrefetchingChangedMissesFires)
{
    SeedRunSet rs = cleanSet();
    rs.base.istlbMisses = 499;
    EXPECT_TRUE(hasFailure(evaluateSeedInvariants(rs, false),
                           "M1: prefetching changed iSTLB"));

    rs = cleanSet();
    rs.base.dstlbMisses = 301;
    EXPECT_TRUE(hasFailure(evaluateSeedInvariants(rs, false),
                           "M1: prefetching changed dSTLB"));

    // Injection corrupts the base run's frames by design: M1 is
    // excused there.
    rs = cleanSet();
    rs.base.istlbMisses = 499;
    rs.base.checkMismatches = 1;
    EXPECT_TRUE(evaluateSeedInvariants(rs, true).empty());
}

TEST(FuzzInvariants, M2ZeroBudgetDivergenceFires)
{
    SeedRunSet rs = cleanSet();
    rs.zeroBudget.istlbMisses += 1;
    EXPECT_TRUE(hasFailure(evaluateSeedInvariants(rs, false),
                           "M2: zero-budget prefetcher changed miss"));

    rs = cleanSet();
    rs.zeroBudget.pbHits = 4;
    EXPECT_TRUE(hasFailure(evaluateSeedInvariants(rs, false),
                           "M2: zero-budget prefetcher produced"));

    rs = cleanSet();
    rs.zeroBudget.demandWalksInstr += 2;
    EXPECT_TRUE(hasFailure(
        evaluateSeedInvariants(rs, false),
        "M2: zero-budget prefetcher changed demand"));
}

TEST(FuzzInvariants, M2PbCountersExcusedUnderFnlMma)
{
    // FNL+MMA legitimately stages translations in the PB and reacts
    // to L1I timing; only the miss counts stay comparable.
    SeedRunSet rs = cleanSet();
    rs.fc.cfg.icachePref = ICachePrefKind::FnlMma;
    rs.zeroBudget.pbHits = 21;
    rs.zeroBudget.demandWalksInstr += 5;
    EXPECT_TRUE(evaluateSeedInvariants(rs, false).empty());

    rs.zeroBudget.istlbMisses += 1;  // misses still enforced
    EXPECT_TRUE(hasFailure(evaluateSeedInvariants(rs, false),
                           "M2: zero-budget prefetcher changed miss"));
}

TEST(FuzzInvariants, M3BiggerStlbMustNotMissMore)
{
    SeedRunSet rs = cleanSet();
    rs.doubledStlb.istlbMisses = rs.none.istlbMisses + 1;
    EXPECT_TRUE(hasFailure(evaluateSeedInvariants(rs, false),
                           "M3: doubling STLB ways increased iSTLB"));

    rs = cleanSet();
    rs.doubledStlb.dstlbMisses = rs.none.dstlbMisses + 10;
    EXPECT_TRUE(hasFailure(evaluateSeedInvariants(rs, false),
                           "M3: doubling STLB ways increased dSTLB"));

    // Equal misses (degenerate doubling win) is fine.
    rs = cleanSet();
    rs.doubledStlb.istlbMisses = rs.none.istlbMisses;
    rs.doubledStlb.dstlbMisses = rs.none.dstlbMisses;
    EXPECT_TRUE(evaluateSeedInvariants(rs, false).empty());
}

TEST(FuzzInvariants, M4SmtAdditivityFires)
{
    SeedRunSet rs = cleanSet();
    rs.smtPair.checkMappedPages = 901;
    EXPECT_TRUE(hasFailure(evaluateSeedInvariants(rs, false),
                           "M4: SMT pair mapped"));

    // Non-SMT seeds skip M4 entirely.
    rs.hasSmt = false;
    EXPECT_TRUE(evaluateSeedInvariants(rs, false).empty());
}

TEST(FuzzInvariants, M7CycleLedgerGapFires)
{
    SeedRunSet rs = cleanSet();
    rs.soloA.workload = "qmm_00";
    rs.soloA.instructions = 1'000'000;
    rs.soloA.cycles = 1'200'000.0;
    rs.soloA.baseCycleFraction = 250'000.0 / rs.soloA.cycles;
    rs.soloA.istlbCycleFraction = 950'000.0 / rs.soloA.cycles;
    EXPECT_TRUE(evaluateSeedInvariants(rs, false).empty());

    // Eight cycles counted in no bucket.
    rs.soloA.istlbCycleFraction = 949'992.0 / rs.soloA.cycles;
    EXPECT_TRUE(hasFailure(evaluateSeedInvariants(rs, false),
                           "M7: solo-a run's cycle fractions"));
}

TEST(FuzzSampling, SameSeedSamplesSameCase)
{
    FuzzOptions opt;
    FuzzCase a = sampleCase(17, opt);
    FuzzCase b = sampleCase(17, opt);
    EXPECT_EQ(a.summary, b.summary);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.smt, b.smt);
    EXPECT_EQ(a.cfg.tlb.stlb.entries, b.cfg.tlb.stlb.entries);
    EXPECT_FALSE(a.summary.empty());
}

TEST(FuzzSampling, SeedsCoverDistinctConfigurations)
{
    FuzzOptions opt;
    std::vector<std::string> summaries;
    for (std::uint64_t s = 1; s <= 8; ++s)
        summaries.push_back(sampleCase(s, opt).summary);
    std::sort(summaries.begin(), summaries.end());
    auto last = std::unique(summaries.begin(), summaries.end());
    // Eight seeds must not collapse onto one or two points.
    EXPECT_GE(std::distance(summaries.begin(), last), 4);
}

TEST(FuzzSampling, SummaryNamesEverySampledField)
{
    // Cases differing in one sampled field -- config or workload --
    // get different summaries, which name the field by its key.
    FuzzCase a = sampleCase(17, FuzzOptions{});
    a.smt = true;
    a.smtWorkload = a.workload;
    FuzzCase ports = a;
    ports.cfg.walker.ports = a.cfg.walker.ports == 1 ? 2 : 1;
    FuzzCase cold = a;
    cold.smtWorkload.dataColdProb *= 2;
    FuzzCase reset = a;
    reset.customMorrigan = true;
    reset.morrigan.irip.freqResetInterval *= 2;

    const std::string base = describeCase(a);
    EXPECT_NE(describeCase(ports), base);
    EXPECT_NE(describeCase(ports).find(
                  "walker.ports=" +
                  std::to_string(ports.cfg.walker.ports)),
              std::string::npos)
        << describeCase(ports);
    EXPECT_NE(describeCase(cold), base);
    EXPECT_NE(describeCase(cold).find("smt.dataColdProb="),
              std::string::npos)
        << describeCase(cold);
    a.customMorrigan = true;
    EXPECT_NE(describeCase(reset), describeCase(a));
}

TEST(FuzzSampling, ReproCommandNamesTheSeed)
{
    FuzzOptions opt;
    opt.instructions = 12345;
    std::string cmd = reproCommand(7, opt);
    EXPECT_NE(cmd.find("--seed-base 7"), std::string::npos);
    EXPECT_NE(cmd.find("--seeds 1"), std::string::npos);
    EXPECT_NE(cmd.find("--instructions 12345"), std::string::npos);
}

TEST(FuzzCampaign, MiniCampaignPassesClean)
{
    FuzzOptions opt;
    opt.seeds = 2;
    opt.seedBase = 1;
    opt.instructions = 40'000;
    opt.warmupInstructions = 10'000;
    FuzzCampaignOutcome out = runCampaign(opt);
    EXPECT_TRUE(out.passed());
    EXPECT_EQ(out.passedSeeds, 2u);
    EXPECT_EQ(out.failedSeeds, 0u);
    ASSERT_EQ(out.seeds.size(), 2u);
    EXPECT_TRUE(out.seeds[0].passed);
    EXPECT_TRUE(out.seeds[0].failures.empty());
}

TEST(FuzzCampaign, InjectedCampaignCatchesTheBug)
{
    FuzzOptions opt;
    opt.seeds = 1;
    opt.seedBase = 1;
    opt.instructions = 40'000;
    opt.warmupInstructions = 10'000;
    opt.injectPeriod = 25;
    FuzzCampaignOutcome out = runCampaign(opt);
    // With injection armed, the seed passes only because the checker
    // caught the corruption.
    EXPECT_TRUE(out.passed());
    ASSERT_EQ(out.seeds.size(), 1u);
    EXPECT_TRUE(out.seeds[0].passed);
}

namespace
{

/** First seed in [1, limit] whose sampled kind satisfies @p want. */
std::uint64_t
findSeedWithKind(const std::function<bool(const std::string &)> &want,
                 std::uint64_t limit = 20'000)
{
    FuzzOptions opt;
    for (std::uint64_t s = 1; s <= limit; ++s) {
        FuzzCase fc = sampleCase(s, opt);
        if (!fc.customMorrigan && want(fc.kind))
            return s;
    }
    return 0;
}

/** Run a one-seed campaign (all of M1-M7) and expect it green. */
void
expectSeedPasses(std::uint64_t seed)
{
    FuzzOptions opt;
    opt.seeds = 1;
    opt.seedBase = seed;
    opt.instructions = 40'000;
    opt.warmupInstructions = 10'000;
    FuzzCampaignOutcome out = runCampaign(opt);
    ASSERT_EQ(out.seeds.size(), 1u);
    EXPECT_TRUE(out.seeds[0].passed)
        << "seed " << seed << " [" << out.seeds[0].summary << "]: "
        << (out.seeds[0].failures.empty()
                ? ""
                : out.seeds[0].failures.front());
}

} // namespace

TEST(FuzzSampling, SamplerDrawsEveryFuzzableRegistryKind)
{
    // Every plugin flagged fuzzable must be reachable by the config
    // sampler -- competitors inherit M1-M7 coverage the moment they
    // register.
    std::vector<std::string> fuzzable;
    for (const PrefetcherPlugin &p :
         PrefetcherRegistry::global().plugins()) {
        if (p.fuzzable)
            fuzzable.push_back(p.name);
    }
    ASSERT_GE(fuzzable.size(), 8u);

    FuzzOptions opt;
    std::set<std::string> drawn;
    bool hybrid_seen = false;
    for (std::uint64_t s = 1; s <= 4000; ++s) {
        FuzzCase fc = sampleCase(s, opt);
        if (fc.customMorrigan)
            continue;
        if (fc.kind.find('+') != std::string::npos)
            hybrid_seen = true;
        for (const std::string &part : splitPrefetcherSpec(fc.kind))
            drawn.insert(part);
    }
    for (const std::string &name : fuzzable)
        EXPECT_TRUE(drawn.count(name))
            << "sampler never drew '" << name << "'";
    EXPECT_TRUE(hybrid_seen) << "sampler never composed a hybrid";
}

// Each new competitor gets a real end-to-end seed through the full
// M1-M7 invariant family (differential check, zero-budget, doubled
// STLB, checkpoint/resume and telemetry bit-identity, cycle ledger).

TEST(FuzzCampaign, FnlMmaSeedPassesAllInvariants)
{
    std::uint64_t seed = findSeedWithKind(
        [](const std::string &k) { return k == "fnl-mma"; });
    ASSERT_NE(seed, 0u) << "no seed samples fnl-mma";
    expectSeedPasses(seed);
}

TEST(FuzzCampaign, ManaSeedPassesAllInvariants)
{
    std::uint64_t seed = findSeedWithKind(
        [](const std::string &k) { return k == "mana"; });
    ASSERT_NE(seed, 0u) << "no seed samples mana";
    expectSeedPasses(seed);
}

TEST(FuzzCampaign, FdipSeedPassesAllInvariants)
{
    std::uint64_t seed = findSeedWithKind(
        [](const std::string &k) { return k == "fdip"; });
    ASSERT_NE(seed, 0u) << "no seed samples fdip";
    expectSeedPasses(seed);
}

TEST(FuzzCampaign, HybridSeedPassesAllInvariants)
{
    std::uint64_t seed = findSeedWithKind([](const std::string &k) {
        return k.find('+') != std::string::npos;
    });
    ASSERT_NE(seed, 0u) << "no seed samples a hybrid";
    expectSeedPasses(seed);
}
