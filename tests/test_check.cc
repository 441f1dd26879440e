/**
 * @file
 * Differential checker and structural invariant hooks.
 *
 * Covers the DiffChecker in isolation (mismatch records, provenance
 * in the report), the full simulator loop under --check (clean run
 * checks everything, an injected walker bug is caught and the report
 * names the faulting VPN), and the MORRIGAN_CHECK_LEVEL invariant
 * hooks compiled into the hot structures.
 */

#include <cmath>
#include <cstdlib>

#include <gtest/gtest.h>

#include "check/checker.hh"
#include "check/invariants.hh"
#include "core/morrigan.hh"
#include "sim/experiment.hh"
#include "sim/run_counters.hh"
#include "workload/workload_factory.hh"

using namespace morrigan;
using namespace morrigan::check;

namespace
{

// invariantCheckLevel() latches the env on first use, so arm level 2
// before main() runs (and before any static initializer could query
// it).
const bool checkLevelArmed = [] {
    setenv("MORRIGAN_CHECK_LEVEL", "2", /*overwrite=*/1);
    return true;
}();

SimConfig
checkedConfig()
{
    SimConfig cfg;
    cfg.warmupInstructions = 20'000;
    cfg.simInstructions = 100'000;
    cfg.checkLevel = 1;
    return cfg;
}

} // namespace

TEST(DiffChecker, CleanTranslationsMatch)
{
    DiffChecker chk;
    chk.onMap4K(0x100, 0x2000);
    chk.onMap2M(0x400, 0x30000);

    EXPECT_TRUE(chk.onTranslation(0x100, 0x2000,
                                  TranslationSource::DemandWalk, 10,
                                  0));
    EXPECT_TRUE(chk.onTranslation(0x407, 0x30007,
                                  TranslationSource::DataWalk, 20,
                                  0));
    EXPECT_EQ(chk.checked(), 2u);
    EXPECT_EQ(chk.mismatches(), 0u);
    EXPECT_TRUE(chk.report().empty());
    EXPECT_EQ(chk.ref().mappedPages(), 1u + pagesPerLargePage);
}

TEST(DiffChecker, WrongFrameIsRecordedAndReportNamesVpn)
{
    DiffChecker chk;
    chk.onMap4K(0xabcd, 0x2000);

    EXPECT_FALSE(chk.onTranslation(0xabcd, 0x2001,
                                   TranslationSource::DemandWalk,
                                   123, 0));
    EXPECT_EQ(chk.mismatches(), 1u);
    ASSERT_EQ(chk.records().size(), 1u);
    const CheckMismatch &m = chk.records()[0];
    EXPECT_EQ(m.vpn, 0xabcdu);
    EXPECT_EQ(m.actual, 0x2001u);
    EXPECT_EQ(m.expected, 0x2000u);
    EXPECT_TRUE(m.refMapped);
    EXPECT_EQ(m.cycle, 123u);

    std::string rep = chk.report();
    EXPECT_NE(rep.find("0xabcd"), std::string::npos);
    EXPECT_NE(rep.find("0x2001"), std::string::npos);
    EXPECT_NE(rep.find("0x2000"), std::string::npos);
    EXPECT_NE(rep.find("demand-walk"), std::string::npos);
}

TEST(DiffChecker, UnmappedTranslationIsAMismatch)
{
    DiffChecker chk;
    EXPECT_FALSE(chk.onTranslation(0x55, 0x9999,
                                   TranslationSource::DemandWalk, 1,
                                   0));
    ASSERT_EQ(chk.records().size(), 1u);
    EXPECT_FALSE(chk.records()[0].refMapped);
    EXPECT_NE(chk.report().find("0x55"), std::string::npos);
}

TEST(DiffChecker, PbHitMismatchCarriesProvenance)
{
    DiffChecker chk;
    chk.onMap4K(0x700, 0x8000);
    PrefetchTag tag;
    tag.producer = PrefetchProducer::Irip;
    tag.table = 2;
    tag.sourcePage = 0x6ff;
    tag.distance = 1;
    EXPECT_FALSE(chk.onTranslation(0x700, 0x8001,
                                   TranslationSource::PbHit, 99, 0,
                                   &tag));
    ASSERT_EQ(chk.records().size(), 1u);
    EXPECT_TRUE(chk.records()[0].hasTag);
    std::string rep = chk.report();
    EXPECT_NE(rep.find("pb-hit"), std::string::npos);
    EXPECT_NE(rep.find("planted by"), std::string::npos);
    EXPECT_NE(rep.find("0x6ff"), std::string::npos);
}

TEST(DiffChecker, RecordCapKeepsCounting)
{
    DiffChecker chk(2);
    for (Vpn v = 0; v < 5; ++v)
        chk.onTranslation(v, 0x1234, TranslationSource::DemandWalk,
                          v, 0);
    EXPECT_EQ(chk.mismatches(), 5u);
    EXPECT_EQ(chk.records().size(), 2u);
}

TEST(CheckedSimulation, CleanRunCrossChecksEverything)
{
    SimResult r = runWorkload(checkedConfig(),
                              "morrigan",
                              qmmWorkloadParams(0));
    EXPECT_GT(r.checkedTranslations, 0u);
    EXPECT_EQ(r.checkMismatches, 0u);
    EXPECT_GT(r.checkMappedPages, 0u);
    EXPECT_TRUE(r.checkReport.empty());
}

TEST(CheckedSimulation, InjectedWalkerBugIsCaughtAndNamed)
{
    SimConfig cfg = checkedConfig();
    cfg.injectWalkerBugPeriod = 50;
    SimResult r = runWorkload(cfg, "morrigan",
                              qmmWorkloadParams(0));
    EXPECT_GT(r.checkMismatches, 0u);
    // The report names the faulting VPN and the source structure.
    EXPECT_NE(r.checkReport.find("vpn 0x"), std::string::npos);
    EXPECT_NE(r.checkReport.find("demand-walk"), std::string::npos);
    EXPECT_NE(r.checkReport.find("mismatched translation"),
              std::string::npos);
}

TEST(CheckedSimulation, CheckLevelZeroLeavesCountersEmpty)
{
    SimConfig cfg = checkedConfig();
    cfg.checkLevel = 0;
    SimResult r = runWorkload(cfg, "morrigan",
                              qmmWorkloadParams(0));
    EXPECT_EQ(r.checkedTranslations, 0u);
    EXPECT_EQ(r.checkMismatches, 0u);
}

TEST(InvariantHooks, LevelIsArmedForThisBinary)
{
    ASSERT_TRUE(checkLevelArmed);
    EXPECT_EQ(invariantCheckLevel(), 2);
}

TEST(InvariantHooks, MacroCountsChecksAndViolations)
{
    resetInvariantCounters();
    MORRIGAN_CHECK_INVARIANT(1, true, "never fires");
    MORRIGAN_CHECK_INVARIANT(2, true, "never fires");
    EXPECT_EQ(invariantChecks(), 2u);
    EXPECT_EQ(invariantViolations(), 0u);

    MORRIGAN_CHECK_INVARIANT(1, false, "deliberate violation %d", 1);
    MORRIGAN_CHECK_INVARIANT(2, false, "deliberate violation %d", 2);
    EXPECT_EQ(invariantChecks(), 4u);
    EXPECT_EQ(invariantViolations(), 2u);
    resetInvariantCounters();
}

TEST(InvariantHooks, HotStructuresEvaluateCleanlyAtLevel2)
{
    resetInvariantCounters();
    SimConfig cfg = checkedConfig();
    SimResult r = runWorkload(cfg, "morrigan",
                              qmmWorkloadParams(1));
    (void)r;
    // The PB capacity, IRIP promotion and RLFU hooks all sit on
    // paths this run exercises; none of them may fire.
    EXPECT_GT(invariantChecks(), 0u);
    EXPECT_EQ(invariantViolations(), 0u);
}

// ---------------------------------------------------------------
// The cycle ledger: every measured cycle lands in one bucket.
// ---------------------------------------------------------------

TEST(CycleLedger, FractionsSumToOneInEveryMode)
{
    struct Mode
    {
        const char *name;
        void (*apply)(SimConfig &);
        bool smt;
    };
    const Mode modes[] = {
        {"1t", [](SimConfig &) {}, false},
        {"smt", [](SimConfig &) {}, true},
        {"ctx-switch",
         [](SimConfig &c) { c.contextSwitchInterval = 30'000; }, false},
        {"perfect-istlb", [](SimConfig &c) { c.perfectIstlb = true; },
         false},
        {"p2tlb", [](SimConfig &c) { c.prefetchIntoStlb = true; },
         false},
        {"fnl-mma",
         [](SimConfig &c) { c.icachePref = ICachePrefKind::FnlMma; },
         false},
    };
    for (const Mode &m : modes) {
        SCOPED_TRACE(m.name);
        SimConfig cfg = checkedConfig();
        m.apply(cfg);
        resetInvariantCounters();
        MorriganPrefetcher morrigan{MorriganParams{}};
        SimResult r =
            m.smt ? runSmtPair(cfg, &morrigan, qmmWorkloadParams(0),
                               qmmWorkloadParams(1))
                  : runWorkloadWith(cfg, &morrigan, qmmWorkloadParams(0));
        EXPECT_GT(invariantChecks(), 0u);
        EXPECT_EQ(invariantViolations(), 0u);
        ASSERT_GT(r.cycles, 0.0);
        EXPECT_LE(std::abs(cycleFractionSum(r) - 1.0),
                  ledgerTolerance(r.instructions));
        EXPECT_GT(r.baseCycleFraction, 0.0);
        EXPECT_EQ(r.contextSwitchCycleFraction > 0.0,
                  cfg.contextSwitchInterval != 0);
    }
    resetInvariantCounters();
}

TEST(CycleLedger, ToleranceCatchesOneDroppedStlbCharge)
{
    // 24M cycles over 22M instructions: the rounding bound is under
    // one cycle, so one 8-cycle STLB charge missing from its bucket
    // fails the identity.
    EXPECT_LT(ledgerTolerance(22'000'000) * 24e6, 8.0);
}
