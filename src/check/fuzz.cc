#include "fuzz.hh"

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "check/invariants.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "common/telemetry.hh"
#include "sim/result_cache.hh"
#include "sim/run_counters.hh"
#include "sim/supervisor.hh"
#include "workload/workload_factory.hh"

namespace morrigan::check
{

namespace
{

/** The zero-budget prefetcher of invariant M2: engaged on every
 * miss like a real prefetcher, never allowed to issue anything. */
class ZeroBudgetPrefetcher : public TlbPrefetcher
{
  public:
    const char *name() const override { return "zero-budget"; }

    void
    onInstrStlbMiss(Vpn, Addr, unsigned,
                    std::vector<PrefetchRequest> &) override
    {
    }
};

template <typename T>
T
pick(Rng &rng, std::initializer_list<T> choices)
{
    auto it = choices.begin();
    std::advance(it, rng.below(
        static_cast<std::uint32_t>(choices.size())));
    return *it;
}

ServerWorkloadParams
sampleWorkload(Rng &rng, bool allow_huge, const char *tag)
{
    ServerWorkloadParams w =
        qmmWorkloadParams(rng.below(numQmmWorkloads));
    w.name = csprintf("fuzz_%s_%s", tag, w.name.c_str());
    w.seed = rng.next64() | 1;
    w.codePages = static_cast<std::uint32_t>(
        rng.between(1000, 6000));
    w.hotCodePages = static_cast<std::uint32_t>(
        rng.between(64, 256));
    w.warmCodePages = static_cast<std::uint32_t>(
        rng.between(200, 900));
    w.zipfTheta = 0.1 + 0.8 * rng.uniform();
    w.typeZipfTheta = 0.5 + 0.6 * rng.uniform();
    w.numRequestTypes = static_cast<std::uint32_t>(
        rng.between(16, 96));
    w.dataColdProb = 0.001 + 0.009 * rng.uniform();
    w.dataColdPages = 1u << rng.between(14, 18);
    w.phaseInterval =
        pick<std::uint64_t>(rng, {0, 1'000'000, 3'000'000});
    w.dataHugePages = allow_huge && rng.chance(0.25);
    return w;
}

} // namespace

std::string
describeCase(const FuzzCase &fc)
{
    // Every keyed config and workload field off its default, under
    // its cache-key name ("tlb.stlb.ways=6", "wl.seed=..."). The
    // custom Morrigan geometry is not in the key; it follows.
    const ServerWorkloadParams plain{};
    std::istringstream key(experimentKey(
        fc.cfg, fc.kind, fc.workload, fc.smt ? &fc.smtWorkload : nullptr));
    std::istringstream base(experimentKey(SimConfig{}, fc.kind, plain,
                                          fc.smt ? &plain : nullptr));
    std::ostringstream os;
    for (std::string field, dflt; std::getline(key, field, ';');)
        if (!std::getline(base, dflt, ';') || field != dflt)
            os << field << ' ';
    os << "pref=";
    if (fc.customMorrigan) {
        os << "morrigan[";
        for (const PrtGeometry &t : fc.morrigan.irip.tables)
            os << t.entries << "e" << t.slots << "s,";
        os << "reset=" << fc.morrigan.irip.freqResetInterval
           << (fc.morrigan.sdpEnabled ? ",+sdp" : ",-sdp")
           << (fc.morrigan.sdpAlwaysOn ? ",sdp-always" : "") << "]";
    } else {
        os << prefetcherDisplayName(fc.kind);
    }
    return os.str();
}

FuzzCase
sampleCase(std::uint64_t seed, const FuzzOptions &opt)
{
    // A fixed stream id separates fuzz sampling from every other
    // consumer of the PCG32 seed space.
    Rng rng(seed, 0xF022);
    FuzzCase fc;

    SimConfig &cfg = fc.cfg;
    cfg.warmupInstructions = opt.warmupInstructions;
    cfg.simInstructions = opt.instructions;
    cfg.checkLevel = std::max(1, opt.checkLevel);

    // --- TLB geometry (sets x ways so set counts stay valid) ---
    {
        std::uint32_t sets = pick<std::uint32_t>(rng, {64, 128, 256});
        std::uint32_t ways = pick<std::uint32_t>(rng, {4, 6, 8});
        cfg.tlb.stlb.entries = sets * ways;
        cfg.tlb.stlb.ways = ways;
        cfg.tlb.itlb.entries = pick<std::uint32_t>(rng, {64, 128});
        cfg.tlb.itlb.ways = 8;
    }

    // --- PSC geometry ---
    cfg.walker.psc.pml4Entries = pick<std::uint32_t>(rng, {2, 4, 8});
    cfg.walker.psc.pdpEntries = pick<std::uint32_t>(rng, {4, 8, 16});
    cfg.walker.psc.pdEntries = pick<std::uint32_t>(rng, {16, 32, 64});
    cfg.walker.ports = pick<std::uint32_t>(rng, {1, 2, 4});
    cfg.walker.asap = rng.chance(0.2);

    // --- PB / page table / frontend ---
    cfg.pbEntries = pick<std::uint32_t>(rng, {16, 32, 64});
    cfg.pageTableDepth = rng.chance(0.25) ? 5 : 4;
    bool hashed = rng.chance(0.2);
    cfg.pageTableFormat =
        hashed ? PageTableFormat::Hashed : PageTableFormat::Radix;
    cfg.contextSwitchInterval =
        pick<std::uint64_t>(rng, {0, 0, 0, 100'000});
    cfg.icachePref = pick<ICachePrefKind>(
        rng, {ICachePrefKind::NextLine, ICachePrefKind::NextLine,
              ICachePrefKind::FnlMma, ICachePrefKind::None});
    cfg.prefetchOnStlbHits = rng.chance(0.2);
    cfg.correctingWalks = rng.chance(0.2);
    // prefetchIntoStlb / perfectIstlb stay off: M1-M3 reason about
    // the PB staging translations without touching the TLBs.

    // --- prefetcher ---
    if (rng.chance(0.6)) {
        fc.customMorrigan = true;
        MorriganParams p;
        double scale = pick<double>(rng, {0.5, 1.0, 1.0, 2.0});
        p.irip = p.irip.scaled(scale);
        p.irip.freqResetInterval =
            pick<std::uint64_t>(rng, {2048, 8192, 32768});
        p.sdpEnabled = rng.chance(0.8);
        p.sdpAlwaysOn = p.sdpEnabled && rng.chance(0.15);
        fc.morrigan = p;
        fc.kind = "morrigan";
    } else {
        // Draw from the registry: every plugin flagged fuzzable gets
        // sampled, so new competitors inherit M1-M7 coverage the
        // moment they register. One slot in eight composes a random
        // hybrid so composite dispatch is fuzzed too.
        std::vector<std::string> fuzzable;
        for (const PrefetcherPlugin &p :
             PrefetcherRegistry::global().plugins()) {
            if (p.fuzzable)
                fuzzable.push_back(p.name);
        }
        std::size_t a = rng.below(fuzzable.size());
        if (rng.chance(0.125)) {
            std::size_t b = rng.below(fuzzable.size());
            if (b == a)
                b = (b + 1) % fuzzable.size();
            fc.kind = fuzzable[a] + "+" + fuzzable[b];
        } else {
            fc.kind = fuzzable[a];
        }
    }

    // mapLargeRange is radix-only, so hashed seeds must not sample
    // huge-page data regions.
    fc.workload = sampleWorkload(rng, !hashed, "a");
    fc.smt = rng.chance(0.2);
    if (fc.smt)
        fc.smtWorkload = sampleWorkload(rng, !hashed, "b");

    fc.summary = describeCase(fc);
    return fc;
}

std::vector<std::string>
evaluateSeedInvariants(const SeedRunSet &rs, bool inject_expected)
{
    std::vector<std::string> fails;
    auto fail = [&](std::string msg) {
        fails.push_back(std::move(msg));
    };

    // --- differential checker over the whole family ---
    if (inject_expected) {
        if (rs.base.checkMismatches == 0)
            fail(csprintf(
                "inject: walker corruption went undetected over "
                "%llu checked translations",
                static_cast<unsigned long long>(
                    rs.base.checkedTranslations)));
    } else if (rs.base.checkMismatches != 0) {
        fail(csprintf("diff-check: base run diverged from the "
                      "reference on %llu of %llu translations",
                      static_cast<unsigned long long>(
                          rs.base.checkMismatches),
                      static_cast<unsigned long long>(
                          rs.base.checkedTranslations)));
    }
    const struct
    {
        const char *name;
        const SimResult *r;
    } others[] = {
        {"none", &rs.none},
        {"zero-budget", &rs.zeroBudget},
        {"doubled-stlb", &rs.doubledStlb},
        {"smt-pair", rs.hasSmt ? &rs.smtPair : nullptr},
        {"solo-a", rs.hasSmt ? &rs.soloA : nullptr},
        {"solo-b", rs.hasSmt ? &rs.soloB : nullptr},
    };
    for (const auto &o : others) {
        if (o.r && o.r->checkMismatches != 0)
            fail(csprintf("diff-check: %s run diverged from the "
                          "reference on %llu translations",
                          o.name,
                          static_cast<unsigned long long>(
                              o.r->checkMismatches)));
    }
    // A checked run that never checked anything is itself a bug.
    if (rs.base.checkedTranslations == 0)
        fail("diff-check: base run cross-checked zero translations");

    // M1: staging prefetches in the PB never changes what misses.
    // Fault injection corrupts the frames the base run installs, so
    // its downstream miss counts are off-model by design; M1-M2
    // still hold for the uninjected family members.
    if (!inject_expected) {
        if (rs.base.istlbMisses != rs.none.istlbMisses)
            fail(csprintf("M1: prefetching changed iSTLB misses "
                          "(%llu with, %llu without)",
                          static_cast<unsigned long long>(
                              rs.base.istlbMisses),
                          static_cast<unsigned long long>(
                              rs.none.istlbMisses)));
        if (rs.base.dstlbMisses != rs.none.dstlbMisses)
            fail(csprintf("M1: prefetching changed dSTLB misses "
                          "(%llu with, %llu without)",
                          static_cast<unsigned long long>(
                              rs.base.dstlbMisses),
                          static_cast<unsigned long long>(
                              rs.none.dstlbMisses)));
    }

    // M2: a prefetcher with nothing to say == no prefetcher, in
    // every timing-independent counter.
    if (rs.zeroBudget.istlbMisses != rs.none.istlbMisses ||
        rs.zeroBudget.dstlbMisses != rs.none.dstlbMisses)
        fail(csprintf("M2: zero-budget prefetcher changed miss "
                      "counts (istlb %llu vs %llu, dstlb %llu vs "
                      "%llu)",
                      static_cast<unsigned long long>(
                          rs.zeroBudget.istlbMisses),
                      static_cast<unsigned long long>(
                          rs.none.istlbMisses),
                      static_cast<unsigned long long>(
                          rs.zeroBudget.dstlbMisses),
                      static_cast<unsigned long long>(
                          rs.none.dstlbMisses)));
    // FNL+MMA stages its own beyond-page translations in the PB
    // (so PB hits exist even with no STLB prefetcher), and it reacts
    // to L1I miss *timing*, which differs once a PB latency is
    // charged. PB-derived counters are only comparable without it.
    if (rs.fc.cfg.icachePref != ICachePrefKind::FnlMma) {
        if (rs.zeroBudget.pbHits != 0)
            fail(csprintf("M2: zero-budget prefetcher produced "
                          "%llu PB hits",
                          static_cast<unsigned long long>(
                              rs.zeroBudget.pbHits)));
        if (rs.zeroBudget.demandWalksInstr !=
            rs.none.demandWalksInstr)
            fail(csprintf("M2: zero-budget prefetcher changed "
                          "demand instruction walks (%llu vs %llu)",
                          static_cast<unsigned long long>(
                              rs.zeroBudget.demandWalksInstr),
                          static_cast<unsigned long long>(
                              rs.none.demandWalksInstr)));
    }

    // M3: LRU stack inclusion -- more ways, same sets, same access
    // stream can only remove misses.
    if (rs.doubledStlb.istlbMisses > rs.none.istlbMisses)
        fail(csprintf("M3: doubling STLB ways increased iSTLB "
                      "misses (%llu -> %llu)",
                      static_cast<unsigned long long>(
                          rs.none.istlbMisses),
                      static_cast<unsigned long long>(
                          rs.doubledStlb.istlbMisses)));
    if (rs.doubledStlb.dstlbMisses > rs.none.dstlbMisses)
        fail(csprintf("M3: doubling STLB ways increased dSTLB "
                      "misses (%llu -> %llu)",
                      static_cast<unsigned long long>(
                          rs.none.dstlbMisses),
                      static_cast<unsigned long long>(
                          rs.doubledStlb.dstlbMisses)));

    // M7: every measured cycle is charged to exactly one bucket.
    auto ledger = [&](const char *name, const SimResult *r) {
        if (!r || r->cycles <= 0.0)
            return;
        const double err = cycleFractionSum(*r) - 1.0;
        if (std::abs(err) > ledgerTolerance(r->instructions))
            fail(csprintf("M7: %s run's cycle fractions sum to 1%+.3g",
                          name, err));
    };
    ledger("base", &rs.base);
    for (const auto &o : others)
        ledger(o.name, o.r);

    // M4: disjoint address spaces are architecturally additive.
    if (rs.hasSmt) {
        std::uint64_t solo = rs.soloA.checkMappedPages +
                             rs.soloB.checkMappedPages;
        if (rs.smtPair.checkMappedPages != solo)
            fail(csprintf("M4: SMT pair mapped %llu pages, solo "
                          "halves mapped %llu + %llu",
                          static_cast<unsigned long long>(
                              rs.smtPair.checkMappedPages),
                          static_cast<unsigned long long>(
                              rs.soloA.checkMappedPages),
                          static_cast<unsigned long long>(
                              rs.soloB.checkMappedPages)));
    }
    return fails;
}

namespace
{

/**
 * The seed's base configuration with checking and fault injection
 * stripped -- the simulator-proper job M5 and M6 replay. Checking
 * is stripped because snapshots refuse checked runs (the golden
 * reference model is deliberately not serialized) and because both
 * invariants are properties of the simulator proper.
 */
ExperimentJob
strippedBaseJob(const FuzzCase &fc)
{
    SimConfig cfg = fc.cfg;
    cfg.checkLevel = 0;
    cfg.injectWalkerBugPeriod = 0;
    if (fc.customMorrigan) {
        auto factory = [p = fc.morrigan]()
            -> std::unique_ptr<TlbPrefetcher> {
            return std::make_unique<MorriganPrefetcher>(p);
        };
        return fc.smt ? ExperimentJob::smtPairWith(
                            cfg, factory, fc.workload,
                            fc.smtWorkload)
                      : ExperimentJob::with(cfg, factory,
                                            fc.workload);
    }
    return fc.smt ? ExperimentJob::smtPair(cfg, fc.kind, fc.workload,
                                           fc.smtWorkload)
                  : ExperimentJob::of(cfg, fc.kind, fc.workload);
}

} // namespace

std::vector<std::string>
evaluateCheckpointInvariant(const FuzzCase &fc, std::uint64_t seed,
                            const std::string &scratch_dir)
{
    std::vector<std::string> fails;

    const ExperimentJob job = strippedBaseJob(fc);
    const SimConfig &cfg = job.cfg;

    // Autosave interval hashed from the seed: the straight-through
    // run leaves its last checkpoint at an effectively random
    // instruction, which is exactly where the second run resumes.
    const std::uint64_t total =
        cfg.warmupInstructions + cfg.simInstructions;
    const std::uint64_t every =
        1 + (seed * 0x9E3779B97F4A7C15ULL >> 16) % total;
    const std::string path = csprintf(
        "%s/morrigan-fuzz-m5-%llu-%d.snap", scratch_dir.c_str(),
        static_cast<unsigned long long>(seed),
        static_cast<int>(::getpid()));
    ::unlink(path.c_str());

    JobExecutionOptions save_opts;
    save_opts.checkpointPath = path;
    save_opts.checkpointEvery = every;
    JobExecutionOptions resume_opts;
    resume_opts.checkpointPath = path; // restore only, no autosave

    try {
        const ExperimentOutput straight = executeJob(job, save_opts);
        SnapshotHeader hdr;
        if (!readSnapshotHeader(path, hdr)) {
            fails.push_back(csprintf(
                "M5: straight-through run left no readable "
                "checkpoint at %s (autosave interval %llu)",
                path.c_str(),
                static_cast<unsigned long long>(every)));
        } else {
            const ExperimentOutput resumed =
                executeJob(job, resume_opts);
            std::ostringstream a, b;
            writeSimResultJson(a, straight.result);
            writeSimResultJson(b, resumed.result);
            if (a.str() != b.str())
                fails.push_back(csprintf(
                    "M5: resuming from the checkpoint at %llu/%llu "
                    "instructions diverged from the uninterrupted "
                    "run\n  straight: %s\n  resumed:  %s",
                    static_cast<unsigned long long>(
                        hdr.progressInstructions),
                    static_cast<unsigned long long>(total),
                    a.str().c_str(), b.str().c_str()));
        }
    } catch (const std::exception &e) {
        fails.push_back(csprintf("M5: %s", e.what()));
    }
    ::unlink(path.c_str());
    return fails;
}

std::vector<std::string>
evaluateTelemetryInvariant(const FuzzCase &fc)
{
    std::vector<std::string> fails;
    const ExperimentJob job = strippedBaseJob(fc);

    // The pair must differ in exactly one bit of process state: the
    // telemetry flag. Whatever state the campaign armed is restored
    // afterwards.
    const bool was_enabled = telemetry::enabled();
    try {
        telemetry::setEnabled(false);
        const ExperimentOutput off = executeJob(job);
        telemetry::setEnabled(true);
        const ExperimentOutput on = executeJob(job);
        std::ostringstream a, b;
        writeSimResultJson(a, off.result);
        writeSimResultJson(b, on.result);
        if (a.str() != b.str())
            fails.push_back(csprintf(
                "M6: enabling telemetry changed the simulated "
                "result\n  off: %s\n  on:  %s",
                a.str().c_str(), b.str().c_str()));
    } catch (const std::exception &e) {
        fails.push_back(csprintf("M6: %s", e.what()));
    }
    telemetry::setEnabled(was_enabled);
    return fails;
}

std::string
reproCommand(std::uint64_t seed, const FuzzOptions &opt)
{
    std::ostringstream os;
    os << "morrigan-fuzz --seeds 1 --seed-base " << seed
       << " --instructions " << opt.instructions << " --warmup "
       << opt.warmupInstructions << " --check-level "
       << std::max(1, opt.checkLevel);
    if (opt.injectPeriod)
        os << " --inject " << opt.injectPeriod;
    return os.str();
}

namespace
{

/** Index of each family member in the flat job batch; -1 = absent. */
struct JobSlots
{
    int base = -1, none = -1, zero = -1, doubled = -1;
    int pair = -1, soloA = -1, soloB = -1;
};

/** Stable journal identity of one family member: every sampled
 * dimension is a deterministic function of (seed, campaign
 * parameters), so this names the run uniquely across processes. */
std::string
fuzzJournalTag(std::uint64_t seed, const char *member,
               const FuzzOptions &opt)
{
    return csprintf(
        "fuzz:v1:seed=%llu:%s:instr=%llu:warmup=%llu:check=%d:"
        "inject=%llu",
        static_cast<unsigned long long>(seed), member,
        static_cast<unsigned long long>(opt.instructions),
        static_cast<unsigned long long>(opt.warmupInstructions),
        std::max(1, opt.checkLevel),
        static_cast<unsigned long long>(opt.injectPeriod));
}

void
appendSeedJobs(std::uint64_t seed, const FuzzCase &fc,
               const FuzzOptions &opt,
               std::vector<ExperimentJob> &jobs, JobSlots &slots)
{
    auto push = [&](const char *member, ExperimentJob job) {
        job.journalTag = fuzzJournalTag(seed, member, opt);
        jobs.push_back(std::move(job));
        return static_cast<int>(jobs.size() - 1);
    };
    auto baseJob = [&]() {
        SimConfig cfg = fc.cfg;
        cfg.injectWalkerBugPeriod = opt.injectPeriod;
        if (fc.customMorrigan) {
            auto factory = [p = fc.morrigan]()
                -> std::unique_ptr<TlbPrefetcher> {
                return std::make_unique<MorriganPrefetcher>(p);
            };
            return fc.smt ? ExperimentJob::smtPairWith(
                                cfg, factory, fc.workload,
                                fc.smtWorkload)
                          : ExperimentJob::with(cfg, factory,
                                                fc.workload);
        }
        return fc.smt ? ExperimentJob::smtPair(cfg, fc.kind,
                                               fc.workload,
                                               fc.smtWorkload)
                      : ExperimentJob::of(cfg, fc.kind, fc.workload);
    };
    auto noneJob = [&](const SimConfig &cfg) {
        return fc.smt ? ExperimentJob::smtPair(
                            cfg, "none", fc.workload,
                            fc.smtWorkload)
                      : ExperimentJob::of(cfg, "none",
                                          fc.workload);
    };

    slots.base = push("base", baseJob());
    slots.none = push("none", noneJob(fc.cfg));

    {
        auto factory = []() -> std::unique_ptr<TlbPrefetcher> {
            return std::make_unique<ZeroBudgetPrefetcher>();
        };
        ExperimentJob j =
            fc.smt ? ExperimentJob::smtPairWith(fc.cfg, factory,
                                                fc.workload,
                                                fc.smtWorkload)
                   : ExperimentJob::with(fc.cfg, factory,
                                         fc.workload);
        slots.zero = push("zero", std::move(j));
    }

    {
        SimConfig cfg = fc.cfg;
        cfg.tlb.stlb.ways *= 2;
        cfg.tlb.stlb.entries *= 2;  // same set count, twice the ways
        slots.doubled = push("doubled", noneJob(cfg));
    }

    if (fc.smt) {
        // M4 needs exact per-thread instruction accounting: no
        // warmup (stats reset would hide warmup-time demand faults
        // from the mapped-pages additivity) and a total divisible
        // by a full SMT round-robin rotation (2 threads x 8-instr
        // blocks), each solo half running half the instructions.
        SimConfig cfg = fc.cfg;
        cfg.warmupInstructions = 0;
        cfg.simInstructions = (opt.instructions / 16) * 16;
        if (cfg.simInstructions == 0)
            cfg.simInstructions = 16;
        slots.pair = push("pair", ExperimentJob::smtPair(
            cfg, "none", fc.workload, fc.smtWorkload));
        SimConfig half = cfg;
        half.simInstructions = cfg.simInstructions / 2;
        slots.soloA = push("soloA", ExperimentJob::of(
            half, "none", fc.workload));
        slots.soloB = push("soloB", ExperimentJob::of(
            half, "none", fc.smtWorkload));
    }
}

} // namespace

FuzzCampaignOutcome
runCampaign(const FuzzOptions &opt, std::ostream *log)
{
    std::uint64_t structuralBefore = invariantViolations();

    std::vector<FuzzCase> cases;
    std::vector<JobSlots> slots;
    std::vector<ExperimentJob> jobs;
    cases.reserve(opt.seeds);
    slots.reserve(opt.seeds);
    for (std::uint64_t i = 0; i < opt.seeds; ++i) {
        cases.push_back(sampleCase(opt.seedBase + i, opt));
        slots.emplace_back();
        appendSeedJobs(opt.seedBase + i, cases.back(), opt, jobs,
                       slots.back());
    }
    if (log)
        *log << "morrigan-fuzz: " << opt.seeds << " seed(s), "
             << jobs.size() << " simulation(s), check-level "
             << std::max(1, opt.checkLevel)
             << (opt.injectPeriod
                     ? csprintf(", injecting every %llu walks",
                                static_cast<unsigned long long>(
                                    opt.injectPeriod))
                     : std::string())
             << "\n";

    // Fuzz jobs carry factories / fault injection, so the result
    // cache never applies; journal resume keys off journalTag.
    std::vector<RunOutcome> outcomes = Supervisor().run(jobs);

    FuzzCampaignOutcome out;
    for (std::uint64_t i = 0; i < opt.seeds; ++i) {
        const JobSlots &s = slots[i];
        FuzzSeedOutcome so;
        so.seed = opt.seedBase + i;
        so.summary = cases[i].summary;

        std::vector<std::pair<const char *, int>> members = {
            {"base", s.base},
            {"none", s.none},
            {"zero", s.zero},
            {"doubled", s.doubled},
        };
        if (s.pair >= 0) {
            members.push_back({"pair", s.pair});
            members.push_back({"soloA", s.soloA});
            members.push_back({"soloB", s.soloB});
        }
        for (const auto &[member, idx] : members) {
            const RunOutcome &o = outcomes[idx];
            if (o.ok())
                continue;
            so.quarantined = true;
            std::string line = csprintf(
                "sandbox: %s run %s after %u attempt(s): %s",
                member, runStatusName(o.status), o.attempts,
                o.failure.what.c_str());
            if (!o.failure.stderrTail.empty())
                line += "\n  stderr: " + o.failure.stderrTail;
            so.failures.push_back(std::move(line));
        }

        if (!so.quarantined) {
            SeedRunSet rs;
            rs.fc = cases[i];
            rs.base = outcomes[s.base].output.result;
            rs.none = outcomes[s.none].output.result;
            rs.zeroBudget = outcomes[s.zero].output.result;
            rs.doubledStlb = outcomes[s.doubled].output.result;
            rs.hasSmt = s.pair >= 0;
            if (rs.hasSmt) {
                rs.smtPair = outcomes[s.pair].output.result;
                rs.soloA = outcomes[s.soloA].output.result;
                rs.soloB = outcomes[s.soloB].output.result;
            }
            so.failures =
                evaluateSeedInvariants(rs, opt.injectPeriod != 0);
            for (const SimResult *r : {&rs.base, &rs.none,
                                       &rs.zeroBudget,
                                       &rs.doubledStlb}) {
                if (!r->checkReport.empty()) {
                    so.checkReport = r->checkReport;
                    break;
                }
            }
            std::error_code ec;
            auto tmp = std::filesystem::temp_directory_path(ec);
            std::vector<std::string> m5 = evaluateCheckpointInvariant(
                cases[i], so.seed, ec ? std::string(".") : tmp.string());
            so.failures.insert(so.failures.end(), m5.begin(), m5.end());
            std::vector<std::string> m6 =
                evaluateTelemetryInvariant(cases[i]);
            so.failures.insert(so.failures.end(), m6.begin(), m6.end());
        }
        so.passed = so.failures.empty();
        // With injection the base report documents the *caught*
        // bug; keep it even though the seed passes.
        if (so.passed)
            ++out.passedSeeds;
        else
            ++out.failedSeeds;

        if (log && !so.passed) {
            *log << "seed " << so.seed << " FAILED [" << so.summary
                 << "]\n";
            for (const std::string &f : so.failures)
                *log << "  " << f << "\n";
            if (!so.checkReport.empty())
                *log << so.checkReport;
            *log << "  repro: " << reproCommand(so.seed, opt)
                 << "\n";
        }
        out.seeds.push_back(std::move(so));
    }

    // In-process hook count, plus counts that crossed a process
    // boundary (sandboxed children and journal-replayed runs report
    // their own deltas in the outcome).
    out.structuralViolations =
        invariantViolations() - structuralBefore;
    for (const RunOutcome &o : outcomes)
        out.structuralViolations += o.structuralViolations;
    if (log && out.structuralViolations)
        *log << "structural invariant hooks reported "
             << out.structuralViolations << " violation(s)\n";

    if (!opt.artifactDir.empty() && !out.passed()) {
        std::error_code ec;
        std::filesystem::create_directories(opt.artifactDir, ec);
        for (const FuzzSeedOutcome &so : out.seeds) {
            if (so.passed)
                continue;
            std::string path = opt.artifactDir + "/fuzz-seed-" +
                               std::to_string(so.seed) + ".txt";
            std::ofstream f(path);
            f << "seed: " << so.seed << "\n"
              << "config: " << so.summary << "\n"
              << "repro: " << reproCommand(so.seed, opt) << "\n\n";
            for (const std::string &fl : so.failures)
                f << fl << "\n";
            if (!so.checkReport.empty())
                f << "\n" << so.checkReport;
            if (log)
                *log << "wrote " << path << "\n";
        }
    }

    if (log)
        *log << "morrigan-fuzz: " << out.passedSeeds << "/"
             << opt.seeds << " seed(s) passed\n";
    return out;
}

} // namespace morrigan::check
