#include "simulator.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>
#include <optional>
#include <string>
#include <type_traits>

#include "check/invariants.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/telemetry.hh"
#include "icache/fnl_mma.hh"
#include "sim/result_cache.hh"
#include "sim/trace_feed.hh"

namespace morrigan
{

Simulator::Simulator(const SimConfig &cfg)
    : cfg_(cfg),
      phys_(1ULL << 22, 1),
      pageTable_(phys_, cfg.pageTableDepth, cfg.pageTableFormat),
      mem_(cfg.mem),
      walker_(cfg.walker, pageTable_, mem_),
      tlbs_(cfg.tlb),
      pb_(cfg.pbEntries, pbLatency)
{
    switch (cfg_.icachePref) {
      case ICachePrefKind::None:
        break;
      case ICachePrefKind::NextLine:
        icachePref_ = std::make_unique<NextLinePrefetcher>(1);
        break;
      case ICachePrefKind::FnlMma:
        icachePref_ = std::make_unique<FnlMmaPrefetcher>();
        break;
    }
    if (cfg_.checkLevel > 0) {
        // Attach before any workload premaps so the reference model
        // sees every mapping from the first one.
        checker_ = std::make_unique<check::DiffChecker>();
        pageTable_.setObserver(checker_.get());
    }
}

void
Simulator::attachWorkload(TraceSource *trace, unsigned tid)
{
    fatal_if(tid >= 2, "at most two hardware threads");
    fatal_if(workloads_[tid] != nullptr,
             "thread %u already has a workload", tid);
    workloads_[tid] = trace;
    numThreads_ = std::max(numThreads_, tid + 1);
    premapRegions(trace, tid);
}

void
Simulator::attachPrefetcher(TlbPrefetcher *prefetcher)
{
    prefetcher_ = prefetcher;
}

PrefetchTracer &
Simulator::enableTracer(std::ostream *event_sink)
{
    if (!tracer_) {
        tracer_ = std::make_unique<PrefetchTracer>();
        pb_.setObserver(tracer_.get());
    }
    if (event_sink)
        tracer_->setEventSink(event_sink);
    return *tracer_;
}

IntervalSampler &
Simulator::enableIntervalSampler(std::uint64_t interval)
{
    enableTracer();  // per-component epoch metrics need the counters
    if (!sampler_ || sampler_->interval() != interval) {
        sampler_ = std::make_unique<IntervalSampler>(interval);
        sampler_->beginMeasurement(epochCounters());  // the run's records
    }
    return *sampler_;
}

bool
Simulator::pbActive() const
{
    if (cfg_.prefetchIntoStlb)
        return false;
    if (prefetcher_)
        return true;
    // IPC-1 prefetchers are configured to store the PTEs of their
    // beyond-page-boundary prefetches in the STLB PB (Section 3.5),
    // so the PB serves demand misses even without an STLB prefetcher.
    return icachePref_ && icachePref_->crossesPageBoundaries() &&
           cfg_.icacheTranslationCost;
}

Addr
Simulator::threadAddr(Addr va, unsigned tid) const
{
    if (tid == 0)
        return va;
    return va + (cfg_.smtThread1VpnOffset << pageShift);
}

void
Simulator::premapRegions(TraceSource *trace, unsigned tid)
{
    for (const auto &[base, count] : trace->mappedRegions()) {
        Vpn vbase = pageOf(threadAddr(pageBase(base), tid));
        pageTable_.mapRange(vbase, count);
    }
    for (const auto &[base, count] : trace->largeMappedRegions()) {
        Vpn vbase = pageOf(threadAddr(pageBase(base), tid));
        pageTable_.mapLargeRange(vbase, count);
    }
}

void
Simulator::drainPendingLineFills()
{
    Cycle t = now();
    while (!pendingLineFills_.empty() &&
           pendingLineFills_.top().first <= t) {
        mem_.commitInstructionPrefetch(pendingLineFills_.top().second);
        pendingLineFills_.pop();
    }
}

void
Simulator::issueSpatialFills(Vpn target, Cycle ready_at,
                             PrefetchProducer producer)
{
    // Page table locality: the fetched 64-byte line carries up to 7
    // more PTEs; install them in the PB for free.
    unsigned count = 0;
    auto neighbors = pageTable_.lineNeighbors(target, &count);
    for (unsigned i = 0; i < count; ++i) {
        const auto [n, pfn] = neighbors[i];
        if (n == target || pb_.contains(n))
            continue;
        PbEntry entry;
        entry.pfn = pfn;
        entry.readyAt = ready_at;
        entry.tag.producer = producer;
        entry.tag.sourcePage = target;
        entry.tag.distance = static_cast<PageDelta>(n) -
                             static_cast<PageDelta>(target);
        entry.insertSeq = istlbMisses();
        if (tracer_)
            entry.traceId =
                tracer_->onIssued(entry.tag, n, now());
        if (cfg_.prefetchIntoStlb) {
            tlbs_.fillStlbOnly(n, pfn, AccessType::Instruction);
            if (tracer_)
                tracer_->onStlbFill(entry.tag, entry.traceId, now());
        } else {
            pbInsert(n, entry);
        }
    }
}

void
Simulator::pbInsert(Vpn vpn, const PbEntry &entry)
{
    Vpn evicted = 0;
    if (!pb_.insert(vpn, entry, &evicted))
        return;
    if (!cfg_.correctingWalks)
        return;
    // A PTE left the PB unused: its access bit was set by the
    // prefetch but the page may not belong to the active footprint.
    // Issue a correcting walk to clear it -- but only when the
    // walker is otherwise idle, so no demand walk is delayed.
    if (walker_.earliestStart(now()) == now())
        walker_.walk(evicted, WalkKind::Correcting, now());
}

void
Simulator::issueTlbPrefetch(const PrefetchRequest &req)
{
    telemetry::ScopedSpan span(telemetry::Phase::PrefetchWalk);
    std::uint64_t trace_id =
        tracer_ ? tracer_->onIssued(req.tag, req.vpn, now()) : 0;

    // Duplicate filter against the PB only; probing the STLB would
    // contend with demand lookups (Section 2.1 note (iii)).
    if (!cfg_.prefetchIntoStlb && pb_.contains(req.vpn)) {
        ++c_.prefetchesDiscarded;
        if (tracer_)
            tracer_->onDropped(req.tag, trace_id,
                               PrefetchDropReason::Duplicate, now());
        return;
    }

    WalkResult wr =
        prefetchWalk(req.vpn, req.tag, trace_id, tracer_ != nullptr);
    if (!wr.success)
        return;  // non-faulting prefetch to an unmapped page

    if (cfg_.prefetchIntoStlb) {
        tlbs_.fillStlbOnly(req.vpn, wr.pfn, AccessType::Instruction);
        if (tracer_)
            tracer_->onStlbFill(req.tag, trace_id, now());
    } else {
        PbEntry entry;
        entry.pfn = wr.pfn;
        entry.readyAt = wr.completeCycle;
        entry.tag = req.tag;
        entry.insertSeq = istlbMisses();
        entry.traceId = trace_id;
        pbInsert(req.vpn, entry);
    }

    if (req.spatial) {
        PrefetchProducer spatial_producer =
            req.tag.producer == PrefetchProducer::Irip
                ? PrefetchProducer::IripSpatial
                : PrefetchProducer::SdpSpatial;
        issueSpatialFills(req.vpn, wr.completeCycle, spatial_producer);
    }
}

WalkResult
Simulator::prefetchWalk(Vpn vpn, const PrefetchTag &tag,
                        std::uint64_t trace_id, bool traced)
{
    WalkResult wr = walker_.walk(vpn, WalkKind::Prefetch, now());
    if (!traced)
        return wr;
    if (wr.success)
        tracer_->onWalkComplete(tag, trace_id, wr.latency, wr.memRefs,
                                wr.completeCycle);
    else
        tracer_->onDropped(tag, trace_id, PrefetchDropReason::Unmapped,
                           now());
    return wr;
}

void
Simulator::engagePrefetcher(Vpn vpn, Addr pc, unsigned tid)
{
    if (!prefetcher_)
        return;
    telemetry::ScopedSpan span(telemetry::Phase::PrefetcherEngage);
    reqScratch_.clear();
    prefetcher_->onInstrStlbMiss(vpn, pc, tid, reqScratch_);
    for (const PrefetchRequest &req : reqScratch_)
        issueTlbPrefetch(req);
}

Pfn
Simulator::resolveInstrTranslation(Vpn vpn, Addr pc, unsigned tid)
{
    TlbLookupResult tr = tlbs_.lookup(vpn, AccessType::Instruction);
    if (tr.level == TlbHitLevel::L1)
        return tr.pfn;  // pipelined, no stall

    // L1 I-TLB miss: the STLB lookup is on the critical path.
    charge(Stall::Istlb,
           static_cast<double>(tlbs_.stlb().params().latency));
    if (tr.level == TlbHitLevel::Stlb) {
        // With P2TLB, STLB entries can come straight from prefetches
        // that were never demand-verified; cross-check them here.
        if (checker_ && cfg_.prefetchIntoStlb)
            checker_->onTranslation(
                vpn, tr.pfn, check::TranslationSource::StlbPrefetch,
                now(), tid);
        if (cfg_.prefetchOnStlbHits)
            engagePrefetcher(vpn, pc, tid);
        return tr.pfn;
    }

    if (cfg_.perfectIstlb) {
        // Idealisation: every iSTLB lookup hits (Figure 9/18 bound).
        WalkPath p = pageTable_.walk(vpn, true);
        if (checker_)
            checker_->onTranslation(
                vpn, p.pfn, check::TranslationSource::PerfectIstlb,
                now(), tid);
        tlbs_.fill(vpn, p.pfn, AccessType::Instruction);
        return p.pfn;
    }

    // --- genuine iSTLB miss ---
    if (cfg_.collectMissStream)
        missStream_.push_back(vpn);

    Pfn pfn = 0;
    bool covered = false;
    if (pbActive()) {
        charge(Stall::Istlb, static_cast<double>(pb_.latency()));
        PbLookupResult pr = pb_.lookupAndConsume(vpn, now());
        if (pr.hit) {
            covered = true;
            switch (pr.entry.tag.producer) {
              case PrefetchProducer::Irip:
              case PrefetchProducer::IripSpatial:
                ++c_.pbHitsIrip;
                break;
              case PrefetchProducer::Sdp:
              case PrefetchProducer::SdpSpatial:
                ++c_.pbHitsSdp;
                break;
              case PrefetchProducer::ICache:
                ++c_.pbHitsICache;
                break;
              default:
                break;
            }
            {
                std::uint64_t d = istlbMisses() - pr.entry.insertSeq;
                unsigned b = 0;
                while (b < 7 && d > (1ull << b))
                    ++b;
                ++c_.pbHitDistance[b];
            }
            if (pr.pending) {
                // Walk still in flight: wait for it instead of
                // issuing a new one (partial coverage).
                charge(Stall::Istlb, static_cast<double>(
                                         pr.entry.readyAt - now()));
            }
            pfn = pr.entry.pfn;
            if (checker_)
                checker_->onTranslation(
                    vpn, pfn, check::TranslationSource::PbHit, now(),
                    tid, &pr.entry.tag);
            tlbs_.fill(vpn, pfn, AccessType::Instruction);
            if (prefetcher_)
                prefetcher_->creditPbHit(pr.entry.tag);
        }
    }

    if (!covered) {
        telemetry::ScopedSpan span(telemetry::Phase::DemandWalk);
        WalkResult wr = walker_.walk(vpn, WalkKind::DemandInstr, now());
        charge(Stall::Istlb, static_cast<double>(
                                 wr.latency + frontendRedirectPenalty));
        pfn = wr.pfn;
        ++instrDemandWalkSeq_;
        if (cfg_.injectWalkerBugPeriod != 0 &&
            instrDemandWalkSeq_ % cfg_.injectWalkerBugPeriod == 0) {
            // Deliberate fault injection (see SimConfig): corrupt
            // the frame the walker produced before it is installed.
            pfn ^= 1;
        }
        if (checker_)
            checker_->onTranslation(
                vpn, pfn, check::TranslationSource::DemandWalk,
                now(), tid);
        tlbs_.fill(vpn, pfn, AccessType::Instruction);
    }

    // The prefetcher is engaged on both PB hits and misses
    // (Figure 12 step 7).
    engagePrefetcher(vpn, pc, tid);
    return pfn;
}

void
Simulator::handleICachePrefetches(Addr pc, bool l1i_miss, Pfn cur_pfn,
                                  unsigned tid)
{
    (void)tid;
    if (!icachePref_)
        return;
    icacheScratch_.clear();
    icachePref_->onFetch(pc, l1i_miss, icacheScratch_);

    Vpn cur_vpn = pageOf(pc);
    for (Addr target : icacheScratch_) {
        ++c_.icachePrefetches;
        Vpn tvpn = pageOf(target);
        Pfn tpfn = 0;
        Cycle translation_delay = 0;
        if (tvpn == cur_vpn) {
            tpfn = cur_pfn;
        } else {
            ++c_.icacheCrossPage;
            // Beyond-page-boundary prefetch: the line address needs a
            // translation of its own.
            if (const TlbEntry *e = tlbs_.itlb().probeEntry(tvpn)) {
                tpfn = e->pfn;
            } else if (const TlbEntry *s =
                           tlbs_.stlb().probeEntry(tvpn)) {
                tpfn = s->pfn;
            } else if (!cfg_.icacheTranslationCost) {
                ++c_.icacheCrossPageNeedingWalk;
                // IPC-1 idealisation: translations are free.
                TranslateResult p = pageTable_.translate(tvpn);
                if (!p.mapped)
                    continue;
                tpfn = p.pfn;
            } else if (const PbEntry *b = pb_.peek(tvpn)) {
                // Synergy with an STLB prefetcher: the translation
                // was already prefetched (Section 6.5's 51.7%).
                ++c_.icacheCrossPageNeedingWalk;
                ++c_.icacheCrossPagePbHits;
                tpfn = b->pfn;
                if (b->readyAt > now())
                    translation_delay = b->readyAt - now();
            } else {
                // The I-cache prefetcher triggers its own prefetch
                // page walk and stores the PTE in the PB
                // (Section 3.5's extended IPC-1 configuration).
                telemetry::ScopedSpan span(
                    telemetry::Phase::PrefetchWalk);
                ++c_.icacheCrossPageNeedingWalk;
                PbEntry entry;
                entry.tag.producer = PrefetchProducer::ICache;
                entry.tag.sourcePage = cur_vpn;
                entry.tag.distance = static_cast<PageDelta>(tvpn) -
                                     static_cast<PageDelta>(cur_vpn);
                // In P2TLB mode the PTE is not installed anywhere;
                // nothing to trace in that case.
                bool traced = tracer_ && !cfg_.prefetchIntoStlb;
                if (traced)
                    entry.traceId =
                        tracer_->onIssued(entry.tag, tvpn, now());
                WalkResult wr =
                    prefetchWalk(tvpn, entry.tag, entry.traceId, traced);
                if (!wr.success)
                    continue;
                tpfn = wr.pfn;
                translation_delay = wr.completeCycle - now();
                entry.pfn = wr.pfn;
                entry.readyAt = wr.completeCycle;
                if (!cfg_.prefetchIntoStlb)
                    pbInsert(tvpn, entry);
            }
        }

        Addr paddr = (tpfn << pageShift) + pageOffset(target);
        std::optional<Cycle> fill_latency =
            mem_.prefetchInstructionLine(paddr);
        if (fill_latency)
            pendingLineFills_.emplace(
                now() + translation_delay + *fill_latency, paddr);
    }
}

void
Simulator::fetchLine(Addr pc, unsigned tid)
{
    drainPendingLineFills();

    Vpn vpn = pageOf(pc);
    Pfn pfn = resolveInstrTranslation(vpn, pc, tid);

    Addr paddr = (pfn << pageShift) + pageOffset(pc);
    MemAccessResult mr = mem_.access(paddr, AccessType::Instruction);
    bool l1i_miss = mr.servedBy != MemLevel::L1;
    if (l1i_miss) {
        // The L1 hit latency is pipelined; the miss portion stalls
        // the frontend, partially hidden by fetch-ahead.
        charge(Stall::Icache,
               static_cast<double>(mr.latency -
                                   mem_.l1i().params().latency) *
                   fetchOverlapFactor);
    }

    handleICachePrefetches(pc, l1i_miss, pfn, tid);
}

void
Simulator::handleData(Addr va, unsigned tid)
{
    (void)tid;
    Vpn vpn = pageOf(va);
    TlbLookupResult tr = tlbs_.lookup(vpn, AccessType::Data);
    Pfn pfn = tr.pfn;

    if (tr.level == TlbHitLevel::Stlb) {
        charge(Stall::Data,
               static_cast<double>(tlbs_.stlb().params().latency) *
                   dataMlpFactor);
    } else if (tr.level == TlbHitLevel::Miss) {
        telemetry::ScopedSpan span(telemetry::Phase::DataWalk);
        WalkResult wr = walker_.walk(vpn, WalkKind::DemandData, now());
        charge(Stall::Data,
               static_cast<double>(wr.latency) * dataMlpFactor);
        pfn = wr.pfn;
        if (checker_)
            checker_->onTranslation(
                vpn, pfn, check::TranslationSource::DataWalk, now(),
                tid);
        tlbs_.fill(vpn, wr.large ? wr.basePfn : wr.pfn,
                   AccessType::Data, wr.large);
    }

    Addr paddr = (pfn << pageShift) + pageOffset(va);
    MemAccessResult mr = mem_.access(paddr, AccessType::Data);
    if (mr.servedBy != MemLevel::L1) {
        charge(Stall::Data,
               static_cast<double>(mr.latency -
                                   mem_.l1d().params().latency) *
                   dataMlpFactor);
    }
}

void
Simulator::contextSwitch()
{
    ++c_.contextSwitches;
    tlbs_.flush();
    pb_.flush();
    walker_.psc().flush();
    if (prefetcher_)
        prefetcher_->onContextSwitch();
    // A context switch also costs a direct penalty (kernel entry,
    // state save/restore); charge a small constant.
    charge(Stall::ContextSwitch, 2000.0);
}

void
Simulator::simulateInstruction(const TraceRecord &rec, unsigned tid)
{
    // An epoch closes when the next instruction starts, so the run's
    // last epoch, boundary or not, closes in run() after the tracer's
    // end-of-run classification.
    if (sampler_ && c_.instructions >= nextSampleAt_) {
        takeIntervalSample();
        nextSampleAt_ += sampler_->interval();
    }
    charge(Stall::Base, 1.0 / coreWidth);
    ++c_.instructions;
    if (cfg_.contextSwitchInterval != 0 &&
        ++sinceContextSwitch_ >= cfg_.contextSwitchInterval) {
        sinceContextSwitch_ = 0;
        contextSwitch();
    }

    Addr pc = threadAddr(rec.pc, tid);
    Addr line = lineOf(pc);
    if (line != lastFetchLine_[tid]) {
        lastFetchLine_[tid] = line;
        fetchLine(pc, tid);
    }

    if (rec.hasData)
        handleData(threadAddr(rec.dataAddr, tid), tid);
}

void
Simulator::takeIntervalSample()
{
    sampler_->record(epochCounters());
}

EpochCounters
Simulator::epochCounters() const
{
    EpochCounters e{c_, cycles_ - measureStartCycles_,
                    prefetcher_ ? prefetcher_->frequencyStackResets() : 0,
                    {}};
    forEachCounters(*this, [&e](std::string_view path, const auto &rec) {
        e.records.list.emplace_back(path, rec);
    });
    return e;
}

void
Simulator::beginMeasurementPhase()
{
    measurePhase_ = true;
    c_ = RunCounters{};
    forEachCounters(*this, [](std::string_view, auto &rec) { rec = {}; });
    missStream_.clear();
    measureStartCycles_ = cycles_;
    if (tracer_)
        tracer_->beginMeasurement(now());
    if (sampler_) {
        // The prefetcher's frequency-stack resets are not measurement
        // state: the first epoch counts from where warmup left them.
        sampler_->beginMeasurement(epochCounters());
        nextSampleAt_ = sampler_->interval();
    }
}

SimResult
Simulator::run()
{
    fatal_if(numThreads_ == 0, "no workload attached");
    // Everything per-instruction (TLB/PSC hit lookups, the cache hit
    // path) lands in this span's *self* time; miss-path events below
    // carry their own child spans (see common/telemetry.hh). Workload
    // generation runs on the feed threads, outside this span.
    telemetry::ScopedSpan span(telemetry::Phase::SimRun);

    // Each workload runs on its own producer thread (trace_feed.hh);
    // the feeds' destructors stop and join them on every exit,
    // exceptions included, so no producer outlives run().
    std::optional<TraceFeed> feeds[2];
    for (unsigned tid = 0; tid < numThreads_; ++tid)
        feeds[tid].emplace(*workloads_[tid]);

    // Basic-block-grained round robin between SMT threads. Progress
    // within the phase is c_.instructions (it starts from zero at
    // construction and again at the measurement reset), which makes
    // the loop resumable: a restored simulator re-enters here and
    // continues with the same round boundaries.
    constexpr unsigned blockSize = 8;
    const std::uint64_t perRound = std::uint64_t{blockSize} * numThreads_;
    std::uint64_t granted = 0;  // records per thread

    // Each segment runs to the phase target or to the next autosave,
    // whichever comes first, and the producers may run ahead exactly
    // that far: at its end every granted record has been simulated,
    // so the sources stand where serial generation would leave them.
    auto step = [&](std::uint64_t target) {
        while (c_.instructions < target) {
            std::uint64_t left = target - c_.instructions;
            if (checkpointEvery_ != 0) {
                const std::uint64_t progress = progressInstructions();
                left = std::min(left, nextCheckpointAt_ > progress
                                          ? nextCheckpointAt_ - progress
                                          : 0);
            }
            const std::uint64_t rounds = std::max<std::uint64_t>(
                1, (left + perRound - 1) / perRound);
            granted += rounds * blockSize;
            for (unsigned tid = 0; tid < numThreads_; ++tid)
                feeds[tid]->grant(granted);
            for (std::uint64_t r = 0; r < rounds; ++r) {
                for (unsigned tid = 0; tid < numThreads_; ++tid) {
                    TraceFeed &feed = *feeds[tid];
                    const TraceRecord *block = feed.acquire(blockSize);
                    for (unsigned i = 0; i < blockSize; ++i)
                        simulateInstruction(block[i], tid);
                    feed.release(blockSize);
                }
            }
            for (unsigned tid = 0; tid < numThreads_; ++tid)
                panic_if(!feeds[tid]->drained(),
                         "trace feed %u not drained at a save point", tid);
            maybeCheckpoint();
        }
    };

    if (!measurePhase_) {
        step(cfg_.warmupInstructions);
        beginMeasurementPhase();
        if (!warmupImagePath_.empty()) {
            // Publish the warmup image exactly at the reset point so
            // restoring it is indistinguishable from having warmed up.
            try {
                saveCheckpoint(warmupImagePath_);
            } catch (const SnapshotError &e) {
                warn("warmup image not written: %s", e.what());
            }
        }
    }

    step(cfg_.simInstructions);

    // Classify what is still in flight so the lifecycle outcome
    // counts reconcile, then close the last epoch (if it has
    // instructions) so it carries that classification.
    if (tracer_)
        tracer_->finalize(pb_, now());
    if (sampler_ && c_.instructions + sampler_->interval() >
                        nextSampleAt_)
        takeIntervalSample();
    // Every cycle is charged to exactly one bucket. Armed by the
    // config's check level as well as the process-wide one.
    const double measured = cycles_ - measureStartCycles_;
    double buckets = 0.0;
    for (double RunCounters::*b : stallBucket)
        buckets += c_.*b;
    MORRIGAN_CHECK_INVARIANT_IF(
        cfg_.checkLevel >= 1 || check::invariantCheckLevel() >= 1,
        std::abs(buckets - measured) <=
            ledgerTolerance(c_.instructions) * cycles_,
        "cycle ledger: buckets sum to %.17g of %.17g", buckets,
        measured);
    return buildResult();
}

std::uint64_t
Simulator::progressInstructions() const
{
    return (measurePhase_ ? cfg_.warmupInstructions : 0) +
           c_.instructions;
}

void
Simulator::setCheckpointing(std::string path,
                            std::uint64_t every_instructions)
{
    checkpointPath_ = std::move(path);
    checkpointEvery_ =
        checkpointPath_.empty() ? 0 : every_instructions;
    if (checkpointEvery_ != 0)
        nextCheckpointAt_ =
            (progressInstructions() / checkpointEvery_ + 1) *
            checkpointEvery_;
}

void
Simulator::setWarmupImagePath(std::string path)
{
    warmupImagePath_ = std::move(path);
}

void
Simulator::maybeCheckpoint()
{
    if (checkpointEvery_ == 0)
        return;
    std::uint64_t progress = progressInstructions();
    if (progress < nextCheckpointAt_)
        return;
    while (nextCheckpointAt_ <= progress)
        nextCheckpointAt_ += checkpointEvery_;
    try {
        saveCheckpoint(checkpointPath_);
    } catch (const SnapshotError &e) {
        // Autosave must never take the simulation down; fall back to
        // checkpoint-less operation.
        warn("checkpoint not written, autosave disabled: %s",
             e.what());
        checkpointEvery_ = 0;
    }
}

template <class Self, class Ar>
void
Simulator::transfer(Self &self, Ar &ar)
{
    if constexpr (!Ar::loading) {
        if (self.checker_)
            throw SnapshotError(
                "differential-checker state is not snapshottable "
                "(checkLevel > 0)");
    }

    ar.section("simulator");

    // Identity, checked before restore writes any state. The
    // SimConfig part of warmupKey() leaves out the measurement
    // length: a warmup image serves any measurement budget (that is
    // what makes it shareable across a sweep). Workloads check their
    // own parameters when they restore.
    const std::string config = warmupConfigKey(self.cfg_);
    if constexpr (Ar::loading) {
        const std::string got = ar.str();
        if (got != config)
            throw SnapshotError("configuration mismatch: snapshot has " +
                                firstKeyField(got, config) +
                                ", simulator has " +
                                firstKeyField(config, got));
    } else {
        ar.io(config);
    }
    ar.expect(self.numThreads_, "thread count");
    ar.expect(std::string(self.prefetcher_ ? self.prefetcher_->name()
                                           : "none"),
              "prefetcher");
    ar.expect(self.prefetcher_ ? self.prefetcher_->storageBits()
                               : std::size_t{0},
              "prefetcher storage budget");
    ar.expect(self.tracer_ != nullptr, "tracer attachment");
    ar.expect(self.sampler_ != nullptr, "interval sampler attachment");

    // Run position.
    ar.io(self.measurePhase_);
    ar.io(self.cycles_);
    ar.io(self.measureStartCycles_);
    ar.io(self.sinceContextSwitch_);
    for (unsigned tid = 0; tid < self.numThreads_; ++tid)
        ar.io(self.lastFetchLine_[tid]);
    ar.io(self.instrDemandWalkSeq_);
    ar.io(self.nextSampleAt_);

    // Measurement counters.
    ar.io(self.c_);

    // In-flight I-prefetch line fills, in readyAt order.
    std::vector<PendingFill> fills;
    for (auto q = self.pendingLineFills_; !q.empty(); q.pop())
        fills.push_back(q.top());
    std::uint64_t n = fills.size();
    ar.count(n, sizeof(PendingFill));
    if constexpr (Ar::loading)
        fills.assign(n, {});
    ar.io(fills);
    if constexpr (Ar::loading)
        self.pendingLineFills_ = decltype(self.pendingLineFills_)(
            std::greater<>{}, std::move(fills));

    // Components, construction order.
    ar.io(self.phys_);
    ar.io(self.pageTable_);
    ar.io(self.mem_);
    ar.io(self.walker_);
    ar.io(self.tlbs_);
    ar.io(self.pb_);
    for (unsigned tid = 0; tid < self.numThreads_; ++tid)
        ar.io(*self.workloads_[tid]);
    if (self.prefetcher_)
        ar.io(*self.prefetcher_);
    if (self.icachePref_)
        ar.io(*self.icachePref_);
    if (self.tracer_)
        ar.io(*self.tracer_);
    if (self.sampler_)
        ar.io(*self.sampler_);

    // The component counter records, in list order.
    ar.section("counters");
    forEachCounters(self,
                    [&ar](std::string_view, auto &rec) { ar.io(rec); });

    // The miss stream last. It is empty at the warmup boundary, so a
    // warmup image is the same with and without collection. A
    // collecting run holds one VPN per iSTLB miss counted so far, and
    // restores only an image that collected as it does.
    std::uint64_t misses = self.missStream_.size();
    ar.count(misses, sizeof(Vpn));
    if constexpr (Ar::loading) {
        const std::uint64_t want =
            self.cfg_.collectMissStream ? self.istlbMisses() : 0;
        if (misses != want)
            throw SnapshotError("miss stream of " +
                                std::to_string(misses) +
                                " VPNs, expected " + std::to_string(want));
        self.missStream_.assign(misses, 0);
    }
    ar.io(self.missStream_);
    if constexpr (Ar::loading)
        self.setCheckpointing(self.checkpointPath_,
                              self.checkpointEvery_);
}

void Simulator::save(SnapshotWriter &w) const { transfer(*this, w); }
void Simulator::restore(SnapshotReader &r) { transfer(*this, r); }

void
Simulator::saveCheckpoint(const std::string &path) const
{
    telemetry::ScopedSpan span(telemetry::Phase::CheckpointSave);
    SnapshotWriter w;
    save(w);
    w.writeToFile(path, progressInstructions(), totalInstructions());
}

void
Simulator::restoreCheckpoint(const std::string &path)
{
    SnapshotReader r(path);
    // A longer run's checkpoint past this run's end is no prefix.
    if (r.header().progressInstructions > totalInstructions())
        throw SnapshotError("snapshot is past this run's end");
    restore(r);
    r.finish();
}

template <class Self, class F>
void
Simulator::forEachCounters(Self &sim, F &&f)
{
    f("sim.mem", sim.mem_.stats());
    f("sim.mem.l1i", sim.mem_.l1i().stats());
    f("sim.mem.l1d", sim.mem_.l1d().stats());
    f("sim.mem.l2", sim.mem_.l2().stats());
    f("sim.mem.llc", sim.mem_.llc().stats());
    f("sim.mem.dram", sim.mem_.dram().stats());
    f("sim.psc", sim.walker_.psc().stats());
    f("sim.walker", sim.walker_.stats());
    f("sim.tlb.itlb", sim.tlbs_.itlb().stats());
    f("sim.tlb.dtlb", sim.tlbs_.dtlb().stats());
    f("sim.tlb.stlb", sim.tlbs_.stlb().stats());
    f("sim.pb", sim.pb_.stats());
    if (!sim.tracer_)
        return;
    for (unsigned c = 0; c < PrefetchTracer::numComponents; ++c) {
        const std::string path = std::string("sim.prefetch_trace.") +
                                 PrefetchTracer::componentName(c);
        f(path, sim.tracer_->outcomes(c));
    }
}

template <class F>
void
Simulator::forEachStats(F &&f) const
{
    f("sim.page_table", pageTable_.stats());
    forEachCounters(*this, f);
}

namespace
{

/** One `prefix.name value` line per scalar of @p rec. */
template <class R>
void
writeStatLines(std::ostream &os, const std::string &prefix, const R &rec)
{
    forEachScalar(rec, prefix + '.', [&os](const std::string &name, auto v) {
        os << name << ' ';
        if constexpr (std::is_same_v<decltype(v), double>) {
            char buf[32];
            auto res = std::to_chars(buf, buf + sizeof(buf), v);
            os << std::string_view(buf, res.ptr - buf) << '\n';
        } else {
            os << v << '\n';
        }
    });
}

} // namespace

void
Simulator::writeStats(std::ostream &os) const
{
    forEachStats([&os](std::string_view path, const auto &rec) {
        writeStatLines(os, std::string(path), rec);
    });
}

void
Simulator::writeStatsJson(json::Writer &w) const
{
    w.beginObject();
    forEachStats([&w](std::string_view path, const auto &rec) {
        w.key(path).beginObject();
        json::writeFields(w, rec);
        w.endObject();
    });
    w.endObject();
}

SimResult
Simulator::buildResult() const
{
    SimResult r;
    r.workload = workloads_[0]->name();
    if (numThreads_ > 1)
        r.workload += "+" + workloads_[1]->name();
    r.prefetcher = prefetcher_ ? prefetcher_->name() : "none";

    r.instructions = c_.instructions;
    r.cycles = cycles_ - measureStartCycles_;
    r.ipc = r.cycles > 0.0
                ? static_cast<double>(r.instructions) / r.cycles
                : 0.0;

    const Tlb::Stats &stlb = tlbs_.stlb().stats();
    const PageTableWalker::Stats &walks = walker_.stats();
    double kilo_instr = static_cast<double>(r.instructions) / 1000.0;
    r.istlbMisses = istlbMisses();
    r.dstlbMisses = stlb.dataMisses;
    r.l1iMpki = mem_.l1i().stats().misses / kilo_instr;
    r.itlbMpki = tlbs_.itlb().stats().instrMisses / kilo_instr;
    r.istlbMpki = r.istlbMisses / kilo_instr;
    r.dstlbMpki = r.dstlbMisses / kilo_instr;

    r.pbHits = pb_.stats().hits;
    r.pbHitsIrip = c_.pbHitsIrip;
    r.pbHitsSdp = c_.pbHitsSdp;
    r.pbHitsICache = c_.pbHitsICache;
    for (unsigned b = 0; b < numStalls; ++b)
        r.*cycleFraction[b] =
            r.cycles > 0.0 ? c_.*stallBucket[b] / r.cycles : 0.0;
    r.coverage = r.istlbMisses > 0
                     ? static_cast<double>(r.pbHits) /
                       static_cast<double>(r.istlbMisses)
                     : 0.0;

    auto refs = [](const PageTableWalker::KindStats &k) {
        return std::accumulate(k.refsByLevel.begin(), k.refsByLevel.end(),
                               std::uint64_t{0});
    };
    auto mean = [](const Distribution &d) {
        return d.count > 0 ? d.sum / d.count : 0.0;
    };
    r.demandWalks =
        walks.demandInstr.latency.count + walks.demandData.latency.count;
    r.demandWalksInstr = walks.demandInstr.latency.count;
    r.demandWalkRefs = refs(walks.demandInstr) + refs(walks.demandData);
    r.demandWalkRefsInstr = refs(walks.demandInstr);
    r.prefetchWalks = walks.prefetch.latency.count;
    r.prefetchWalkRefs = refs(walks.prefetch);
    r.prefetchWalkRefsByLevel = walks.prefetch.refsByLevel;
    r.meanDemandWalkLatencyInstr = mean(walks.demandInstr.latency);
    r.meanDemandWalkLatencyData = mean(walks.demandData.latency);

    r.icachePrefetches = c_.icachePrefetches;
    r.icacheCrossPagePrefetches = c_.icacheCrossPage;
    r.icacheCrossPageNeedingWalk = c_.icacheCrossPageNeedingWalk;
    r.icacheCrossPagePbHits = c_.icacheCrossPagePbHits;
    r.pbHitDistance = c_.pbHitDistance;
    r.contextSwitches = c_.contextSwitches;
    r.correctingWalks = walks.correcting.latency.count;
    if (checker_) {
        r.checkedTranslations = checker_->checked();
        r.checkMismatches = checker_->mismatches();
        r.checkMappedPages = checker_->ref().mappedPages();
        r.checkReport = checker_->report();
    }
    return r;
}

} // namespace morrigan
