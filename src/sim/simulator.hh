/**
 * @file
 * Trace-driven, cycle-approximate core simulator.
 *
 * Models what the paper's numbers depend on (see DESIGN.md §5):
 *
 * - a 4-wide core retiring width instructions per cycle when nothing
 *   stalls,
 * - instruction-side events (I-cache misses, STLB lookups, iSTLB
 *   misses with their page walks) serialize the frontend and charge
 *   their full latency,
 * - data-side events (dSTLB misses, data-cache misses) are largely
 *   hidden by out-of-order execution; a calibrated MLP factor
 *   determines the exposed fraction,
 * - page walks flow through the shared walker ports, so prefetch
 *   walks contend with demand walks,
 * - prefetched PTEs become visible in the PB only when their walk
 *   completes (in-flight entries cause partial stalls), and I-cache
 *   prefetched lines install only after their fill (and, for
 *   beyond-page prefetches, their translation) completes -- the
 *   timeliness effects behind Findings 5 and Figure 19's synergy.
 *
 * Single-threaded and dual-threaded SMT (Section 6.6) drivers share
 * the same datapath; SMT interleaves two workloads one basic block at
 * a time and disambiguates their address spaces with a fixed VPN
 * offset.
 */

#ifndef MORRIGAN_SIM_SIMULATOR_HH
#define MORRIGAN_SIM_SIMULATOR_HH

#include <memory>
#include <ostream>
#include <queue>
#include <string_view>
#include <vector>

#include "check/checker.hh"
#include "common/snapshot.hh"
#include "core/tlb_prefetcher.hh"
#include "icache/icache_prefetcher.hh"
#include "mem/memory_hierarchy.hh"
#include "sim/interval_sampler.hh"
#include "sim/prefetch_tracer.hh"
#include "sim/run_counters.hh"
#include "sim/sim_config.hh"
#include "tlb/prefetch_buffer.hh"
#include "tlb/tlb_hierarchy.hh"
#include "vm/page_table.hh"
#include "vm/phys_mem.hh"
#include "vm/walker.hh"
#include "workload/trace.hh"

namespace morrigan
{

namespace json
{
class Writer;
}

/** The system simulator. */
class Simulator
{
  public:
    explicit Simulator(const SimConfig &cfg);

    /** Attach the workload for hardware thread @p tid (0 or 1). */
    void attachWorkload(TraceSource *trace, unsigned tid = 0);

    /** Attach the (optional) STLB prefetcher. Not owned. */
    void attachPrefetcher(TlbPrefetcher *prefetcher);

    /**
     * Enable prefetch lifecycle tracing (see prefetch_tracer.hh).
     * Its counts are listed under sim.prefetch_trace; pass an
     * @p event_sink to also emit the JSONL event log. Idempotent.
     */
    PrefetchTracer &enableTracer(std::ostream *event_sink = nullptr);

    /**
     * Enable the interval time-series sampler: one epoch every
     * @p interval measured instructions (plus a final partial
     * epoch). Implies enableTracer() so per-component accuracy is
     * available per epoch. Idempotent per interval.
     */
    IntervalSampler &enableIntervalSampler(std::uint64_t interval);

    /** The differential checker, or nullptr when
     * SimConfig::checkLevel is 0. */
    check::DiffChecker *checker() { return checker_.get(); }

    /** The tracer, or nullptr when tracing is disabled. */
    PrefetchTracer *tracer() { return tracer_.get(); }
    /** The sampler, or nullptr when sampling is disabled. */
    IntervalSampler *intervalSampler() { return sampler_.get(); }

    /** Run warmup + measurement; returns the measured results. A
     * simulator restored from a checkpoint continues where the image
     * left off and produces results bit-identical to an
     * uninterrupted run. */
    SimResult run();

    // --- checkpoint / resume (see DESIGN.md §12) ---

    /**
     * Autosave a checkpoint to @p path every @p every_instructions
     * executed instructions (warmup + measurement combined), at
     * scheduling-round granularity. The image is published
     * atomically; a run killed mid-write leaves the previous
     * checkpoint intact. Pass an empty path or 0 to disable.
     */
    void setCheckpointing(std::string path,
                          std::uint64_t every_instructions);

    /**
     * Also publish a snapshot to @p path at the warmup->measurement
     * transition (the *warmup image*): restoring it skips warmup
     * entirely, which lets a sweep warm each workload once.
     */
    void setWarmupImagePath(std::string path);

    /**
     * Serialize the full simulator state: every component, the
     * workload generators, the counter records and the run position.
     * @throws SnapshotError for configurations whose state cannot be
     * captured (differential checker, miss-stream collection).
     */
    void save(SnapshotWriter &w) const;

    /**
     * Restore a state written by save() into an identically
     * configured simulator (SimConfig, workloads, prefetcher,
     * observability attachments). A mismatch throws SnapshotError,
     * possibly after part of the state was written, so the caller
     * must not run this simulator: see restoreOrRebuild().
     */
    void restore(SnapshotReader &r);

    /** Write a snapshot image to @p path now (atomic publish). */
    void saveCheckpoint(const std::string &path) const;

    /** Restore from a snapshot file. @throws SnapshotError on any
     * corruption, version or configuration mismatch. */
    void restoreCheckpoint(const std::string &path);

    /** Instructions executed so far, warmup included. */
    std::uint64_t progressInstructions() const;

    /** Instructions a complete run executes, warmup included. */
    std::uint64_t totalInstructions() const
    {
        return cfg_.warmupInstructions + cfg_.simInstructions;
    }

    /** The cumulative counters an interval epoch differences, with a
     * copy of every record forEachCounters() lists. */
    EpochCounters epochCounters() const;

    /** --stats: one `path.field value` line per component record
     * field, nested records under dotted names. */
    void writeStats(std::ostream &os) const;

    /** The --stats-json "stats" object: each component record as
     * one member keyed by its dotted path. */
    void writeStatsJson(json::Writer &w) const;

    /** The VPNs of the measured iSTLB misses, in miss order; empty
     * unless SimConfig::collectMissStream is set. */
    const std::vector<Vpn> &missStream() const { return missStream_; }

    const SimConfig &config() const { return cfg_; }

    // Component access for white-box tests.
    TlbHierarchy &tlbs() { return tlbs_; }
    PageTableWalker &walker() { return walker_; }
    PrefetchBuffer &pb() { return pb_; }
    MemoryHierarchy &mem() { return mem_; }
    const PageTable &pageTable() const { return pageTable_; }
    const PhysMem &physMem() const { return phys_; }

  private:
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

    /**
     * The component counter records, each under its dotted path, in
     * output order: f(path, record). The one list behind the warmup
     * reset and the snapshot; forEachStats() adds the page table's
     * occupancy for --stats and --stats-json.
     */
    template <class Self, class F>
    static void forEachCounters(Self &sim, F &&f);

    /** Every reported record: the page table's occupancy (table
     * state, saved with the table and never reset), then
     * forEachCounters(). */
    template <class F>
    void forEachStats(F &&f) const;

    Cycle now() const { return static_cast<Cycle>(cycles_); }
    /** Advance the clock by @p cycles and count them in @p bucket:
     * the one writer of cycles_ outside restore(). */
    void
    charge(Stall bucket, double cycles)
    {
        cycles_ += cycles;
        c_.*stallBucket[static_cast<unsigned>(bucket)] += cycles;
    }
    /** Whether the PB participates in demand miss handling. */
    bool pbActive() const;
    /** Genuine iSTLB misses: the STLB's instruction misses, none
     * under perfectIstlb. Also the PB's insertion clock. */
    std::uint64_t
    istlbMisses() const
    {
        return cfg_.perfectIstlb ? 0 : tlbs_.stlb().stats().instrMisses;
    }
    Addr threadAddr(Addr va, unsigned tid) const;
    void premapRegions(TraceSource *trace, unsigned tid);
    void simulateInstruction(const TraceRecord &rec, unsigned tid);
    void fetchLine(Addr pc, unsigned tid);
    /** Resolve the instruction translation; returns the PFN and
     * charges all frontend stalls. */
    Pfn resolveInstrTranslation(Vpn vpn, Addr pc, unsigned tid);
    void engagePrefetcher(Vpn vpn, Addr pc, unsigned tid);
    void issueTlbPrefetch(const PrefetchRequest &req);
    /** Prefetch walk of @p vpn: counted, and its end (drop or
     * completion) traced when @p traced. */
    WalkResult prefetchWalk(Vpn vpn, const PrefetchTag &tag,
                            std::uint64_t trace_id, bool traced);
    void pbInsert(Vpn vpn, const PbEntry &entry);
    void issueSpatialFills(Vpn target, Cycle ready_at,
                           PrefetchProducer producer);
    void handleICachePrefetches(Addr pc, bool l1i_miss, Pfn cur_pfn,
                                unsigned tid);
    void handleData(Addr va, unsigned tid);
    void contextSwitch();
    void drainPendingLineFills();
    /** Record one interval epoch: rare, so kept off the
     * per-instruction path. */
    [[gnu::cold]] void takeIntervalSample();
    SimResult buildResult() const;
    /** The post-warmup reset: zero the measurement state. */
    void beginMeasurementPhase();
    /** Autosave when the checkpoint interval has elapsed. */
    void maybeCheckpoint();

    SimConfig cfg_;
    PhysMem phys_;
    PageTable pageTable_;
    MemoryHierarchy mem_;
    PageTableWalker walker_;
    TlbHierarchy tlbs_;
    PrefetchBuffer pb_;

    TlbPrefetcher *prefetcher_ = nullptr;
    std::unique_ptr<ICachePrefetcher> icachePref_;

    // Differential checker (null at checkLevel 0 => every check
    // site costs one branch).
    std::unique_ptr<check::DiffChecker> checker_;
    /** Instruction-side demand walks completed, for the
     * injectWalkerBugPeriod fault-injection knob. */
    std::uint64_t instrDemandWalkSeq_ = 0;

    // Observability (both null => hooks cost one branch each).
    std::unique_ptr<PrefetchTracer> tracer_;
    std::unique_ptr<IntervalSampler> sampler_;
    std::uint64_t nextSampleAt_ = ~std::uint64_t{0};

    TraceSource *workloads_[2] = {nullptr, nullptr};
    unsigned numThreads_ = 0;

    double cycles_ = 0.0;
    double measureStartCycles_ = 0.0;
    std::uint64_t sinceContextSwitch_ = 0;
    Addr lastFetchLine_[2] = {~Addr{0}, ~Addr{0}};

    /** (readyAt, physical line address) of in-flight I-prefetches. */
    using PendingFill = std::pair<Cycle, Addr>;
    std::priority_queue<PendingFill, std::vector<PendingFill>,
                        std::greater<>> pendingLineFills_;

    RunCounters c_;
    std::vector<Vpn> missStream_;
    std::vector<PrefetchRequest> reqScratch_;
    std::vector<Addr> icacheScratch_;

    /** False while warming up, true once measuring. Restored runs
     * re-enter run() with this already set and skip warmup. */
    bool measurePhase_ = false;
    std::string checkpointPath_;
    std::uint64_t checkpointEvery_ = 0;
    std::uint64_t nextCheckpointAt_ = 0;
    std::string warmupImagePath_;
};

} // namespace morrigan

#endif // MORRIGAN_SIM_SIMULATOR_HH
