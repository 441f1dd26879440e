/**
 * @file
 * Prefetch lifecycle tracer.
 *
 * Tags every prefetch Morrigan (or any other engine) issues with a
 * monotonic id and follows it through its whole life:
 *
 *   issued -> (dropped duplicate | prefetch walk) ->
 *   (dropped unmapped | PB install | direct STLB fill) ->
 *   (timely PB hit | late-but-in-flight PB hit |
 *    evicted unused | flushed | resident at end of run)
 *
 * Outcomes are attributed per *component* -- each IRIP PRT table
 * separately, the free cache-line-locality installs, SDP's next-page
 * prefetch, SDP's cache-line-locality installs, and the I-cache
 * prefetcher's beyond-page-boundary walks -- so accuracy, coverage
 * and timeliness can be quoted per engine (the quantities behind
 * Figures 13-19). Each component's counts are one Outcomes record,
 * listed by the simulator under `sim.prefetch_trace.<component>`
 * (--stats, --stats-json), and an optional JSONL event sink records
 * every transition (--trace FILE).
 *
 * Cost model: with no tracer attached every hook in the simulator and
 * the PB is a single null-pointer test. With the tracer attached but
 * no event sink, each hook is a handful of counter increments.
 *
 * Only prefetches issued inside the measurement window are
 * classified, so the lifecycle identity
 *
 *   issued = hits + late hits + evicted(+flushed+residual) + dropped
 *            (+ direct STLB fills in P2TLB mode)
 *
 * holds exactly at the end of a run (see reconciles()).
 */

#ifndef MORRIGAN_SIM_PREFETCH_TRACER_HH
#define MORRIGAN_SIM_PREFETCH_TRACER_HH

#include <array>
#include <cstdint>
#include <ostream>

#include "common/distribution.hh"
#include "common/types.hh"
#include "tlb/prefetch_buffer.hh"

namespace morrigan
{

/** Why a prefetch was dropped before reaching the PB. */
enum class PrefetchDropReason : std::uint8_t
{
    Duplicate,  //!< already buffered at issue (PB duplicate filter)
    Unmapped,   //!< non-faulting walk found no translation
};

/** The lifecycle tracer; also the PB's event observer. */
class PrefetchTracer : public PbObserver
{
  public:
    /**
     * Component index layout: one bucket per IRIP PRT table (up to
     * kMaxIripTables), then the aggregated special producers.
     */
    static constexpr unsigned kMaxIripTables = 8;
    static constexpr unsigned kIripSpatial = kMaxIripTables;
    static constexpr unsigned kSdp = kMaxIripTables + 1;
    static constexpr unsigned kSdpSpatial = kMaxIripTables + 2;
    static constexpr unsigned kICache = kMaxIripTables + 3;
    static constexpr unsigned kOther = kMaxIripTables + 4;
    static constexpr unsigned numComponents = kMaxIripTables + 5;

    /** Map a producer tag to its component index. */
    static unsigned componentOf(const PrefetchTag &tag);
    /** Stable short name, e.g. "irip_t0", "sdp_spatial". */
    static const char *componentName(unsigned comp);

    /**
     * One component's lifecycle accounts over the measurement window
     * (common/fields.hh); the visit names are the --stats names.
     */
    struct Outcomes
    {
        /** prefetches issued */
        std::uint64_t issued = 0;
        /** PTEs installed in the PB */
        std::uint64_t installed = 0;
        /** timely PB hits (walk complete) */
        std::uint64_t hitsReady = 0;
        /** evicted from the PB without a hit */
        std::uint64_t evictedUnused = 0;
        /** discarded by a PB flush (context switch) */
        std::uint64_t flushed = 0;
        /** still resident in the PB at end of run */
        std::uint64_t residual = 0;
        /** dropped before install (duplicate or unmapped) */
        std::uint64_t dropped = 0;
        /** P2TLB mode: filled straight into the STLB */
        std::uint64_t stlbFills = 0;
        /** prefetch walk latency (cycles) */
        Distribution walkLatency;
        /** demand stall on late hits (walk still in flight), in
         * cycles: one sample per late hit */
        Distribution lateWait;

        std::uint64_t hits() const { return hitsReady + lateWait.count; }
        std::uint64_t
        unused() const
        {
            return evictedUnused + flushed + residual;
        }
        /** issued == hits + unused + dropped (+ direct STLB fills). */
        bool
        reconciles() const
        {
            return issued == hits() + unused() + dropped + stlbFills;
        }
        /** hits / issued (0 when nothing was issued). */
        double accuracy() const;
        /** timely hits / all hits (0 when nothing hit). */
        double timeliness() const;

        /** Add @p o field by field (distributions merge). */
        Outcomes &operator+=(const Outcomes &o);

        template <RecordOf<Outcomes> Self, class V>
        friend constexpr void visitFields(Self &o, V &&v)
        {
            v("issued", o.issued);
            v("installed", o.installed);
            v("hits_ready", o.hitsReady);
            v("evicted_unused", o.evictedUnused);
            v("flushed", o.flushed);
            v("residual", o.residual);
            v("dropped", o.dropped);
            v("stlb_fills", o.stlbFills);
            v("walk_latency", o.walkLatency);
            v("late_wait", o.lateWait);
        }
    };

    /** Attach (or detach with nullptr) the JSONL event sink. */
    void setEventSink(std::ostream *os) { sink_ = os; }

    /**
     * Start the measurement window: begin classifying (and logging)
     * prefetches issued from here on; the counts stay zero until
     * then.
     * Entries installed before this point keep flowing through the
     * hooks but are excluded from the lifecycle accounts.
     */
    void beginMeasurement(Cycle now);

    // --- simulator-side hooks ---

    /** A prefetch request was handed to the walker path.
     * @return the trace id to stamp into the PB entry. */
    std::uint64_t onIssued(const PrefetchTag &tag, Vpn vpn, Cycle now);

    /** The prefetch was discarded before installing anywhere. */
    void onDropped(const PrefetchTag &tag, std::uint64_t id,
                   PrefetchDropReason reason, Cycle now);

    /** Its non-faulting page walk completed (pre-install). */
    void onWalkComplete(const PrefetchTag &tag, std::uint64_t id,
                        Cycle latency, unsigned memRefs,
                        Cycle readyAt);

    /** P2TLB mode: the translation went straight into the STLB. */
    void onStlbFill(const PrefetchTag &tag, std::uint64_t id,
                    Cycle now);

    /** PB lifecycle events (install/hit/evict/flush). */
    void pbEvent(PbObserver::Event ev, const PbEntry &entry,
                 Cycle now) override;

    /**
     * End of run: classify every traced entry still resident in the
     * PB as `residual`, completing the lifecycle identity.
     */
    void finalize(const PrefetchBuffer &pb, Cycle now);

    // --- accessors ---

    std::uint64_t nextId() const { return nextId_; }
    const Outcomes &outcomes(unsigned comp) const;
    Outcomes &outcomes(unsigned comp);
    Outcomes totals() const;
    /** Whether every component's lifecycle identity holds. */
    bool reconciles() const;

    /** Append the per-component summary to a JSON writer stream as
     * one object ({"schema":N,"components":{...},"totals":{...}});
     * its rows are Outcomes records, so N is the stats schema's. */
    void writeSummaryJson(std::ostream &os) const;

    /**
     * Checkpoint the id/window scalars. The simulator saves the
     * Outcomes records; the event sink is external and not
     * serialized.
     */
    void save(SnapshotWriter &w) const { transfer(*this, w); }
    void restore(SnapshotReader &r) { transfer(*this, r); }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("tracer");
        ar.io(self.measuring_);
        ar.io(self.nextId_);
        ar.io(self.firstMeasuredId_);
    }
    bool measured(std::uint64_t id) const
    {
        return measuring_ && id >= firstMeasuredId_ && id != 0;
    }
    void emitIssue(const PrefetchTag &tag, std::uint64_t id, Vpn vpn,
                   Cycle now);

    std::ostream *sink_ = nullptr;
    bool measuring_ = false;
    std::uint64_t nextId_ = 1;
    std::uint64_t firstMeasuredId_ = 1;

    std::array<Outcomes, numComponents> comps_{};
};
static_assert(visitsEveryField<PrefetchTracer::Outcomes>());

} // namespace morrigan

#endif // MORRIGAN_SIM_PREFETCH_TRACER_HH
