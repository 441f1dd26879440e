/**
 * @file
 * Interval time-series sampler.
 *
 * Every N measured instructions the simulator hands the sampler its
 * cumulative EpochCounters; an epoch stores the change of every
 * field (the cycle buckets included: a per-phase cycle breakdown)
 * plus the iSTLB MPKI, PB hit rate and walker-port occupancy derived
 * from it -- the quantities whose *evolution* the paper's
 * phase-change discussion (Figure 14) is about but which an
 * end-of-run report averages away.
 *
 * The sampler keeps a bounded ring of epochs for programmatic access
 * (tests, the --stats-json "intervals" array) and optionally streams
 * each epoch as JSONL (nested as the records are) or CSV (the same
 * fields under dotted names) so no epoch is lost when the ring wraps.
 * Every row, streamed or in the JSON ring, leads with `schema`, the
 * json::intervalSchemaVersion it was written under.
 *
 * Streamed rows (since schema v2) additionally carry host wall-clock
 * columns -- wall_ms since measurement start and the interval's
 * delta_instrs_per_sec -- so a live tail of the JSONL/CSV shows
 * simulator throughput as it runs. The ring (and therefore the
 * --stats-json "intervals" array and snapshot images) deliberately
 * omits them: everything that feeds result artifacts compared for
 * bit-identity must stay deterministic.
 */

#ifndef MORRIGAN_SIM_INTERVAL_SAMPLER_HH
#define MORRIGAN_SIM_INTERVAL_SAMPLER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <ostream>

#include "common/fields.hh"
#include "common/types.hh"
#include "sim/prefetch_tracer.hh"
#include "sim/run_counters.hh"

namespace morrigan
{

/**
 * The cumulative counters an epoch is the difference of: the run's
 * counter record plus the few values that live outside it.
 */
struct EpochCounters
{
    RunCounters counters;
    double cycles = 0.0;  //!< measured cycles
    std::uint64_t walkerBusyPortCycles = 0;
    std::uint64_t freqResets = 0;
    /** Per-component issued/hit counts from the tracer, indexed as
     * PrefetchTracer::componentName() (zero without a tracer). */
    std::array<std::uint64_t, PrefetchTracer::numComponents> issued{};
    std::array<std::uint64_t, PrefetchTracer::numComponents> hits{};

    /** The fields, in snapshot order (common/fields.hh). */
    template <RecordOf<EpochCounters> Self, class V>
    friend constexpr void visitFields(Self &e, V &&v)
    {
        v("counters", e.counters);
        v("cycles", e.cycles);
        v("walkerBusyPortCycles", e.walkerBusyPortCycles);
        v("freqResets", e.freqResets);
        v("issued", e.issued);
        v("hits", e.hits);
    }
};
static_assert(visitsEveryField<EpochCounters>());

/** One epoch: the change of every counter over the interval, and
 * the rates derived from those changes. */
struct IntervalSample
{
    std::uint64_t epoch = 0;         //!< index from measurement start
    std::uint64_t instructions = 0;  //!< cumulative at sample point
    EpochCounters delta;
    double istlbMpki = 0.0;
    double pbHitRate = 0.0;          //!< pbHits / istlbMisses
    double walkerOccupancy = 0.0;    //!< busy port-cycles fraction

    /** The fields, with their JSON keys, in snapshot order
     * (common/fields.hh). */
    template <RecordOf<IntervalSample> Self, class V>
    friend constexpr void visitFields(Self &s, V &&v)
    {
        v("epoch", s.epoch);
        v("instructions", s.instructions);
        v("delta", s.delta);
        v("istlb_mpki", s.istlbMpki);
        v("pb_hit_rate", s.pbHitRate);
        v("walker_occupancy", s.walkerOccupancy);
    }
};
static_assert(visitsEveryField<IntervalSample>());

/** Output encoding for the streaming sink. */
enum class IntervalFormat : std::uint8_t
{
    Jsonl,
    Csv,
};

/** The epoch ring + encoder. */
class IntervalSampler
{
  public:
    /**
     * @param interval Epoch length in measured instructions.
     * @param ring_capacity Epochs retained for later export; older
     * epochs fall off the ring (the streaming sink sees them all).
     */
    explicit IntervalSampler(std::uint64_t interval,
                             std::size_t ring_capacity = 4096);

    /** Attach a streaming sink (null detaches). */
    void setSink(std::ostream *os, IntervalFormat format);

    std::uint64_t interval() const { return interval_; }

    /** Reset epoch numbering; the first epoch's deltas count from
     * @p baseline. */
    void beginMeasurement(const EpochCounters &baseline = {});

    /** Record one epoch from cumulative counters; @p walker_ports
     * scales the walker's busy port-cycles into an occupancy. */
    const IntervalSample &record(const EpochCounters &now,
                                 unsigned walker_ports);

    /** The retained epochs, oldest first. */
    const std::deque<IntervalSample> &samples() const { return ring_; }
    std::uint64_t epochsRecorded() const { return epochs_; }

    /** Write the retained ring as a JSON array. */
    void writeRingJson(std::ostream &os) const;

    /** Checkpoint the delta baseline, epoch count and ring. The
     * streaming sink is external and not serialized. */
    void save(SnapshotWriter &w) const { transfer(*this, w); }
    void restore(SnapshotReader &r) { transfer(*this, r); }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("interval_sampler");
        ar.expect(self.interval_, "interval sampler epoch length");
        ar.io(self.prev_);
        ar.io(self.epochs_);
        std::uint64_t n = self.ring_.size();
        ar.count(n, sizeof(std::uint64_t));
        if constexpr (Ar::loading) {
            if (n > self.ringCapacity_)
                throw SnapshotError("interval sampler ring overflow");
            self.ring_.assign(n, IntervalSample{});
        }
        ar.io(self.ring_);
    }
    void emit(const IntervalSample &s);

    std::uint64_t interval_;
    std::size_t ringCapacity_;
    std::ostream *sink_ = nullptr;
    IntervalFormat format_ = IntervalFormat::Jsonl;
    bool wroteCsvHeader_ = false;

    EpochCounters prev_{};
    std::uint64_t epochs_ = 0;
    std::deque<IntervalSample> ring_;

    // Wall-clock anchors for the streamed throughput columns; host
    // time only, never serialized and never part of the ring.
    std::uint64_t wallAnchorNs_ = 0;
    std::uint64_t lastEmitNs_ = 0;
};

} // namespace morrigan

#endif // MORRIGAN_SIM_INTERVAL_SAMPLER_HH
