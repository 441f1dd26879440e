/**
 * @file
 * Interval time-series sampler.
 *
 * Every N measured instructions the simulator snapshots its key
 * metrics into an epoch record: iSTLB MPKI, PB hit rate, per-engine
 * prefetch accuracy, RLFU frequency-stack resets and walker-port
 * occupancy -- the quantities whose *evolution* the paper's
 * phase-change discussion (Figure 14) is about but which an
 * end-of-run report averages away.
 *
 * The simulator feeds the sampler cumulative counters; the sampler
 * derives the per-interval deltas, keeps a bounded ring of epochs for
 * programmatic access (tests, the --stats-json "intervals" array),
 * and optionally streams each epoch to a sink as JSONL or CSV so no
 * epoch is lost when the ring wraps.
 *
 * Streamed rows (schema v2) additionally carry host wall-clock
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
#include <ostream>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"
#include "sim/prefetch_tracer.hh"

namespace morrigan
{

/** Cumulative counter snapshot handed to the sampler by the
 * simulator at each epoch boundary. */
struct IntervalInputs
{
    std::uint64_t instructions = 0;  //!< measured instructions so far
    double cycles = 0.0;             //!< measured cycles so far
    std::uint64_t istlbMisses = 0;
    std::uint64_t pbHits = 0;
    std::uint64_t demandWalksInstr = 0;
    std::uint64_t prefetchWalks = 0;
    std::uint64_t freqResets = 0;
    std::uint64_t walkerBusyPortCycles = 0;
    unsigned walkerPorts = 1;
    /** Per-component issued/hit counts from the tracer (zero when no
     * tracer is attached). */
    std::array<std::uint64_t, PrefetchTracer::numComponents> issued{};
    std::array<std::uint64_t, PrefetchTracer::numComponents> hits{};

    /** The fields, in snapshot order (common/fields.hh). */
    template <RecordOf<IntervalInputs> Self, class V>
    friend constexpr void visitFields(Self &in, V &&v)
    {
        v("instructions", in.instructions);
        v("cycles", in.cycles);
        v("istlbMisses", in.istlbMisses);
        v("pbHits", in.pbHits);
        v("demandWalksInstr", in.demandWalksInstr);
        v("prefetchWalks", in.prefetchWalks);
        v("freqResets", in.freqResets);
        v("walkerBusyPortCycles", in.walkerBusyPortCycles);
        v("walkerPorts", in.walkerPorts);
        v("issued", in.issued);
        v("hits", in.hits);
    }
};
static_assert(visitsEveryField<IntervalInputs>());

/** One derived epoch record (all rates are interval-local). */
struct IntervalSample
{
    std::uint64_t epoch = 0;         //!< index from measurement start
    std::uint64_t instructions = 0;  //!< cumulative at sample point
    std::uint64_t instrDelta = 0;
    double cycleDelta = 0.0;
    std::uint64_t istlbMisses = 0;
    double istlbMpki = 0.0;
    std::uint64_t pbHits = 0;
    double pbHitRate = 0.0;          //!< pbHits / istlbMisses
    std::uint64_t demandWalksInstr = 0;
    std::uint64_t prefetchWalks = 0;
    std::uint64_t freqResets = 0;
    double walkerOccupancy = 0.0;    //!< busy port-cycles fraction
    std::array<std::uint64_t, PrefetchTracer::numComponents> issued{};
    std::array<std::uint64_t, PrefetchTracer::numComponents> hits{};

    /** The fields, with their JSON keys, in snapshot order
     * (common/fields.hh). */
    template <RecordOf<IntervalSample> Self, class V>
    friend constexpr void visitFields(Self &s, V &&v)
    {
        v("epoch", s.epoch);
        v("instructions", s.instructions);
        v("instr_delta", s.instrDelta);
        v("cycle_delta", s.cycleDelta);
        v("istlb_misses", s.istlbMisses);
        v("istlb_mpki", s.istlbMpki);
        v("pb_hits", s.pbHits);
        v("pb_hit_rate", s.pbHitRate);
        v("demand_walks_instr", s.demandWalksInstr);
        v("prefetch_walks", s.prefetchWalks);
        v("freq_resets", s.freqResets);
        v("walker_occupancy", s.walkerOccupancy);
        v("issued", s.issued);
        v("hits", s.hits);
    }
};
static_assert(visitsEveryField<IntervalSample>());

/**
 * Fixed-capacity ring of epoch records.
 *
 * Replaces a std::deque: storage is a single flat allocation made at
 * construction (no per-node churn while the simulation runs), push()
 * overwrites the oldest epoch once full, and iteration yields
 * oldest-first logical order -- exactly the order the deque exposed,
 * so the JSON mirror and the snapshot byte stream are unchanged.
 */
class SampleRing
{
  public:
    explicit SampleRing(std::size_t capacity) : buf_(capacity) {}

    /** Forward iterator over logical (oldest-first) order. */
    class const_iterator
    {
      public:
        const_iterator(const SampleRing *ring, std::size_t index)
            : ring_(ring), index_(index)
        {
        }

        const IntervalSample &operator*() const
        {
            return ring_->at(index_);
        }
        const IntervalSample *operator->() const
        {
            return &ring_->at(index_);
        }
        const_iterator &
        operator++()
        {
            ++index_;
            return *this;
        }
        bool operator==(const const_iterator &o) const
        {
            return index_ == o.index_;
        }
        bool operator!=(const const_iterator &o) const
        {
            return index_ != o.index_;
        }

      private:
        const SampleRing *ring_;
        std::size_t index_;
    };

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return buf_.size(); }

    /** i-th record in logical order (0 = oldest retained). */
    const IntervalSample &
    at(std::size_t i) const
    {
        std::size_t j = head_ + i;
        if (j >= buf_.size())
            j -= buf_.size();
        return buf_[j];
    }

    const IntervalSample &front() const { return at(0); }
    const IntervalSample &back() const { return at(size_ - 1); }

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Append, overwriting the oldest record when full.
     * @return the stored record. */
    const IntervalSample &
    push(const IntervalSample &s)
    {
        std::size_t slot;
        if (size_ == buf_.size()) {
            slot = head_;
            if (++head_ == buf_.size())
                head_ = 0;
        } else {
            slot = head_ + size_;
            if (slot >= buf_.size())
                slot -= buf_.size();
            ++size_;
        }
        buf_[slot] = s;
        return buf_[slot];
    }

  private:
    std::vector<IntervalSample> buf_;
    std::size_t head_ = 0;  //!< index of the oldest record
    std::size_t size_ = 0;
};

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

    /** Reset epoch numbering and the delta baseline. */
    void beginMeasurement();

    /** Record one epoch from cumulative counters. */
    const IntervalSample &record(const IntervalInputs &in);

    const SampleRing &samples() const { return ring_; }
    std::uint64_t epochsRecorded() const { return epochs_; }

    /** Write the retained ring as a JSON array. */
    void writeRingJson(std::ostream &os) const;

    /** Checkpoint the delta baseline, epoch count and ring. The
     * streaming sink is external and not serialized. */
    void save(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);

  private:
    void emit(const IntervalSample &s);

    std::uint64_t interval_;
    std::size_t ringCapacity_;
    std::ostream *sink_ = nullptr;
    IntervalFormat format_ = IntervalFormat::Jsonl;
    bool wroteCsvHeader_ = false;

    IntervalInputs prev_{};
    std::uint64_t epochs_ = 0;
    SampleRing ring_;

    // Wall-clock anchors for the streamed throughput columns; host
    // time only, never serialized and never part of the ring.
    std::uint64_t wallAnchorNs_ = 0;
    std::uint64_t lastEmitNs_ = 0;
};

} // namespace morrigan

#endif // MORRIGAN_SIM_INTERVAL_SAMPLER_HH
