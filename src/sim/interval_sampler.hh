/**
 * @file
 * Interval time-series sampler.
 *
 * Every N measured instructions the simulator hands the sampler its
 * cumulative EpochCounters; an epoch stores the change of every
 * field of the run's counters and of every component record (the
 * cycle buckets included: a per-phase cycle breakdown). iSTLB misses,
 * PB hits and walker busy port-cycles per epoch are the quantities
 * whose *evolution* the paper's phase-change discussion (Figure 14)
 * is about but which an end-of-run report averages away. A
 * distribution's min and max do not difference: an epoch carries
 * them as they stand at its end (the extremes since measurement
 * start).
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

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"
#include "mem/memory_hierarchy.hh"
#include "sim/prefetch_tracer.hh"
#include "sim/run_counters.hh"
#include "tlb/prefetch_buffer.hh"
#include "tlb/tlb.hh"
#include "vm/psc.hh"
#include "vm/walker.hh"

namespace morrigan
{

/** A copy of one component counter record. */
using CounterRecord =
    std::variant<MemoryHierarchy::Stats, CacheModel::Stats,
                 DramModel::Stats, PageStructureCache::Stats,
                 PageTableWalker::Stats, Tlb::Stats, PrefetchBuffer::Stats,
                 PrefetchTracer::Outcomes>;

/** Copies of the component records under their dotted paths, in
 * Simulator::forEachCounters() order: one visited field per record.
 * The list is the run's, not fixed, so a snapshot restores values
 * into a list of the same shape and visitFieldPairs() does not apply. */
struct CounterRecords
{
    std::vector<std::pair<std::string, CounterRecord>> list;

    template <RecordOf<CounterRecords> Self, class V>
    friend void visitFields(Self &s, V &&v)
    {
        for (auto &[path, rec] : s.list)
            std::visit([&](auto &r) { v(path.c_str(), r); }, rec);
    }
};

/** The cumulative counters an epoch is the difference of: the run's
 * own, the measured cycles, the prefetcher's frequency-stack resets
 * (prefetcher state, in no record) and every component record. */
struct EpochCounters
{
    RunCounters counters;
    double cycles = 0.0;  //!< measured cycles
    std::uint64_t freqResets = 0;
    CounterRecords records;

    /** The fields, in snapshot order (common/fields.hh). */
    template <RecordOf<EpochCounters> Self, class V>
    friend constexpr void visitFields(Self &e, V &&v)
    {
        v("counters", e.counters);
        v("cycles", e.cycles);
        v("freqResets", e.freqResets);
        v("records", e.records);
    }
};
static_assert(visitsEveryField<EpochCounters>());

/** One epoch: the change of every counter over the interval. */
struct IntervalSample
{
    std::uint64_t epoch = 0;         //!< index from measurement start
    std::uint64_t instructions = 0;  //!< cumulative at sample point
    EpochCounters delta;

    /** The fields, with their JSON keys, in snapshot order
     * (common/fields.hh). */
    template <RecordOf<IntervalSample> Self, class V>
    friend constexpr void visitFields(Self &s, V &&v)
    {
        v("epoch", s.epoch);
        v("instructions", s.instructions);
        v("delta", s.delta);
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

    /** Record one epoch from cumulative counters. */
    const IntervalSample &record(const EpochCounters &now);

    /** The retained epochs, oldest first. */
    const std::deque<IntervalSample> &samples() const { return ring_; }
    std::uint64_t epochsRecorded() const { return epochs_; }

    /** Write the retained ring as a JSON array. */
    void writeRingJson(std::ostream &os) const;

    /** Checkpoint the delta baseline, epoch count and ring. The
     * streaming sink is external and not serialized. Restore fills
     * the records of the baseline beginMeasurement() gave, so it
     * needs a sampler that began with the run's records. */
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
            self.ring_.assign(n, IntervalSample{0, 0, self.prev_});
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
