#include "interval_sampler.hh"

#include <cstdio>
#include <type_traits>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/telemetry.hh"

namespace morrigan
{

IntervalSampler::IntervalSampler(std::uint64_t interval,
                                 std::size_t ring_capacity)
    : interval_(interval), ringCapacity_(ring_capacity),
      ring_(ring_capacity == 0 ? 1 : ring_capacity)
{
    fatal_if(interval_ == 0, "interval sampler needs a nonzero epoch");
    fatal_if(ringCapacity_ == 0, "interval ring needs capacity");
}

void
IntervalSampler::setSink(std::ostream *os, IntervalFormat format)
{
    sink_ = os;
    format_ = format;
    wroteCsvHeader_ = false;
}

void
IntervalSampler::beginMeasurement()
{
    prev_ = IntervalInputs{};
    epochs_ = 0;
    ring_.clear();
    wallAnchorNs_ = telemetry::nowNs();
    lastEmitNs_ = wallAnchorNs_;
}

const IntervalSample &
IntervalSampler::record(const IntervalInputs &in)
{
    IntervalSample s;
    s.epoch = epochs_++;
    s.instructions = in.instructions;
    s.instrDelta = in.instructions - prev_.instructions;
    s.cycleDelta = in.cycles - prev_.cycles;
    s.istlbMisses = in.istlbMisses - prev_.istlbMisses;
    s.pbHits = in.pbHits - prev_.pbHits;
    s.demandWalksInstr =
        in.demandWalksInstr - prev_.demandWalksInstr;
    s.prefetchWalks = in.prefetchWalks - prev_.prefetchWalks;
    s.freqResets = in.freqResets - prev_.freqResets;
    s.istlbMpki =
        s.instrDelta
            ? static_cast<double>(s.istlbMisses) /
                  (static_cast<double>(s.instrDelta) / 1000.0)
            : 0.0;
    s.pbHitRate = s.istlbMisses
                      ? static_cast<double>(s.pbHits) /
                            static_cast<double>(s.istlbMisses)
                      : 0.0;
    std::uint64_t busy_delta =
        in.walkerBusyPortCycles - prev_.walkerBusyPortCycles;
    double port_capacity =
        s.cycleDelta * static_cast<double>(in.walkerPorts);
    s.walkerOccupancy =
        port_capacity > 0.0
            ? static_cast<double>(busy_delta) / port_capacity
            : 0.0;
    for (unsigned c = 0; c < PrefetchTracer::numComponents; ++c) {
        s.issued[c] = in.issued[c] - prev_.issued[c];
        s.hits[c] = in.hits[c] - prev_.hits[c];
    }
    prev_ = in;

    const IntervalSample &stored = ring_.push(s);
    if (sink_)
        emit(stored);
    return stored;
}

namespace
{

/** Wall-clock columns appended to streamed rows only; the ring and
 * its JSON mirror stay deterministic. */
struct WallCols
{
    double wallMs;
    double deltaInstrsPerSec;
};

void
writeSampleJson(json::Writer &w, const IntervalSample &s,
                const WallCols *wall = nullptr)
{
    w.beginObject();
    // The scalars; the per-component arrays nest under "components".
    visitFields(s, [&w](const char *key, const auto &v,
                        FieldTag = FieldTag::Plain) {
        if constexpr (std::is_arithmetic_v<
                          std::remove_cvref_t<decltype(v)>>)
            w.kv(key, v);
    });
    if (wall) {
        w.kv("wall_ms", wall->wallMs);
        w.kv("delta_instrs_per_sec", wall->deltaInstrsPerSec);
    }
    w.key("components").beginObject();
    for (unsigned c = 0; c < PrefetchTracer::numComponents; ++c) {
        if (s.issued[c] == 0 && s.hits[c] == 0)
            continue;
        w.key(PrefetchTracer::componentName(c)).beginObject();
        w.kv("issued", s.issued[c]);
        w.kv("hits", s.hits[c]);
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

/** Sum issued/hits over the component range [lo, hi). */
std::pair<std::uint64_t, std::uint64_t>
sumRange(const IntervalSample &s, unsigned lo, unsigned hi)
{
    std::uint64_t issued = 0, hits = 0;
    for (unsigned c = lo; c < hi; ++c) {
        issued += s.issued[c];
        hits += s.hits[c];
    }
    return {issued, hits};
}

} // namespace

void
IntervalSampler::emit(const IntervalSample &s)
{
    // Normally anchored by beginMeasurement(); the lazy fallback
    // covers restored runs, where record() resumes without another
    // beginMeasurement() (the anchors are host state and are never
    // snapshotted) -- the first streamed row of the resumed process
    // restarts the throughput baseline.
    std::uint64_t now = telemetry::nowNs();
    if (wallAnchorNs_ == 0) {
        wallAnchorNs_ = now;
        lastEmitNs_ = now;
    }
    WallCols wall;
    wall.wallMs = 1e-6 * static_cast<double>(now - wallAnchorNs_);
    std::uint64_t elapsed = now - lastEmitNs_;
    wall.deltaInstrsPerSec =
        elapsed > 0 ? static_cast<double>(s.instrDelta) /
                          (1e-9 * static_cast<double>(elapsed))
                    : 0.0;
    lastEmitNs_ = now;

    if (format_ == IntervalFormat::Jsonl) {
        json::Writer w(*sink_);
        writeSampleJson(w, s, &wall);
        *sink_ << '\n';
        return;
    }
    // CSV: aggregate the per-table components per engine so the
    // column set stays fixed.
    if (!wroteCsvHeader_) {
        *sink_ << "epoch,instructions,instr_delta,cycle_delta,"
                  "istlb_misses,istlb_mpki,pb_hits,pb_hit_rate,"
                  "demand_walks_instr,prefetch_walks,freq_resets,"
                  "walker_occupancy,irip_issued,irip_hits,"
                  "sdp_issued,sdp_hits,icache_issued,icache_hits,"
                  "wall_ms,delta_instrs_per_sec\n";
        wroteCsvHeader_ = true;
    }
    auto [irip_issued, irip_hits] =
        sumRange(s, 0, PrefetchTracer::kSdp);  // tables + spatial
    auto [sdp_issued, sdp_hits] =
        sumRange(s, PrefetchTracer::kSdp, PrefetchTracer::kICache);
    auto [ic_issued, ic_hits] =
        sumRange(s, PrefetchTracer::kICache,
                 PrefetchTracer::kICache + 1);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f", s.cycleDelta);
    *sink_ << s.epoch << ',' << s.instructions << ','
           << s.instrDelta << ',' << buf << ',' << s.istlbMisses
           << ',';
    std::snprintf(buf, sizeof(buf), "%.4f", s.istlbMpki);
    *sink_ << buf << ',' << s.pbHits << ',';
    std::snprintf(buf, sizeof(buf), "%.4f", s.pbHitRate);
    *sink_ << buf << ',' << s.demandWalksInstr << ','
           << s.prefetchWalks << ',' << s.freqResets << ',';
    std::snprintf(buf, sizeof(buf), "%.4f", s.walkerOccupancy);
    *sink_ << buf << ',' << irip_issued << ',' << irip_hits << ','
           << sdp_issued << ',' << sdp_hits << ',' << ic_issued
           << ',' << ic_hits << ',';
    std::snprintf(buf, sizeof(buf), "%.3f,%.0f", wall.wallMs,
                  wall.deltaInstrsPerSec);
    *sink_ << buf << '\n';
}

void
IntervalSampler::writeRingJson(std::ostream &os) const
{
    json::Writer w(os);
    w.beginArray();
    for (const IntervalSample &s : ring_)
        writeSampleJson(w, s);
    w.endArray();
}

void
IntervalSampler::save(SnapshotWriter &w) const
{
    w.section("interval_sampler");
    w.u64(interval_);
    w.fields(prev_);
    w.u64(epochs_);
    w.u64(ring_.size());
    for (const IntervalSample &s : ring_)
        w.fields(s);
}

void
IntervalSampler::restore(SnapshotReader &r)
{
    r.section("interval_sampler");
    if (r.u64() != interval_)
        throw SnapshotError("interval sampler epoch length mismatch");
    r.fields(prev_);
    epochs_ = r.u64();
    std::uint64_t count = r.u64();
    if (count > ringCapacity_)
        throw SnapshotError("interval sampler ring overflow");
    ring_.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        IntervalSample s;
        r.fields(s);
        ring_.push(s);
    }
}

} // namespace morrigan
