#include "interval_sampler.hh"

#include <cstdio>
#include <string>
#include <type_traits>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/telemetry.hh"

namespace morrigan
{

IntervalSampler::IntervalSampler(std::uint64_t interval,
                                 std::size_t ring_capacity)
    : interval_(interval), ringCapacity_(ring_capacity)
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
IntervalSampler::beginMeasurement(const EpochCounters &baseline)
{
    prev_ = baseline;
    epochs_ = 0;
    ring_.clear();
    wallAnchorNs_ = telemetry::nowNs();
    lastEmitNs_ = wallAnchorNs_;
}

namespace
{

/** @p d -= @p p, field by field through nested records and arrays. */
template <class T>
void
subtract(T &d, const T &p)
{
    if constexpr (Record<T>) {
        visitFieldPairs(d, p, [](const char *, auto &x, const auto &y) {
            subtract(x, y);
        });
    } else if constexpr (std::is_arithmetic_v<T>) {
        d -= p;
    } else {
        for (std::size_t i = 0; i < d.size(); ++i)
            d[i] -= p[i];
    }
}

/** f(column, value) for every scalar of @p rec, nested records and
 * array elements flattened to dotted column names. */
template <class R, class F>
void
forEachColumn(const R &rec, const std::string &prefix, F &&f)
{
    visitFields(rec, [&](const char *key, const auto &v,
                         FieldTag = FieldTag::Plain) {
        using T = std::remove_cvref_t<decltype(v)>;
        const std::string name = prefix + key;
        if constexpr (Record<T>) {
            forEachColumn(v, name + ".", f);
        } else if constexpr (std::is_arithmetic_v<T>) {
            f(name, v);
        } else {
            for (std::size_t i = 0; i < v.size(); ++i)
                f(name + "." + std::to_string(i), v[i]);
        }
    });
}

} // namespace

const IntervalSample &
IntervalSampler::record(const EpochCounters &now, unsigned walker_ports)
{
    telemetry::ScopedSpan span(telemetry::Phase::IntervalSample);
    IntervalSample s;
    s.epoch = epochs_++;
    s.instructions = now.counters.instructions;
    s.delta = now;
    subtract(s.delta, prev_);
    prev_ = now;

    // The derived rates, all interval-local.
    const RunCounters &d = s.delta.counters;
    s.istlbMpki =
        d.instructions
            ? static_cast<double>(d.istlbMisses) /
                  (static_cast<double>(d.instructions) / 1000.0)
            : 0.0;
    s.pbHitRate = d.istlbMisses
                      ? static_cast<double>(d.pbHits) /
                            static_cast<double>(d.istlbMisses)
                      : 0.0;
    double port_capacity =
        s.delta.cycles * static_cast<double>(walker_ports);
    s.walkerOccupancy =
        port_capacity > 0.0
            ? static_cast<double>(s.delta.walkerBusyPortCycles) /
                  port_capacity
            : 0.0;

    ring_.push_back(s);
    if (ring_.size() > ringCapacity_)
        ring_.pop_front();
    if (sink_)
        emit(ring_.back());
    return ring_.back();
}

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
    const double wall_ms = 1e-6 * static_cast<double>(now - wallAnchorNs_);
    const std::uint64_t elapsed = now - lastEmitNs_;
    const double instrs_per_sec =
        elapsed > 0
            ? static_cast<double>(s.delta.counters.instructions) /
                  (1e-9 * static_cast<double>(elapsed))
            : 0.0;
    lastEmitNs_ = now;

    // Streamed rows only carry the wall-clock columns; the ring and
    // its JSON mirror stay deterministic.
    if (format_ == IntervalFormat::Jsonl) {
        json::Writer w(*sink_);
        w.beginObject();
        w.kv("schema", json::intervalSchemaVersion);
        json::writeFields(w, s);
        w.kv("wall_ms", wall_ms);
        w.kv("delta_instrs_per_sec", instrs_per_sec);
        w.endObject();
        *sink_ << '\n';
        return;
    }
    // CSV: the same fields, one column per scalar.
    if (!wroteCsvHeader_) {
        *sink_ << "schema,";
        forEachColumn(s, "", [this](const std::string &name, auto) {
            *sink_ << name << ',';
        });
        *sink_ << "wall_ms,delta_instrs_per_sec\n";
        wroteCsvHeader_ = true;
    }
    const std::streamsize precision = sink_->precision(17);
    *sink_ << json::intervalSchemaVersion << ',';
    forEachColumn(s, "", [this](const std::string &, auto v) {
        *sink_ << v << ',';
    });
    sink_->precision(precision);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f,%.0f\n", wall_ms,
                  instrs_per_sec);
    *sink_ << buf;
}

void
IntervalSampler::writeRingJson(std::ostream &os) const
{
    json::Writer w(os);
    w.beginArray();
    for (const IntervalSample &s : ring_) {
        w.beginObject();
        w.kv("schema", json::intervalSchemaVersion);
        json::writeFields(w, s);
        w.endObject();
    }
    w.endArray();
}

} // namespace morrigan
