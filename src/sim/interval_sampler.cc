#include "interval_sampler.hh"

#include <cstdio>
#include <string>
#include <type_traits>
#include <variant>

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

/** @p d -= @p p, field by field through nested records and arrays;
 * a distribution's extremes keep @p d's values. */
template <class T>
void
subtract(T &d, const T &p)
{
    if constexpr (std::is_same_v<T, Distribution>) {
        d.count -= p.count;
        d.sum -= p.sum;
    } else if constexpr (std::is_same_v<T, CounterRecords>) {
        if (p.list.empty())
            return;  // the all-zero baseline
        panic_if(p.list.size() != d.list.size(),
                 "epoch record lists differ");
        for (std::size_t i = 0; i < d.list.size(); ++i)
            std::visit(
                [&](auto &x) {
                    using R = std::remove_reference_t<decltype(x)>;
                    subtract(x, std::get<R>(p.list[i].second));
                },
                d.list[i].second);
    } else if constexpr (Record<T>) {
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

} // namespace

const IntervalSample &
IntervalSampler::record(const EpochCounters &now)
{
    telemetry::ScopedSpan span(telemetry::Phase::IntervalSample);
    IntervalSample s;
    s.epoch = epochs_++;
    s.instructions = now.counters.instructions;
    s.delta = now;
    subtract(s.delta, prev_);
    prev_ = now;

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
        forEachScalar(s, "", [this](const std::string &name, auto) {
            *sink_ << name << ',';
        });
        *sink_ << "wall_ms,delta_instrs_per_sec\n";
        wroteCsvHeader_ = true;
    }
    const std::streamsize precision = sink_->precision(17);
    *sink_ << json::intervalSchemaVersion << ',';
    forEachScalar(s, "", [this](const std::string &, auto v) {
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
