/**
 * @file
 * Minimal streaming JSON writer.
 *
 * Shared by every machine-readable artifact the observability layer
 * emits: the `--stats-json` document, the prefetch lifecycle trace
 * (JSONL), the interval time-series, and the `BENCH_*.json` bench
 * artifacts. Header-only on purpose: the writer is a thin comma/
 * escape manager over a std::ostream, with no allocation beyond a
 * small nesting stack.
 *
 * Schema versions for the artifacts live here so the producers
 * (tools/morrigan_sim.cc, bench/bench_util.hh) and the docs agree on
 * a single constant.
 */

#ifndef MORRIGAN_COMMON_JSON_HH
#define MORRIGAN_COMMON_JSON_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/fields.hh"

namespace morrigan::json
{

/** Version of the --stats-json document schema.
 * v2: build_info object; optional telemetry section (--telemetry).
 * v3: `result` is the full campaign-journal result record
 * (writeSimResultJson(): every SimResult field, doubles at %.17g).
 * v4: the result record gains base_cycle_fraction and
 * context_switch_cycle_fraction; the five cycle fractions sum to 1.
 * v5: `stats` is flat, one object per component counter record keyed
 * by its dotted path ("sim.mem.l1i": {"accesses": ..}), with no
 * `desc` text; a distribution is {count, sum, min, max}; `config`
 * echoes the run's SimConfig; trace_summary rows gain walk_latency
 * and late_wait.
 * v6: counts that other counts determine are gone: sim.pb lookups
 * (= hits + misses), sim.psc lookups (= pd_hits + pdp_hits +
 * pml4_hits + full_misses), sim.mem.dram accesses (= row_hits +
 * row_conflicts), each sim.walker kind's walks (= latency.count) and
 * the tracer's hits_late (= late_wait.count); `config` no longer
 * echoes pbLatency, width, dataMlpFactor, fetchOverlapFactor and
 * frontendRedirectPenalty, which are constants (sim/sim_config.hh).
 * v7: `config` no longer echoes the caches' and TLBs' MSHR counts
 * (deleted: never modelled) nor the PSC's pdWays, DRAM's tParam and
 * the L2 prefetcher's depth (constants next to the code that reads
 * them); the trace_summary's `schema` is this version (its rows are
 * the tracer's Outcomes record), not the JSONL trace event schema's. */
inline constexpr int statsSchemaVersion = 7;
/** Version of the JSONL prefetch-trace event schema. */
inline constexpr int traceSchemaVersion = 1;
/** Version of the interval time-series record schema.
 * v2: streamed rows gain wall_ms and delta_instrs_per_sec (absent
 * from the deterministic in-memory ring mirrored into --stats-json;
 * readers must treat both as optional).
 * v3: an epoch carries `delta`, the change of every EpochCounters
 * field (sim/interval_sampler.hh); CSV columns are the same fields
 * under dotted names.
 * v4: every row names this version: a leading `schema` key in the
 * --stats-json "intervals" rows and the --interval-out JSONL rows, a
 * leading `schema` column in CSV. A row without it is v3 or older.
 * v5: `delta` is {counters, cycles, freqResets, records}, `records`
 * the change of every component record keyed by its --stats-json
 * path (a distribution's min and max as at the epoch's end). It
 * replaces walkerBusyPortCycles, issued, hits and the istlb_mpki,
 * pb_hit_rate and walker_occupancy rates derived from them.
 * v6: `records` loses the counts stats schema v6 deletes, and the
 * last epoch carries the tracer's end-of-run `residual` counts, so
 * the epochs add up to every sim.prefetch_trace count. */
inline constexpr int intervalSchemaVersion = 6;
/** Version of the BENCH_*.json artifact schema.
 * v2: top-level build_info provenance object. */
inline constexpr int benchSchemaVersion = 2;
/** Version of the experimentKey()/warmupKey() strings, and of
 * nothing else: it is baked into every key, so bumping it makes old
 * journal records and warmup images miss.
 * v2: differential-check fields (checked_translations,
 * check_mismatches, check_mapped_pages) and the checkLevel /
 * injectWalkerBugPeriod key components.
 * v3: the prefetcher key component is the registry spec string (CLI
 * spelling, '+'-joined for hybrid compositions) instead of the old
 * enum display name, so registry-named prefetchers and hybrids key
 * correctly; stale v2 keys simply miss and rerun.
 * v4: the SimConfig part loses pbLatency, width, dataMlpFactor,
 * fetchOverlapFactor and frontendRedirectPenalty, now constants.
 * v5: the SimConfig part loses the MSHR counts (deleted), psc.pdWays,
 * dram.tParam and mem.l2PrefetchDepth (now constants). */
inline constexpr int resultCacheSchemaVersion = 5;
/** Version of the campaign-journal JSONL record schema
 * (sim/supervisor.hh). Still v1 after the optional duration_ms key
 * was added: the reader tolerates its absence, and a bump would
 * force every resumed campaign to rerun finished jobs.
 * v2: the result record gains the base and context-switch cycle
 * fractions, so v1 records are reported stale and rerun.
 * v3: an ok record carries the job's miss stream (`miss_stream`, an
 * array of VPNs, empty unless the job collected one). */
inline constexpr int journalSchemaVersion = 3;

/** Write @p s as a quoted, escaped JSON string. */
inline void
writeEscaped(std::ostream &os, std::string_view s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

/**
 * Streaming writer with automatic comma placement.
 *
 * Usage: beginObject()/endObject(), beginArray()/endArray(), key()
 * before each member value inside an object, value() for leaves.
 * kv() combines key()+value().
 */
class Writer
{
  public:
    explicit Writer(std::ostream &os) : os_(os) {}

    Writer &beginObject() { open('{'); return *this; }
    Writer &endObject() { close('}'); return *this; }
    Writer &beginArray() { open('['); return *this; }
    Writer &endArray() { close(']'); return *this; }

    Writer &
    key(std::string_view k)
    {
        comma();
        writeEscaped(os_, k);
        os_ << ':';
        pendingValue_ = true;
        return *this;
    }

    Writer &
    value(std::string_view v)
    {
        comma();
        writeEscaped(os_, v);
        return *this;
    }

    Writer &value(const char *v) { return value(std::string_view(v)); }

    Writer &
    value(double v)
    {
        comma();
        if (!std::isfinite(v)) {
            os_ << "null";  // JSON has no NaN/Inf
        } else {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.12g", v);
            os_ << buf;
        }
        return *this;
    }

    Writer &
    value(std::uint64_t v)
    {
        comma();
        os_ << v;
        return *this;
    }

    Writer &
    value(std::int64_t v)
    {
        comma();
        os_ << v;
        return *this;
    }

    Writer &value(int v) { return value(static_cast<std::int64_t>(v)); }
    Writer &value(unsigned v)
    {
        return value(static_cast<std::uint64_t>(v));
    }

    Writer &
    value(bool v)
    {
        comma();
        os_ << (v ? "true" : "false");
        return *this;
    }

    template <typename T>
    Writer &
    kv(std::string_view k, T v)
    {
        key(k);
        return value(v);
    }

    /**
     * Emit a value produced by an external serializer: this handles
     * comma placement only; @p fn must write exactly one complete
     * JSON value to the stream.
     */
    template <typename Fn>
    Writer &
    rawValue(Fn &&fn)
    {
        comma();
        fn(os_);
        return *this;
    }

  private:
    void
    comma()
    {
        if (pendingValue_) {
            // Value following a key: the key already emitted ':'.
            pendingValue_ = false;
            return;
        }
        if (!needComma_.empty()) {
            if (needComma_.back())
                os_ << ',';
            needComma_.back() = true;
        }
    }

    void
    open(char c)
    {
        comma();
        os_ << c;
        needComma_.push_back(false);
    }

    void
    close(char c)
    {
        needComma_.pop_back();
        os_ << c;
        if (!needComma_.empty())
            needComma_.back() = true;
        pendingValue_ = false;
    }

    std::ostream &os_;
    std::vector<bool> needComma_;
    bool pendingValue_ = false;
};

/**
 * The fields of record @p rec (common/fields.hh) as members of the
 * open object: nested records nest, arrays are arrays, doubles print
 * at %.17g so they read back bit-exactly, bools as true/false, enums
 * as their underlying value, and Unrecorded fields are left out.
 */
template <class R>
void
writeFields(Writer &w, const R &rec)
{
    visitFields(rec, [&w](const char *key, const auto &v,
                          FieldTag tag = FieldTag::Plain) {
        using T = std::remove_cvref_t<decltype(v)>;
        if (tag == FieldTag::Unrecorded)
            return;
        w.key(key);
        if constexpr (std::is_same_v<T, double>) {
            char buf[48];
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            w.rawValue([&](std::ostream &o) { o << buf; });
        } else if constexpr (std::is_same_v<T, std::string>) {
            w.value(std::string_view(v));
        } else if constexpr (std::is_enum_v<T>) {
            w.value(static_cast<std::uint64_t>(v));
        } else if constexpr (std::is_integral_v<T>) {
            w.value(v);  // bools pick value(bool)
        } else if constexpr (Record<T>) {
            w.beginObject();
            writeFields(w, v);
            w.endObject();
        } else {
            w.beginArray();
            for (std::uint64_t e : v)
                w.value(e);
            w.endArray();
        }
    });
}

} // namespace morrigan::json

#endif // MORRIGAN_COMMON_JSON_HH
