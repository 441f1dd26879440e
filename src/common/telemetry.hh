/**
 * @file
 * Self-profiling telemetry: phase timers, counters, span tracer.
 *
 * Answers "where does the *simulator's own* wall-clock go?" — the
 * attribution layer ROADMAP item 1's hot-loop speed campaign needs
 * before any rewrite, and the metrics source the campaign
 * infrastructure (supervisor, caches, snapshots) reports
 * through progress lines and --stats-json.
 *
 * Three primitives:
 *
 *  - ScopedSpan: RAII phase timer. Spans nest; each Phase accumulates
 *    a count, *total* time (span entry to exit) and *self* time
 *    (total minus time spent in child spans), so a phase that calls
 *    into instrumented children is not double-billed. Per-instruction
 *    stages of the hot loop (workload generation, TLB/PSC hit
 *    lookups) are deliberately NOT spanned — at ~20 ns of simulated
 *    work per instruction, two clock reads each would dwarf the work
 *    being measured. They are attributed instead as the *self* time
 *    of the enclosing Phase::SimRun span; miss-path events (walks,
 *    prefetcher engagement), which occur at MPKI rates, get their own
 *    spans.
 *
 *  - Counters: monotonic event/byte counters (cache hits, snapshot
 *    bytes, fsyncs) for rates the timers cannot express.
 *
 *  - Span tracer: when tracing is armed, every span also records a
 *    complete trace event; writeChromeTrace() exports the Chrome
 *    trace-event JSON consumed by chrome://tracing and Perfetto
 *    (`morrigan-sim --trace-events out.json`).
 *
 * Overhead contract: the whole subsystem sits behind one process-wide
 * flag. Disabled (the default), ScopedSpan's constructor is a single
 * relaxed atomic load and a branch — no clock read, no thread_local
 * touch, no allocation. Enabled, a span costs two steady_clock reads
 * plus a handful of relaxed atomic adds into thread-local slots.
 *
 * Thread safety: all mutable state lives in thread-local blocks
 * registered with a global registry; aggregation (snapshot(), trace
 * export) walks the registry under its mutex and reads the slots with
 * relaxed atomics. Threads that exit (supervisor workers) merge their
 * totals into a retired pool first, so nothing is lost.
 *
 * Determinism contract: telemetry is write-only observation — nothing
 * here feeds back into simulation state, so simulated results are
 * bit-identical with telemetry on or off. The fuzzer's M6 metamorphic
 * invariant (check/fuzz.hh) enforces this.
 */

#ifndef MORRIGAN_COMMON_TELEMETRY_HH
#define MORRIGAN_COMMON_TELEMETRY_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace morrigan::json
{
class Writer;
}

namespace morrigan::telemetry
{

/**
 * Instrumented phases. Simulator phases first, then campaign
 * infrastructure. Names (phaseName()) appear in --stats-json
 * telemetry sections and as Chrome trace event names.
 */
enum class Phase : std::uint8_t {
    // Simulator (per run; children of SimRun except SimRestore).
    SimRun,          //!< one Simulator::run() call, warmup + measure
    SimRestore,      //!< checkpoint / warmup-image / snapshot restore
    DemandWalk,      //!< iSTLB-miss demand page walk (+ PB probe)
    DataWalk,        //!< dSTLB-miss demand page walk
    PrefetchWalk,    //!< prefetch page walk issued by a prefetcher
    PrefetcherEngage,//!< Morrigan/baseline train + predict on a miss
    IntervalSample,  //!< interval-sampler record + sink emit
    CheckpointSave,  //!< periodic checkpoint serialization + publish

    // Campaign infrastructure.
    WorkerRun,       //!< supervisor worker executing one job end to end
    CacheLookup,     //!< in-process result-cache lookup
    CacheInsert,     //!< in-process result-cache insert
    SnapshotWrite,   //!< snapshot serialize-to-file + fsync + rename
    SnapshotRead,    //!< snapshot load + CRC verification
    JournalAppend,   //!< campaign-journal line append + flush
    SandboxSpawn,    //!< supervisor fork/exec of a sandboxed job
    SandboxWait,     //!< supervisor poll/reap of sandboxed children
    RetryBackoff,    //!< supervisor backoff sleep before a retry
};

inline constexpr std::size_t phaseCount = 17;

/** Stable snake_case name of @p p (JSON keys, trace event names). */
const char *phaseName(Phase p);

/** Monotonic counters for rates the phase timers cannot express. */
enum class Counter : std::uint8_t {
    ResultCacheHits,
    ResultCacheMisses,
    WarmupImageHits,      //!< warmup-image restores that succeeded
    WarmupImageMisses,    //!< warmup simulated from scratch
    SnapshotBytesWritten,
    SnapshotBytesRead,
    Fsyncs,               //!< fsync/fdatasync calls issued
    TraceEventsDropped,   //!< events discarded at the per-thread cap
    FsFaultsInjected,     //!< faults injected by MORRIGAN_FAULT_FS
    TraceFeedConsumerWaits, //!< simulator waited for generated records
    TraceFeedProducerWaits, //!< generator waited for room or a grant
};

inline constexpr std::size_t counterCount = 11;

/** Stable snake_case name of @p c. */
const char *counterName(Counter c);

namespace detail
{
extern std::atomic<bool> enabledFlag;
} // namespace detail

/** Is telemetry collection armed? Single relaxed load. */
inline bool
enabled()
{
    return detail::enabledFlag.load(std::memory_order_relaxed);
}

/** Arm/disarm collection process-wide. Does not clear prior stats. */
void setEnabled(bool on);

/**
 * Arm/disarm span-event recording for Chrome trace export. Arming
 * implies setEnabled(true) and (re)starts the trace epoch; events
 * recorded earlier are kept (ts stays relative to the first epoch).
 */
void setTracing(bool on);

/** Is the span tracer armed? */
bool tracingEnabled();

/** Monotonic (steady_clock) nanoseconds; not wall/calendar time. */
std::uint64_t nowNs();

/**
 * This process's peak resident set in MB (VmHWM of
 * /proc/self/status), or 0 where that file is unavailable. Unlike
 * getrusage's ru_maxrss it does not carry over the RSS the process
 * had before exec, so a launcher's footprint does not set a floor.
 */
double peakRssMb();

/**
 * RAII phase span. Construction while telemetry is disabled is free
 * (one branch); while enabled it pushes a frame on the calling
 * thread's span stack and the destructor attributes elapsed time.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(Phase p)
    {
        if (enabled())
            begin(p);
    }

    ~ScopedSpan()
    {
        if (armed_)
            end();
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    void begin(Phase p);
    void end();

    bool armed_ = false;
};

namespace detail
{
void addCounter(Counter c, std::uint64_t delta);
} // namespace detail

/** Bump counter @p c by @p delta; free when telemetry is disabled. */
inline void
add(Counter c, std::uint64_t delta = 1)
{
    if (enabled())
        detail::addCounter(c, delta);
}

/** Aggregated accounting for one phase. */
struct PhaseStat
{
    std::uint64_t count = 0;   //!< completed spans
    std::uint64_t totalNs = 0; //!< entry-to-exit time, children incl.
    std::uint64_t selfNs = 0;  //!< totalNs minus child-span time
};

/** Point-in-time aggregate across all threads, live and retired. */
struct Report
{
    PhaseStat phases[phaseCount];
    std::uint64_t counters[counterCount] = {};

    const PhaseStat &
    phase(Phase p) const
    {
        return phases[static_cast<std::size_t>(p)];
    }

    std::uint64_t
    counter(Counter c) const
    {
        return counters[static_cast<std::size_t>(c)];
    }
};

/** Aggregate phase stats + counters across every thread. */
Report snapshot();

/**
 * Zero all phase stats and counters and discard buffered trace
 * events, across live and retired threads (tests; also used between
 * bench_throughput grid cells). Spans currently open keep running
 * and will attribute their full duration on exit.
 */
void reset();

/**
 * Write the standard telemetry JSON object — phases array (only
 * phases with a nonzero count) and counters object — through @p w.
 * Caller has already positioned the writer (e.g. after key()).
 */
void writeReportJson(json::Writer &w, const Report &r);

/**
 * Export every buffered span event as Chrome trace-event JSON
 * (chrome://tracing, Perfetto). Returns false and fills @p err if
 * the file cannot be written.
 */
bool writeChromeTrace(const std::string &path,
                      std::string *err = nullptr);

} // namespace morrigan::telemetry

#endif // MORRIGAN_COMMON_TELEMETRY_HH
