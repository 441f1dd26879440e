#include "common/telemetry.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "common/json.hh"

namespace morrigan::telemetry
{

namespace detail
{
std::atomic<bool> enabledFlag{false};
} // namespace detail

namespace
{

std::atomic<bool> tracingFlag{false};
std::atomic<std::uint64_t> traceEpochNs{0};

/** Spans nested deeper than this are counted but not timed. */
constexpr int maxSpanDepth = 64;
/** Per-thread trace-event cap; overflow bumps TraceEventsDropped. */
constexpr std::size_t maxEventsPerThread = 1u << 20;

struct TraceEvent
{
    Phase phase;
    std::uint64_t startNs;
    std::uint64_t durNs;
    std::uint32_t tid;
};

/**
 * All mutable telemetry state for one thread. The owning thread
 * writes the atomic slots with relaxed stores/adds; aggregators read
 * them with relaxed loads under the registry mutex. The span stack
 * is plain data touched only by the owner. The event buffer is the
 * one structure both sides mutate, so it has its own mutex
 * (uncontended in steady state: aggregation happens at report/export
 * time, not per span).
 */
struct ThreadState
{
    std::atomic<std::uint64_t> phaseCountA[phaseCount] = {};
    std::atomic<std::uint64_t> phaseTotalA[phaseCount] = {};
    std::atomic<std::uint64_t> phaseSelfA[phaseCount] = {};
    std::atomic<std::uint64_t> counterA[counterCount] = {};

    struct Frame
    {
        Phase phase;
        std::uint64_t startNs;
        std::uint64_t childNs;
    };
    Frame stack[maxSpanDepth];
    int depth = 0;

    std::mutex eventMutex;
    std::vector<TraceEvent> events;
    std::uint32_t tid = 0;

    ThreadState();
    ~ThreadState();
};

/**
 * Process-wide thread registry. Deliberately leaked: thread_local
 * ThreadState destructors (including the main thread's) may run
 * during process teardown, after function-local statics would have
 * been destroyed.
 */
struct Registry
{
    std::mutex mutex;
    std::vector<ThreadState *> live;
    std::uint32_t nextTid = 1;

    // Totals and events of threads that have already exited.
    Report retired;
    std::vector<TraceEvent> retiredEvents;
};

Registry &
registry()
{
    static Registry *r = new Registry;
    return *r;
}

ThreadState::ThreadState()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    tid = r.nextTid++;
    r.live.push_back(this);
}

ThreadState::~ThreadState()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (std::size_t i = 0; i < phaseCount; ++i) {
        r.retired.phases[i].count +=
            phaseCountA[i].load(std::memory_order_relaxed);
        r.retired.phases[i].totalNs +=
            phaseTotalA[i].load(std::memory_order_relaxed);
        r.retired.phases[i].selfNs +=
            phaseSelfA[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < counterCount; ++i)
        r.retired.counters[i] +=
            counterA[i].load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> elock(eventMutex);
        r.retiredEvents.insert(r.retiredEvents.end(), events.begin(),
                               events.end());
    }
    r.live.erase(std::remove(r.live.begin(), r.live.end(), this),
                 r.live.end());
}

ThreadState &
threadState()
{
    thread_local ThreadState state;
    return state;
}

} // namespace

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::SimRun: return "sim_run";
      case Phase::SimRestore: return "sim_restore";
      case Phase::DemandWalk: return "demand_walk";
      case Phase::DataWalk: return "data_walk";
      case Phase::PrefetchWalk: return "prefetch_walk";
      case Phase::PrefetcherEngage: return "prefetcher_engage";
      case Phase::IntervalSample: return "interval_sample";
      case Phase::CheckpointSave: return "checkpoint_save";
      case Phase::WorkerRun: return "worker_run";
      case Phase::CacheLookup: return "cache_lookup";
      case Phase::CacheInsert: return "cache_insert";
      case Phase::SnapshotWrite: return "snapshot_write";
      case Phase::SnapshotRead: return "snapshot_read";
      case Phase::JournalAppend: return "journal_append";
      case Phase::SandboxSpawn: return "sandbox_spawn";
      case Phase::SandboxWait: return "sandbox_wait";
      case Phase::RetryBackoff: return "retry_backoff";
    }
    return "unknown";
}

const char *
counterName(Counter c)
{
    switch (c) {
      case Counter::ResultCacheHits: return "result_cache_hits";
      case Counter::ResultCacheMisses: return "result_cache_misses";
      case Counter::WarmupImageHits: return "warmup_image_hits";
      case Counter::WarmupImageMisses: return "warmup_image_misses";
      case Counter::SnapshotBytesWritten:
        return "snapshot_bytes_written";
      case Counter::SnapshotBytesRead: return "snapshot_bytes_read";
      case Counter::Fsyncs: return "fsyncs";
      case Counter::TraceEventsDropped:
        return "trace_events_dropped";
      case Counter::FsFaultsInjected: return "fs_faults_injected";
      case Counter::TraceFeedConsumerWaits:
        return "trace_feed_consumer_waits";
      case Counter::TraceFeedProducerWaits:
        return "trace_feed_producer_waits";
    }
    return "unknown";
}

void
setEnabled(bool on)
{
    detail::enabledFlag.store(on, std::memory_order_relaxed);
}

void
setTracing(bool on)
{
    if (on) {
        setEnabled(true);
        std::uint64_t expected = 0;
        traceEpochNs.compare_exchange_strong(
            expected, nowNs(), std::memory_order_relaxed);
    }
    tracingFlag.store(on, std::memory_order_relaxed);
}

bool
tracingEnabled()
{
    return tracingFlag.load(std::memory_order_relaxed);
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

void
ScopedSpan::begin(Phase p)
{
    ThreadState &ts = threadState();
    if (ts.depth >= maxSpanDepth) {
        // Count the phase so it does not silently vanish, but do not
        // time it; the enclosing spans absorb its duration as self.
        ts.phaseCountA[static_cast<std::size_t>(p)].fetch_add(
            1, std::memory_order_relaxed);
        return;
    }
    ts.stack[ts.depth++] = {p, nowNs(), 0};
    armed_ = true;
}

void
ScopedSpan::end()
{
    std::uint64_t now = nowNs();
    ThreadState &ts = threadState();
    ThreadState::Frame f = ts.stack[--ts.depth];
    std::uint64_t total = now - f.startNs;
    std::uint64_t self =
        total >= f.childNs ? total - f.childNs : 0;
    std::size_t i = static_cast<std::size_t>(f.phase);
    ts.phaseCountA[i].fetch_add(1, std::memory_order_relaxed);
    ts.phaseTotalA[i].fetch_add(total, std::memory_order_relaxed);
    ts.phaseSelfA[i].fetch_add(self, std::memory_order_relaxed);
    if (ts.depth > 0)
        ts.stack[ts.depth - 1].childNs += total;
    if (tracingEnabled()) {
        std::lock_guard<std::mutex> lock(ts.eventMutex);
        if (ts.events.size() < maxEventsPerThread) {
            ts.events.push_back({f.phase, f.startNs, total, ts.tid});
        } else {
            ts.counterA[static_cast<std::size_t>(
                            Counter::TraceEventsDropped)]
                .fetch_add(1, std::memory_order_relaxed);
        }
    }
}

namespace detail
{

void
addCounter(Counter c, std::uint64_t delta)
{
    threadState()
        .counterA[static_cast<std::size_t>(c)]
        .fetch_add(delta, std::memory_order_relaxed);
}

} // namespace detail

Report
snapshot()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    Report out = r.retired;
    for (const ThreadState *ts : r.live) {
        for (std::size_t i = 0; i < phaseCount; ++i) {
            out.phases[i].count +=
                ts->phaseCountA[i].load(std::memory_order_relaxed);
            out.phases[i].totalNs +=
                ts->phaseTotalA[i].load(std::memory_order_relaxed);
            out.phases[i].selfNs +=
                ts->phaseSelfA[i].load(std::memory_order_relaxed);
        }
        for (std::size_t i = 0; i < counterCount; ++i)
            out.counters[i] +=
                ts->counterA[i].load(std::memory_order_relaxed);
    }
    return out;
}

void
reset()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.retired = Report{};
    r.retiredEvents.clear();
    for (ThreadState *ts : r.live) {
        for (std::size_t i = 0; i < phaseCount; ++i) {
            ts->phaseCountA[i].store(0, std::memory_order_relaxed);
            ts->phaseTotalA[i].store(0, std::memory_order_relaxed);
            ts->phaseSelfA[i].store(0, std::memory_order_relaxed);
        }
        for (std::size_t i = 0; i < counterCount; ++i)
            ts->counterA[i].store(0, std::memory_order_relaxed);
        std::lock_guard<std::mutex> elock(ts->eventMutex);
        ts->events.clear();
    }
    traceEpochNs.store(0, std::memory_order_relaxed);
}

void
writeReportJson(json::Writer &w, const Report &r)
{
    w.beginObject();
    w.key("phases").beginArray();
    for (std::size_t i = 0; i < phaseCount; ++i) {
        const PhaseStat &p = r.phases[i];
        if (p.count == 0)
            continue;
        w.beginObject();
        w.kv("name", phaseName(static_cast<Phase>(i)));
        w.kv("count", p.count);
        w.kv("total_ms", 1e-6 * static_cast<double>(p.totalNs));
        w.kv("self_ms", 1e-6 * static_cast<double>(p.selfNs));
        w.endObject();
    }
    w.endArray();
    w.key("counters").beginObject();
    for (std::size_t i = 0; i < counterCount; ++i)
        w.kv(counterName(static_cast<Counter>(i)), r.counters[i]);
    w.endObject();
    w.endObject();
}

bool
writeChromeTrace(const std::string &path, std::string *err)
{
    std::vector<TraceEvent> events;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        events = r.retiredEvents;
        for (ThreadState *ts : r.live) {
            std::lock_guard<std::mutex> elock(ts->eventMutex);
            events.insert(events.end(), ts->events.begin(),
                          ts->events.end());
        }
    }
    std::sort(events.begin(), events.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  return a.startNs < b.startNs;
              });

    std::ofstream ofs(path);
    if (!ofs) {
        if (err)
            *err = "cannot open " + path + " for writing";
        return false;
    }
    std::uint64_t epoch = traceEpochNs.load(std::memory_order_relaxed);
    json::Writer w(ofs);
    w.beginObject();
    w.kv("displayTimeUnit", "ms");
    w.key("traceEvents").beginArray();
    for (const TraceEvent &e : events) {
        std::uint64_t rel = e.startNs >= epoch ? e.startNs - epoch : 0;
        w.beginObject();
        w.kv("name", phaseName(e.phase));
        w.kv("cat", "morrigan");
        w.kv("ph", "X");
        w.kv("ts", 1e-3 * static_cast<double>(rel));
        w.kv("dur", 1e-3 * static_cast<double>(e.durNs));
        w.kv("pid", 1);
        w.kv("tid", static_cast<std::uint64_t>(e.tid));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    ofs << '\n';
    ofs.flush();
    if (!ofs) {
        if (err)
            *err = "short write to " + path;
        return false;
    }
    return true;
}

} // namespace morrigan::telemetry
