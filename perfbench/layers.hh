/**
 * @file
 * Timing decorators the benchmark wraps around two layer interfaces.
 *
 * The benchmark measures every layer from outside the simulator: it
 * times calls into a layer's public virtual functions and adds no span
 * inside src/. Each decorator forwards every virtual of the interface
 * it wraps, so a wrapped simulation is bit-identical to an unwrapped
 * one (the --self-test mode proves it field for field, including a
 * snapshot save/restore round trip through the layer decorators).
 * SlicedTraceSource is the end-to-end mode's only decorator: it reads
 * the clock once per slice of the stream, not once per call, and runs
 * a calibration kernel between slices, outside the timed slices.
 */

#ifndef MORRIGAN_PERFBENCH_LAYERS_HH
#define MORRIGAN_PERFBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/tlb_prefetcher.hh"
#include "workload/trace.hh"

namespace morrigan::perfbench
{

/** Monotonic nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Times TraceSource::nextBlock / next (the workload layer). */
class TimedTraceSource : public TraceSource
{
  public:
    explicit TimedTraceSource(TraceSource &inner) : inner_(inner) {}

    TraceRecord
    next() override
    {
        const std::uint64_t t0 = nowNs();
        TraceRecord r = inner_.next();
        ns_ += nowNs() - t0;
        ++instructions_;
        return r;
    }

    void
    nextBlock(TraceRecord *out, unsigned n) override
    {
        const std::uint64_t t0 = nowNs();
        inner_.nextBlock(out, n);
        ns_ += nowNs() - t0;
        instructions_ += n;
    }

    const std::string &name() const override { return inner_.name(); }

    std::vector<std::pair<Vpn, std::uint64_t>>
    mappedRegions() const override
    {
        return inner_.mappedRegions();
    }

    std::vector<std::pair<Vpn, std::uint64_t>>
    largeMappedRegions() const override
    {
        return inner_.largeMappedRegions();
    }

    void save(SnapshotWriter &w) const override { inner_.save(w); }
    void restore(SnapshotReader &r) override { inner_.restore(r); }

    std::uint64_t ns() const { return ns_; }
    std::uint64_t instructions() const { return instructions_; }

  private:
    TraceSource &inner_;
    std::uint64_t ns_ = 0;
    std::uint64_t instructions_ = 0;
};

/**
 * A fixed, throughput-bound calibration kernel: eight independent
 * xorshift streams doing branchy read-modify-writes in a 32 KB table.
 * Other tenants of a shared host slow it as they slow the simulator
 * (they take issue slots, not memory), so its time is a yardstick for
 * the host's speed at the moment it runs. It is benchmark code: no
 * change to the simulator can make it faster or slower.
 */
class CalibrationKernel
{
  public:
    /** Host nanoseconds of one timed pass, after an untimed pass that
     * brings the table and the branch history back into the core. */
    std::uint64_t
    timeNs()
    {
        pass(warmIterations);
        const std::uint64_t t0 = nowNs();
        pass(timedIterations);
        return nowNs() - t0;
    }

  private:
    static constexpr unsigned warmIterations = 512;
    static constexpr unsigned timedIterations = 2048;

    void
    pass(unsigned iterations)
    {
        constexpr std::size_t mask = tableSize - 1;
        std::uint64_t s[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        std::uint64_t acc = 0;
        for (unsigned i = 0; i < iterations; ++i) {
            for (std::uint64_t &x : s) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                const std::uint32_t v = table_[x & mask];
                if (v & 1)
                    acc += v;
                else
                    table_[(x >> 20) & mask] = v + 1;
            }
        }
        sink_ = acc;
    }

    static constexpr std::size_t tableSize = 8 * 1024;
    std::vector<std::uint32_t> table_ = std::vector<std::uint32_t>(tableSize);
    volatile std::uint64_t sink_ = 0;
};

/**
 * Splits a run into slices of @p slice instructions drawn from the
 * wrapped source and times each one, then runs the calibration kernel
 * (untimed for the slice) so that every slice has a yardstick taken
 * within microseconds of it. The stream is deterministic, so slice k
 * covers the same instructions in every repetition. Call start() just
 * before Simulator::run() and finish() just after it.
 */
class SlicedTraceSource : public TraceSource
{
  public:
    SlicedTraceSource(TraceSource &inner, std::uint64_t slice)
        : inner_(inner), slice_(slice), nextCut_(slice)
    {
    }

    TraceRecord
    next() override
    {
        TraceRecord r = inner_.next();
        advance(1);
        return r;
    }

    void
    nextBlock(TraceRecord *out, unsigned n) override
    {
        inner_.nextBlock(out, n);
        advance(n);
    }

    const std::string &name() const override { return inner_.name(); }

    std::vector<std::pair<Vpn, std::uint64_t>>
    mappedRegions() const override
    {
        return inner_.mappedRegions();
    }

    std::vector<std::pair<Vpn, std::uint64_t>>
    largeMappedRegions() const override
    {
        return inner_.largeMappedRegions();
    }

    void save(SnapshotWriter &w) const override { inner_.save(w); }
    void restore(SnapshotReader &r) override { inner_.restore(r); }

    void start() { sliceStart_ = nowNs(); }
    /** Closes the last, partial slice. */
    void finish() { cut(); }

    /** Per slice: its host time and the calibration kernel's. */
    const std::vector<std::uint64_t> &sliceNs() const { return sliceNs_; }
    const std::vector<std::uint64_t> &kernelNs() const { return kernelNs_; }

  private:
    void
    advance(unsigned n)
    {
        instructions_ += n;
        if (instructions_ >= nextCut_) {
            cut();
            nextCut_ += slice_;
        }
    }

    void
    cut()
    {
        sliceNs_.push_back(nowNs() - sliceStart_);
        kernelNs_.push_back(kernel_.timeNs());
        sliceStart_ = nowNs();
    }

    TraceSource &inner_;
    const std::uint64_t slice_;
    std::uint64_t instructions_ = 0;
    std::uint64_t nextCut_;
    std::uint64_t sliceStart_ = 0;
    CalibrationKernel kernel_;
    std::vector<std::uint64_t> sliceNs_, kernelNs_;
};

/** Times TlbPrefetcher::onInstrStlbMiss (the prefetcher layer). */
class TimedPrefetcher : public TlbPrefetcher
{
  public:
    explicit TimedPrefetcher(TlbPrefetcher &inner) : inner_(inner) {}

    const char *name() const override { return inner_.name(); }

    void
    onInstrStlbMiss(Vpn vpn, Addr pc, unsigned tid,
                    std::vector<PrefetchRequest> &out) override
    {
        const std::size_t before = out.size();
        const std::uint64_t t0 = nowNs();
        inner_.onInstrStlbMiss(vpn, pc, tid, out);
        ns_ += nowNs() - t0;
        ++engages_;
        requests_ += out.size() - before;
    }

    void
    creditPbHit(const PrefetchTag &tag) override
    {
        inner_.creditPbHit(tag);
    }

    void onContextSwitch() override { inner_.onContextSwitch(); }

    std::size_t storageBits() const override
    {
        return inner_.storageBits();
    }

    std::uint64_t
    frequencyStackResets() const override
    {
        return inner_.frequencyStackResets();
    }

    void save(SnapshotWriter &w) const override { inner_.save(w); }
    void restore(SnapshotReader &r) override { inner_.restore(r); }

    std::uint64_t ns() const { return ns_; }
    std::uint64_t engages() const { return engages_; }
    std::uint64_t requests() const { return requests_; }

  private:
    TlbPrefetcher &inner_;
    std::uint64_t ns_ = 0;
    std::uint64_t engages_ = 0;
    std::uint64_t requests_ = 0;
};

} // namespace morrigan::perfbench

#endif // MORRIGAN_PERFBENCH_LAYERS_HH
