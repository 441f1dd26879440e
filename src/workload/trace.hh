/**
 * @file
 * Trace record and trace source abstractions.
 *
 * The original evaluation drives ChampSim with Qualcomm server traces
 * (CVP-1 / IPC-1). Those traces are not redistributable, so this
 * reproduction generates synthetic instruction/data streams whose
 * iSTLB-relevant statistics match the paper's measured
 * characterisation (Section 3.3); see DESIGN.md for the substitution
 * argument. The simulator consumes any TraceSource, so recorded
 * traces could be plugged in without touching the pipeline.
 */

#ifndef MORRIGAN_WORKLOAD_TRACE_HH
#define MORRIGAN_WORKLOAD_TRACE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/snapshot.hh"
#include "common/types.hh"

namespace morrigan
{

/** One retired instruction. */
struct TraceRecord
{
    /** Fetch address of the instruction. */
    Addr pc = 0;
    /** Whether the instruction performs a data access. */
    bool hasData = false;
    /** Effective address of the data access when hasData. */
    Addr dataAddr = 0;
};

/** A stream of retired instructions. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next instruction. Streams are unbounded. */
    virtual TraceRecord next() = 0;

    /**
     * Produce the next @p n instructions into @p out. Must equal n
     * calls of next() for every n: the simulator's trace feed fills
     * its ring in chunks of whatever size fits. Sources override it
     * so a chunk pays one virtual call instead of one per instruction
     * (and the source's generator state stays register-resident
     * across the chunk).
     */
    virtual void
    nextBlock(TraceRecord *out, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            out[i] = next();
    }

    /** Workload identifier for reports. */
    virtual const std::string &name() const = 0;

    /**
     * Virtual regions (base VPN, page count) the process image maps
     * up front -- the simulator pre-populates the page table with
     * these so prefetch walks can be non-faulting against them.
     */
    virtual std::vector<std::pair<Vpn, std::uint64_t>>
    mappedRegions() const = 0;

    /**
     * Regions mapped with 2MB transparent huge pages (base VPN and
     * size in 4KB pages). Empty by default; used by the THP-for-data
     * configuration of Figure 2's methodology.
     */
    virtual std::vector<std::pair<Vpn, std::uint64_t>>
    largeMappedRegions() const
    {
        return {};
    }

    /**
     * Serialize the source's stream position so a resumed simulation
     * replays the exact remaining instruction sequence. Sources that
     * cannot express their position (e.g. a non-seekable recorded
     * trace) keep these defaults, which reject snapshotting; the
     * simulator degrades to checkpoint-less operation rather than
     * resuming a silently different stream.
     */
    virtual void
    save(SnapshotWriter &w) const
    {
        (void)w;
        throw SnapshotError("trace source '" + name() +
                            "' does not support snapshots");
    }

    /** Restore a position written by save(). */
    virtual void
    restore(SnapshotReader &r)
    {
        (void)r;
        throw SnapshotError("trace source '" + name() +
                            "' does not support snapshots");
    }
};

} // namespace morrigan

#endif // MORRIGAN_WORKLOAD_TRACE_HH
