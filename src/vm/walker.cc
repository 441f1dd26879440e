#include "walker.hh"

#include <algorithm>

#include "common/logging.hh"

namespace morrigan
{

PageTableWalker::PageTableWalker(const WalkerParams &params,
                                 PageTable &table, MemoryHierarchy &mem)
    : params_(params), table_(table), mem_(mem), psc_(params.psc)
{
    fatal_if(params_.ports == 0, "walker needs at least one port");
    portBusyUntil_.assign(params_.ports, 0);
}

Cycle
PageTableWalker::earliestStart(Cycle now) const
{
    Cycle freest =
        *std::min_element(portBusyUntil_.begin(), portBusyUntil_.end());
    return std::max(now, freest);
}

WalkResult
PageTableWalker::walk(Vpn vpn, WalkKind kind, Cycle now)
{
    const bool allocate =
        kind == WalkKind::DemandInstr || kind == WalkKind::DemandData;
    WalkResult res;
    res.startCycle = earliestStart(now);

    WalkPath path = table_.walk(vpn, allocate);
    bool hashed = table_.format() == PageTableFormat::Hashed;
    unsigned refs_needed;
    if (hashed) {
        // A hashed table has no partial translations to cache: the
        // walk is the probe chain itself (usually one reference).
        refs_needed = path.levels;
    } else {
        refs_needed = psc_.lookupRefsNeeded(vpn);
        // The PSC caches the bottom three interior levels; a full
        // PSC miss walks every level of the (possibly 5-level) tree.
        if (refs_needed == pageTableLevels)
            refs_needed = path.levels;
    }

    if (!path.mapped && !allocate) {
        // Non-faulting walk of an unmapped page: the walker
        // discovers the absent entry part-way down and drops the
        // request. Charge only the references actually performed:
        // entryAddr slots below the absent entry are zero.
        ++stats_.droppedPrefetchWalks;
    }

    Cycle access_latency = 0;
    Cycle max_ref_latency = 0;
    unsigned first_level = path.levels - refs_needed;
    for (unsigned depth = first_level; depth < path.levels;
         ++depth) {
        if (path.entryAddr[depth] == 0 && depth > 0) {
            // Traversal ended early at an absent interior entry.
            break;
        }
        MemAccessResult mr = mem_.walkerAccess(path.entryAddr[depth]);
        ++res.memRefs;
        ++res.refsByLevel[static_cast<unsigned>(mr.servedBy)];
        access_latency += mr.latency;
        max_ref_latency = std::max(max_ref_latency, mr.latency);
    }

    // ASAP overlaps the serialized chain: only the slowest reference
    // remains on the critical path.
    Cycle chain = params_.asap ? max_ref_latency : access_latency;
    Cycle duration = (hashed ? 0 : psc_.latency()) + chain;

    res.completeCycle = res.startCycle + duration;
    res.latency = res.completeCycle - now;
    res.success = path.mapped;
    res.pfn = path.pfn;
    res.large = path.large;
    res.basePfn = path.large
                      ? path.pfn - (vpn & (pagesPerLargePage - 1))
                      : path.pfn;

    // Occupy the freest port for the walk's duration.
    auto port = std::min_element(portBusyUntil_.begin(),
                                 portBusyUntil_.end());
    *port = res.completeCycle;
    stats_.busyPortCycles += res.completeCycle - res.startCycle;

    if (path.mapped && !hashed)
        psc_.fill(vpn);

    KindStats &k = stats_.*kindStats[static_cast<unsigned>(kind)];
    for (unsigned i = 0; i < res.refsByLevel.size(); ++i)
        k.refsByLevel[i] += res.refsByLevel[i];
    k.latency.sample(static_cast<double>(res.latency));
    return res;
}

} // namespace morrigan
