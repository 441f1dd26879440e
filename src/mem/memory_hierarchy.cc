#include "memory_hierarchy.hh"

namespace morrigan
{

MemoryHierarchy::MemoryHierarchy(const MemoryHierarchyParams &params)
    : params_(params),
      l1i_(params.l1i),
      l1d_(params.l1d),
      l2_(params.l2),
      llc_(params.llc),
      dram_(params.dram)
{
}

MemAccessResult
MemoryHierarchy::accessThrough(Addr line, CacheModel &l1)
{
    // Warm the host's cache with the set rows the miss path will
    // scan; the L1 model usually misses (the data footprint dwarfs
    // it), so these loads are almost always needed and otherwise
    // serialise level by level.
    l2_.prefetchSet(line);
    llc_.prefetchSet(line);

    // Every fill below installs a line the level's lookup just
    // missed (the L2 prefetch fills only lines past it), so none
    // repeats the residency probe.
    MemAccessResult res;
    res.latency = l1.params().latency;
    if (l1.lookup(line)) {
        res.servedBy = MemLevel::L1;
        return res;
    }

    res.latency += l2_.params().latency;
    if (l2_.lookup(line)) {
        res.servedBy = MemLevel::L2;
        l1.fillMissed(line);
        return res;
    }
    maybeL2Prefetch(line);

    res.latency += llc_.params().latency;
    if (llc_.lookup(line)) {
        res.servedBy = MemLevel::LLC;
        l2_.fillMissed(line);
        l1.fillMissed(line);
        return res;
    }

    res.latency += dram_.access(line << lineShift);
    res.servedBy = MemLevel::Dram;
    llc_.fillMissed(line);
    l2_.fillMissed(line);
    l1.fillMissed(line);
    return res;
}

void
MemoryHierarchy::maybeL2Prefetch(Addr missed_line)
{
    if (!params_.l2Prefetcher)
        return;
    // Degenerate SPP: next-line prefetch, l2PrefetchDepth lines deep.
    // The real SPP tracks signatures; a depth-N sequential fetcher
    // reproduces its role as background data-side cache warming.
    for (std::uint32_t d = 1; d <= l2PrefetchDepth; ++d) {
        Addr line = missed_line + d;
        if (!l2_.contains(line)) {
            l2_.fillMissed(line, true);
            ++stats_.l2Prefetches;
        }
    }
}

MemAccessResult
MemoryHierarchy::access(Addr paddr, AccessType type)
{
    Addr line = lineOf(paddr);
    return accessThrough(line,
                         type == AccessType::Instruction ? l1i_ : l1d_);
}

MemAccessResult
MemoryHierarchy::walkerAccess(Addr paddr)
{
    return accessThrough(lineOf(paddr), l1d_);
}

std::optional<Cycle>
MemoryHierarchy::prefetchInstructionLine(Addr paddr)
{
    Addr line = lineOf(paddr);
    if (l1i_.contains(line))
        return std::nullopt;
    l2_.prefetchSet(line);
    llc_.prefetchSet(line);

    Cycle latency = l2_.params().latency;
    if (!l2_.contains(line)) {
        latency += llc_.params().latency;
        if (!llc_.contains(line)) {
            latency += dram_.access(paddr);
            llc_.fillMissed(line, true);
        }
        l2_.fillMissed(line, true);
    }
    return latency;
}

void
MemoryHierarchy::commitInstructionPrefetch(Addr paddr)
{
    l1i_.insert(lineOf(paddr), true);
}

} // namespace morrigan
