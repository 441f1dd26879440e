#include "psc.hh"

namespace morrigan
{

namespace
{

std::uint64_t
pml4Tag(Vpn vpn)
{
    return vpn >> (3 * radixBits);
}

std::uint64_t
pdpTag(Vpn vpn)
{
    return vpn >> (2 * radixBits);
}

std::uint64_t
pdTag(Vpn vpn)
{
    return vpn >> radixBits;
}

} // anonymous namespace

PageStructureCache::PageStructureCache(const PscParams &params)
    : params_(params),
      pml4_(params.pml4Entries, params.pml4Entries),
      pdp_(params.pdpEntries, params.pdpEntries),
      pd_(params.pdEntries, pscPdWays)
{
}

unsigned
PageStructureCache::lookupRefsNeeded(Vpn vpn)
{
    if (pd_.find(pdTag(vpn))) {
        ++stats_.pdHits;
        return 1;
    }
    if (pdp_.find(pdpTag(vpn))) {
        ++stats_.pdpHits;
        return 2;
    }
    if (pml4_.find(pml4Tag(vpn))) {
        ++stats_.pml4Hits;
        return 3;
    }
    ++stats_.fullMisses;
    return pageTableLevels;
}

unsigned
PageStructureCache::probeRefsNeeded(Vpn vpn) const
{
    if (pd_.probe(pdTag(vpn)))
        return 1;
    if (pdp_.probe(pdpTag(vpn)))
        return 2;
    if (pml4_.probe(pml4Tag(vpn)))
        return 3;
    return pageTableLevels;
}

void
PageStructureCache::fill(Vpn vpn)
{
    pml4_.insert(pml4Tag(vpn), Empty{});
    pdp_.insert(pdpTag(vpn), Empty{});
    pd_.insert(pdTag(vpn), Empty{});
}

void
PageStructureCache::flush()
{
    pml4_.flush();
    pdp_.flush();
    pd_.flush();
}

} // namespace morrigan
