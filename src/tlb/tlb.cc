#include "tlb.hh"

namespace morrigan
{

Tlb::Tlb(const TlbParams &params)
    : params_(params), table_(params.entries, params.ways)
{
}

bool
Tlb::contains(Vpn vpn) const
{
    return table_.probe(vpn) != nullptr;
}

const TlbEntry *
Tlb::probeEntry(Vpn vpn) const
{
    return table_.probe(vpn);
}

void
Tlb::fill(Vpn vpn, Pfn pfn, AccessType type)
{
    ++stats_.fills;
    TlbEntry victim;
    Vpn victim_vpn = 0;
    bool evicted = table_.insert(vpn, TlbEntry{pfn, type},
                                 &victim_vpn, &victim);
    if (evicted && victim.filledBy != type)
        ++stats_.crossEvictions;
}

void
Tlb::fillLarge(Vpn vpn, Pfn base_pfn, AccessType type)
{
    ++stats_.fills;
    everLarge_ = true;
    TlbEntry victim;
    Vpn victim_vpn = 0;
    TlbEntry entry{base_pfn, type, true};
    bool evicted =
        table_.insert(largeKey(vpn), entry, &victim_vpn, &victim);
    if (evicted && victim.filledBy != type)
        ++stats_.crossEvictions;
}

bool
Tlb::invalidate(Vpn vpn)
{
    return table_.erase(vpn);
}

void
Tlb::flush()
{
    table_.flush();
}

} // namespace morrigan
