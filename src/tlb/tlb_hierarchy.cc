#include "tlb_hierarchy.hh"

namespace morrigan
{

TlbHierarchy::TlbHierarchy(const TlbHierarchyParams &params)
    : itlb_(params.itlb), dtlb_(params.dtlb), stlb_(params.stlb)
{
}

TlbLookupResult
TlbHierarchy::lookup(Vpn vpn, AccessType type)
{
    TlbLookupResult res;
    Tlb &l1 = type == AccessType::Instruction ? itlb_ : dtlb_;

    res.latency = l1.params().latency;
    if (TlbHit h = l1.lookupAny(vpn, type); h.entry) {
        res.level = TlbHitLevel::L1;
        res.pfn = h.pagePfn;
        return res;
    }

    res.latency += stlb_.params().latency;
    if (TlbHit h = stlb_.lookupAny(vpn, type); h.entry) {
        res.level = TlbHitLevel::Stlb;
        res.pfn = h.pagePfn;
        if (h.entry->large)
            l1.fillLarge(vpn, h.entry->pfn, type);
        else
            l1.fill(vpn, h.entry->pfn, type);
        return res;
    }

    res.level = TlbHitLevel::Miss;
    return res;
}

void
TlbHierarchy::fill(Vpn vpn, Pfn pfn, AccessType type, bool large)
{
    Tlb &l1 = type == AccessType::Instruction ? itlb_ : dtlb_;
    if (large) {
        l1.fillLarge(vpn, pfn, type);
        stlb_.fillLarge(vpn, pfn, type);
    } else {
        l1.fill(vpn, pfn, type);
        stlb_.fill(vpn, pfn, type);
    }
}

void
TlbHierarchy::fillStlbOnly(Vpn vpn, Pfn pfn, AccessType type)
{
    stlb_.fill(vpn, pfn, type);
}

void
TlbHierarchy::flush()
{
    itlb_.flush();
    dtlb_.flush();
    stlb_.flush();
}

} // namespace morrigan
