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

void
Tlb::save(SnapshotWriter &w) const
{
    w.section("tlb");
    w.str(params_.name);
    table_.save(w, [](SnapshotWriter &sw, const TlbEntry &e) {
        sw.u64(e.pfn);
        sw.u8(static_cast<std::uint8_t>(e.filledBy));
        sw.b(e.large);
    });
}

void
Tlb::restore(SnapshotReader &r)
{
    r.section("tlb");
    std::string name = r.str();
    if (name != params_.name)
        throw SnapshotError("TLB mismatch: snapshot has '" + name +
                            "', live is '" + params_.name + "'");
    table_.restore(r, [this](SnapshotReader &sr, TlbEntry &e) {
        e.pfn = sr.u64();
        e.filledBy = static_cast<AccessType>(sr.u8());
        e.large = sr.b();
        if (e.large)
            everLarge_ = true;
    });
}

} // namespace morrigan
