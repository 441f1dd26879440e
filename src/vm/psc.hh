/**
 * @file
 * Page Structure Caches (MMU caches).
 *
 * 3-level split PSC as in Table 1: PML4 2-entry fully associative,
 * PDP 4-entry fully associative, PD 32-entry 4-way, 2-cycle access.
 * A hit at level L means the walker can skip the accesses above L and
 * start directly at the level below, so a PD hit leaves only the leaf
 * PTE reference.
 */

#ifndef MORRIGAN_VM_PSC_HH
#define MORRIGAN_VM_PSC_HH

#include <cstdint>

#include "common/assoc_table.hh"
#include "common/fields.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace morrigan
{

/** Static configuration of the split PSC. */
struct PscParams
{
    std::uint32_t pml4Entries = 2;   //!< fully associative
    std::uint32_t pdpEntries = 4;    //!< fully associative
    std::uint32_t pdEntries = 32;
    std::uint32_t pdWays = 4;
    Cycle latency = 2;

    /** The fields, with their cache-key names (common/fields.hh). */
    template <RecordOf<PscParams> Self, class V>
    friend constexpr void visitFields(Self &p, V &&v)
    {
        v("pml4", p.pml4Entries);
        v("pdp", p.pdpEntries);
        v("pd", p.pdEntries);
        v("pdWays", p.pdWays);
        v("lat", p.latency);
    }
};
static_assert(visitsEveryField<PscParams>());

/**
 * Split page structure cache.
 *
 * Tags are the VPN bits that select the cached interior entry:
 * PML4 entries cover 512GB regions (vpn >> 27), PDP entries 1GB
 * regions (vpn >> 18), PD entries 2MB regions (vpn >> 9).
 */
class PageStructureCache
{
  public:
    explicit PageStructureCache(const PscParams &params,
                                StatGroup *parent = nullptr);

    /**
     * Number of page-table levels the walker must still reference
     * for @p vpn, from the deepest PSC hit: 1 (PD hit, leaf only)
     * up to 4 (all levels referenced). Counts lookup stats.
     */
    unsigned lookupRefsNeeded(Vpn vpn);

    /** Probe variant of lookupRefsNeeded without stats/LRU updates. */
    unsigned probeRefsNeeded(Vpn vpn) const;

    /** Install the interior entries discovered by a completed walk. */
    void fill(Vpn vpn);

    /** Clear all three levels. Used on context-switch tests. */
    void flush();

    void save(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);

    Cycle latency() const { return params_.latency; }

    std::uint64_t lookups() const { return lookups_.value(); }
    std::uint64_t pdHits() const { return pdHits_.value(); }

  private:
    struct Empty {};

    PscParams params_;
    SetAssocTable<std::uint64_t, Empty> pml4_;
    SetAssocTable<std::uint64_t, Empty> pdp_;
    SetAssocTable<std::uint64_t, Empty> pd_;

    StatGroup stats_;
    Counter lookups_;
    Counter pdHits_;
    Counter pdpHits_;
    Counter pml4Hits_;
    Counter fullMisses_;
};

} // namespace morrigan

#endif // MORRIGAN_VM_PSC_HH
