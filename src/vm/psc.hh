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
#include "common/types.hh"

namespace morrigan
{

/** Associativity of the PD cache (Table 1). */
inline constexpr std::uint32_t pscPdWays = 4;

/** Static configuration of the split PSC. */
struct PscParams
{
    std::uint32_t pml4Entries = 2;   //!< fully associative
    std::uint32_t pdpEntries = 4;    //!< fully associative
    std::uint32_t pdEntries = 32;     //!< pscPdWays-way
    Cycle latency = 2;

    /** The fields, with their cache-key names (common/fields.hh). */
    template <RecordOf<PscParams> Self, class V>
    friend constexpr void visitFields(Self &p, V &&v)
    {
        v("pml4", p.pml4Entries);
        v("pdp", p.pdpEntries);
        v("pd", p.pdEntries);
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
    /** Counters (common/fields.hh); the visit names are the --stats
     * names. Every lookup counts in exactly one of them, so lookups
     * are their sum. */
    struct Stats
    {
        /** hits in the PD cache (1 ref left) */
        std::uint64_t pdHits = 0;
        /** hits in the PDP cache */
        std::uint64_t pdpHits = 0;
        /** hits in the PML4 cache */
        std::uint64_t pml4Hits = 0;
        /** misses in all PSC levels */
        std::uint64_t fullMisses = 0;

        template <RecordOf<Stats> Self, class V>
        friend constexpr void visitFields(Self &s, V &&v)
        {
            v("pd_hits", s.pdHits);
            v("pdp_hits", s.pdpHits);
            v("pml4_hits", s.pml4Hits);
            v("full_misses", s.fullMisses);
        }
    };

    explicit PageStructureCache(const PscParams &params);

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

    void save(SnapshotWriter &w) const { transfer(*this, w); }
    void restore(SnapshotReader &r) { transfer(*this, r); }

    Cycle latency() const { return params_.latency; }

    const Stats &stats() const { return stats_; }
    Stats &stats() { return stats_; }

  private:
    struct Empty {};

    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("psc");
        auto no_value = [](auto &, auto &) {};
        ar.io(self.pml4_, no_value);
        ar.io(self.pdp_, no_value);
        ar.io(self.pd_, no_value);
    }

    PscParams params_;
    SetAssocTable<std::uint64_t, Empty> pml4_;
    SetAssocTable<std::uint64_t, Empty> pdp_;
    SetAssocTable<std::uint64_t, Empty> pd_;
    Stats stats_;
};
static_assert(visitsEveryField<PageStructureCache::Stats>());

} // namespace morrigan

#endif // MORRIGAN_VM_PSC_HH
