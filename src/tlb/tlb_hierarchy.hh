/**
 * @file
 * The two-level TLB hierarchy of Table 1.
 *
 * L1 I-TLB (128-entry/8-way/1-cycle) and L1 D-TLB (64-entry/4-way/
 * 1-cycle) back a shared STLB (1536-entry/6-way/8-cycle). The
 * hierarchy only resolves residency and lookup latency; miss handling
 * (prefetch buffer, prefetcher engagement, page walks) is the
 * simulator's job so that the different prefetching strategies stay
 * pluggable.
 */

#ifndef MORRIGAN_TLB_TLB_HIERARCHY_HH
#define MORRIGAN_TLB_TLB_HIERARCHY_HH

#include "common/types.hh"
#include "tlb/tlb.hh"

namespace morrigan
{

/** Static configuration of the TLB hierarchy. */
struct TlbHierarchyParams
{
    TlbParams itlb{"itlb", 128, 8, 1};
    TlbParams dtlb{"dtlb", 64, 4, 1};
    TlbParams stlb{"stlb", 1536, 6, 8};

    /** The fields, with their cache-key names (common/fields.hh). */
    template <RecordOf<TlbHierarchyParams> Self, class V>
    friend constexpr void visitFields(Self &t, V &&v)
    {
        v("itlb", t.itlb);
        v("dtlb", t.dtlb);
        v("stlb", t.stlb);
    }
};
static_assert(visitsEveryField<TlbHierarchyParams>());

/** Level that served a TLB lookup. */
enum class TlbHitLevel : std::uint8_t { L1, Stlb, Miss };

/** Outcome of a hierarchy lookup. */
struct TlbLookupResult
{
    TlbHitLevel level = TlbHitLevel::Miss;
    Cycle latency = 0;  //!< lookup latency up to the hit/miss point
    Pfn pfn = 0;
};

/** Two-level TLB hierarchy with a shared STLB. */
class TlbHierarchy
{
  public:
    explicit TlbHierarchy(const TlbHierarchyParams &params);

    /**
     * Look up a translation; on an L1 miss the STLB is probed; on an
     * STLB hit the L1 is refilled.
     */
    TlbLookupResult lookup(Vpn vpn, AccessType type);

    /**
     * Fill both levels after a walk / PB hit resolves.
     *
     * @param pfn Frame of the 4KB page, or the first frame of the
     * 2MB group when @p large.
     */
    void fill(Vpn vpn, Pfn pfn, AccessType type, bool large = false);

    /** Fill only the STLB (used by the P2TLB prefetch-into-STLB
     * configuration of Figure 18). */
    void fillStlbOnly(Vpn vpn, Pfn pfn, AccessType type);

    /** Flush everything (context switch). */
    void flush();

    void save(SnapshotWriter &w) const { transfer(*this, w); }
    void restore(SnapshotReader &r) { transfer(*this, r); }

    Tlb &itlb() { return itlb_; }
    Tlb &dtlb() { return dtlb_; }
    Tlb &stlb() { return stlb_; }
    const Tlb &itlb() const { return itlb_; }
    const Tlb &dtlb() const { return dtlb_; }
    const Tlb &stlb() const { return stlb_; }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("tlb_hierarchy");
        ar.io(self.itlb_);
        ar.io(self.dtlb_);
        ar.io(self.stlb_);
    }

    Tlb itlb_;
    Tlb dtlb_;
    Tlb stlb_;
};

} // namespace morrigan

#endif // MORRIGAN_TLB_TLB_HIERARCHY_HH
