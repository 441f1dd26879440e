/**
 * @file
 * A translation lookaside buffer.
 *
 * Set-associative, LRU, holding VPN -> PFN translations. Used for the
 * L1 I-TLB (128-entry/8-way), L1 D-TLB (64-entry/4-way) and the
 * shared second-level STLB (1536-entry/6-way) of Table 1. The STLB is
 * shared between instruction and data translations, so each entry
 * remembers which side filled it; that exposes the i/d contention the
 * paper highlights (instruction references evict useful data
 * translations and vice versa).
 */

#ifndef MORRIGAN_TLB_TLB_HH
#define MORRIGAN_TLB_TLB_HH

#include <cstdint>
#include <string>

#include "common/assoc_table.hh"
#include "common/fields.hh"
#include "common/types.hh"

namespace morrigan
{

/** Static configuration of one TLB level. */
struct TlbParams
{
    std::string name = "tlb";
    std::uint32_t entries = 64;
    std::uint32_t ways = 4;
    Cycle latency = 1;

    /** The fields, with their cache-key names (common/fields.hh). */
    template <RecordOf<TlbParams> Self, class V>
    friend constexpr void visitFields(Self &t, V &&v)
    {
        v("name", t.name, FieldTag::Unrecorded);
        v("entries", t.entries);
        v("ways", t.ways);
        v("lat", t.latency);
    }
};
static_assert(visitsEveryField<TlbParams>());

/** One cached translation. */
struct TlbEntry
{
    /** For 4KB entries the frame of the page; for 2MB entries the
     * first frame of the contiguous 2MB group. */
    Pfn pfn = 0;
    /** Which side installed the entry (contention accounting). */
    AccessType filledBy = AccessType::Instruction;
    /** 2MB large-page entry (Section 4.3). */
    bool large = false;
};

/** Outcome of a dual-size lookup. */
struct TlbHit
{
    const TlbEntry *entry = nullptr;
    /** Frame of the referenced 4KB page (offset applied for 2MB
     * entries). */
    Pfn pagePfn = 0;
};

/** A single TLB level. */
class Tlb
{
  public:
    /** Counters (common/fields.hh); the visit names are the --stats
     * names. */
    struct Stats
    {
        /** instruction-side lookups */
        std::uint64_t instrAccesses = 0;
        /** instruction-side misses */
        std::uint64_t instrMisses = 0;
        /** data-side lookups */
        std::uint64_t dataAccesses = 0;
        /** data-side misses */
        std::uint64_t dataMisses = 0;
        /** translations installed */
        std::uint64_t fills = 0;
        /** evictions across the i/d boundary: an instruction entry
         * displaced a data entry or vice versa -- the paper's STLB
         * contention effect */
        std::uint64_t crossEvictions = 0;

        template <RecordOf<Stats> Self, class V>
        friend constexpr void visitFields(Self &s, V &&v)
        {
            v("instr_accesses", s.instrAccesses);
            v("instr_misses", s.instrMisses);
            v("data_accesses", s.dataAccesses);
            v("data_misses", s.dataMisses);
            v("fills", s.fills);
            v("cross_evictions", s.crossEvictions);
        }
    };

    explicit Tlb(const TlbParams &params);

    /**
     * Demand lookup; updates LRU and stats.
     *
     * Defined inline (with lookupAny): TLB probes run on every
     * fetched line and every data access, and inlining the lane scan
     * into the hierarchy's probe loop is worth real wall clock.
     *
     * @param vpn Page to translate.
     * @param type Side of the access (stats split).
     * @return the entry, or nullptr on miss.
     */
    const TlbEntry *
    lookup(Vpn vpn, AccessType type)
    {
        if (type == AccessType::Instruction)
            ++stats_.instrAccesses;
        else
            ++stats_.dataAccesses;

        const TlbEntry *entry = table_.find(vpn);
        if (!entry) {
            if (type == AccessType::Instruction)
                ++stats_.instrMisses;
            else
                ++stats_.dataMisses;
        }
        return entry;
    }

    /**
     * Dual-size demand lookup: probes the 4KB entry and, failing
     * that, the 2MB entry covering @p vpn. Counts a single access.
     */
    TlbHit
    lookupAny(Vpn vpn, AccessType type)
    {
        TlbHit hit;
        if (type == AccessType::Instruction)
            ++stats_.instrAccesses;
        else
            ++stats_.dataAccesses;

        if (const TlbEntry *e = table_.find(vpn)) {
            hit.entry = e;
            hit.pagePfn = e->pfn;
            return hit;
        }
        if (everLarge_) {
            if (const TlbEntry *e = table_.find(largeKey(vpn))) {
                hit.entry = e;
                hit.pagePfn = e->pfn + (vpn & (pagesPerLargePage - 1));
                return hit;
            }
        }
        if (type == AccessType::Instruction)
            ++stats_.instrMisses;
        else
            ++stats_.dataMisses;
        return hit;
    }

    /** Probe without LRU or stats side effects. */
    bool contains(Vpn vpn) const;

    /** Probe returning the entry, without LRU or stats effects. */
    const TlbEntry *probeEntry(Vpn vpn) const;

    /** Install a translation (evicting LRU if needed). */
    void fill(Vpn vpn, Pfn pfn, AccessType type);

    /** Install a 2MB translation (@p base_pfn = first frame of the
     * group). Shares capacity with the 4KB entries, as in Intel's
     * shared STLBs. */
    void fillLarge(Vpn vpn, Pfn base_pfn, AccessType type);

    /** Remove one translation (TLB shootdown). */
    bool invalidate(Vpn vpn);

    /** Remove everything (context switch). */
    void flush();

    /** Serialize translations + LRU state (the simulator saves the
     * counter records). */
    void save(SnapshotWriter &w) const { transfer(*this, w); }
    void restore(SnapshotReader &r) { transfer(*this, r); }

    const TlbParams &params() const { return params_; }

    const Stats &stats() const { return stats_; }
    Stats &stats() { return stats_; }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("tlb");
        ar.expect(self.params_.name, "TLB");
        ar.io(self.table_, [&self]<class A>(A &a, auto &e) {
            a.io(e.pfn);
            a.io(e.filledBy);
            a.io(e.large);
            if constexpr (A::loading)
                self.everLarge_ |= e.large;
        });
    }

    /** Distinguished key space for 2MB entries in the shared table. */
    static constexpr Vpn largeKeyBit = Vpn{1} << 62;

    static Vpn
    largeKey(Vpn vpn)
    {
        return (largePageBase(vpn) >> radixBits) | largeKeyBit;
    }

    TlbParams params_;
    SetAssocTable<Vpn, TlbEntry> table_;
    /** Whether a 2MB entry was ever installed. Monotone; lets
     * lookupAny skip the always-missing large-key probe for the
     * (common) all-4KB configurations. */
    bool everLarge_ = false;
    Stats stats_;
};
static_assert(visitsEveryField<Tlb::Stats>());

} // namespace morrigan

#endif // MORRIGAN_TLB_TLB_HH
