/**
 * @file
 * Prior data-STLB prefetchers evaluated against the iSTLB miss stream
 * (Sections 2.1, 3.4, 6.2): the Sequential Prefetcher (SP), the
 * Arbitrary Stride Prefetcher (ASP), the Distance Prefetcher (DP) and
 * the Markov Prefetcher (MP). All four follow Kandiraju &
 * Sivasubramaniam (ISCA'02) as the paper specifies, and are
 * parameterised so Figure 15's ISO-storage configurations can be
 * expressed.
 */

#ifndef MORRIGAN_CORE_BASELINE_PREFETCHERS_HH
#define MORRIGAN_CORE_BASELINE_PREFETCHERS_HH

#include <cstdint>
#include <unordered_map>

#include "common/assoc_table.hh"
#include "core/tlb_prefetcher.hh"

namespace morrigan
{

/**
 * Sequential Prefetcher: prefetches the PTE of the page next to the
 * missing one. Stateless.
 */
class SequentialPrefetcher : public TlbPrefetcher
{
  public:
    const char *name() const override { return "SP"; }

    void onInstrStlbMiss(Vpn vpn, Addr pc, unsigned tid,
                         std::vector<PrefetchRequest> &out) override;

    std::size_t storageBits() const override { return 0; }
};

/**
 * Arbitrary Stride Prefetcher: a Baer-Chen style reference prediction
 * table indexed by the PC of the instruction that triggered the STLB
 * miss. When the same PC exhibits a stable page stride the next page
 * at that stride is prefetched.
 *
 * For instruction fetches the "PC" is the fetch address itself, so
 * the missing page is always the PC's own page: a PC's page stride
 * is identically 0 and ASP never issues a prefetch on the iSTLB miss
 * stream (Section 3.4's poor correlation, taken to its limit). Its
 * Figure 9/15 result is the PB-probe latency alone.
 */
class StridePrefetcher : public TlbPrefetcher
{
  public:
    /**
     * @param entries Prediction table capacity.
     * @param ways Associativity.
     */
    explicit StridePrefetcher(std::uint32_t entries = 128,
                              std::uint32_t ways = 8);

    const char *name() const override { return "ASP"; }

    void onInstrStlbMiss(Vpn vpn, Addr pc, unsigned tid,
                         std::vector<PrefetchRequest> &out) override;

    void onContextSwitch() override { table_.flush(); }

    std::size_t storageBits() const override;

    void save(SnapshotWriter &w) const override { transfer(*this, w); }
    void restore(SnapshotReader &r) override { transfer(*this, r); }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("asp");
        ar.io(self.table_, [](auto &a, auto &e) {
            a.io(e.lastVpn);
            a.io(e.stride);
            a.io(e.confirmed);
        });
    }

    struct AspEntry
    {
        Vpn lastVpn = 0;
        PageDelta stride = 0;
        bool confirmed = false;
    };

    SetAssocTable<Addr, AspEntry> table_;
};

/**
 * Distance Prefetcher: a prediction table indexed by the distance
 * between the current and previous missing pages; each entry stores
 * the distances observed to follow, so arbitrary repeating
 * delta-chains can be predicted.
 */
class DistancePrefetcher : public TlbPrefetcher
{
  public:
    static constexpr unsigned slots = 2;

    explicit DistancePrefetcher(std::uint32_t entries = 128,
                                std::uint32_t ways = 8);

    const char *name() const override { return "DP"; }

    void onInstrStlbMiss(Vpn vpn, Addr pc, unsigned tid,
                         std::vector<PrefetchRequest> &out) override;

    void onContextSwitch() override;

    std::size_t storageBits() const override;

    void save(SnapshotWriter &w) const override { transfer(*this, w); }
    void restore(SnapshotReader &r) override { transfer(*this, r); }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("dp");
        ar.io(self.table_, [](auto &a, auto &e) {
            for (unsigned i = 0; i < slots; ++i) {
                a.io(e.next[i]);
                a.io(e.valid[i]);
            }
            a.io(e.lruVictim);
        });
        for (auto &h : self.hist_) {
            ar.io(h.prevVpn);
            ar.io(h.prevDist);
            ar.io(h.vpnValid);
            ar.io(h.distValid);
        }
    }

    struct DpEntry
    {
        PageDelta next[slots] = {0, 0};
        bool valid[slots] = {false, false};
        std::uint8_t lruVictim = 0;
    };

    SetAssocTable<PageDelta, DpEntry> table_;
    /** Per-thread previous missing page / previous distance. */
    struct History
    {
        Vpn prevVpn = 0;
        PageDelta prevDist = 0;
        bool vpnValid = false;
        bool distValid = false;
    };
    History hist_[2];
};

/**
 * Markov Prefetcher: the state-of-the-art irregular dSTLB prefetcher
 * the paper compares against. A prediction table indexed by the
 * missing virtual page whose entries store up to two successor pages
 * (full VPNs), managed with LRU -- both properties the paper
 * identifies as the reason MP underperforms on the iSTLB stream
 * (Finding 4).
 *
 * Setting @p entries to 0 selects the *unbounded* idealisation of
 * Section 3.4 (every page tracked); @p slots_per_entry of 0 selects
 * unlimited successors per entry.
 */
class MarkovPrefetcher : public TlbPrefetcher
{
  public:
    explicit MarkovPrefetcher(std::uint32_t entries = 128,
                              std::uint32_t ways = 8,
                              std::uint32_t slots_per_entry = 2);

    const char *name() const override { return "MP"; }

    void onInstrStlbMiss(Vpn vpn, Addr pc, unsigned tid,
                         std::vector<PrefetchRequest> &out) override;

    void onContextSwitch() override;

    std::size_t storageBits() const override;

    bool unbounded() const { return entries_ == 0; }

    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;

  private:
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

    struct MpEntry
    {
        /** Successor VPNs, most recent first. */
        std::vector<Vpn> successors;
    };

    void recordTransition(Vpn from, Vpn to);
    const MpEntry *lookupEntry(Vpn vpn);

    std::uint32_t entries_;
    std::uint32_t slots_;
    SetAssocTable<Vpn, MpEntry> table_;
    std::unordered_map<Vpn, MpEntry> unboundedTable_;
    struct History
    {
        Vpn prevVpn = 0;
        bool valid = false;
    };
    History hist_[2];
};

class PrefetcherRegistry;

/**
 * Register the paper's baseline configurations: sp, asp, dp, mp,
 * mp-iso and the unbounded MP idealisations.
 */
void registerBaselinePrefetchers(PrefetcherRegistry &reg);

} // namespace morrigan

#endif // MORRIGAN_CORE_BASELINE_PREFETCHERS_HH
