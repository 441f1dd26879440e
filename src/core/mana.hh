/**
 * @file
 * MANA-style metadata-compressed record/replay prefetcher adapted to
 * the iSTLB miss stream.
 *
 * MANA (Ansari et al., ISCA'20) records the instruction stream as a
 * chain of *spatial regions*: a trigger block, a footprint bit-vector
 * over the blocks near it, and a compressed pointer to the next
 * region. Its key storage insight is that successor pointers share
 * high-order bits, so each record stores only an index into a small
 * table of observed high-order-bit (HOB) patterns plus the low bits.
 *
 * This plugin re-targets the idea at page granularity: a record is a
 * trigger VPN, a footprint over the following `regionPages` pages,
 * and a HOB-compressed successor trigger. On a miss that starts a
 * known region the footprint is replayed, and the successor chain is
 * walked `manaReplayDepth` records ahead so prefetches lead the miss
 * stream by more than one region.
 */

#ifndef MORRIGAN_CORE_MANA_HH
#define MORRIGAN_CORE_MANA_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/assoc_table.hh"
#include "core/tlb_prefetcher.hh"

namespace morrigan
{

/** Records replayed ahead along the successor chain. */
inline constexpr unsigned manaReplayDepth = 2;
/** Successor low bits stored verbatim in each record. */
inline constexpr unsigned manaSuccessorLowBits = 12;

/** Static configuration of the MANA-style prefetcher. */
struct ManaParams
{
    /** Pages after the trigger covered by one footprint. */
    unsigned regionPages = 8;
    /**
     * Record table geometry. 576 x (16b tag + 8b footprint + 1b
     * successor-valid + 6b HOB index + 12b successor low bits) =
     * 24768 bits; plus the 64-entry HOB table (24b of VPN high bits
     * each) = 1536 bits. 26304 bits total, inside Morrigan's ~3.8KB
     * (30976-bit) budget.
     */
    std::uint32_t tableEntries = 576;
    std::uint32_t tableWays = 9;
    /** HOB table size; indices are log2(hobEntries) bits wide. */
    std::uint32_t hobEntries = 64;
};

/** The MANA-style record/replay plugin. */
class ManaPrefetcher : public TlbPrefetcher
{
  public:
    /** Marks this plugin's PB tags, so that no other member of a
     * composition takes their credit (MANA itself learns nothing
     * from PB hits). */
    static constexpr std::uint8_t tagTable = 0xf2;

    explicit ManaPrefetcher(const ManaParams &params = {});

    const char *name() const override { return "MANA"; }

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
        ar.section("mana");
        ar.io(self.records_, [](auto &a, auto &e) {
            a.io(e.footprint);
            a.io(e.succValid);
            a.io(e.succHobIdx);
            ioAs<std::uint32_t>(a, e.succLow);
        });
        ar.expect(self.hob_.size(), "MANA HOB table size");
        ar.io(self.hob_);
        ar.io(self.hobUsed_);
        ar.io(self.hobNext_);
        for (auto &open : self.open_) {
            ar.io(open.trigger);
            ar.io(open.footprint);
            ar.io(open.valid);
        }
    }

    struct ManaRecord
    {
        /** Bit i set: trigger+1+i was touched within the region. */
        std::uint8_t footprint = 0;
        bool succValid = false;
        std::uint8_t succHobIdx = 0;
        std::uint16_t succLow = 0;
    };

    /** Region being accumulated for one hardware thread. */
    struct OpenRegion
    {
        Vpn trigger = 0;
        std::uint8_t footprint = 0;
        bool valid = false;
    };

    void commitRegion(OpenRegion &open, Vpn next_trigger);
    std::uint8_t hobIndexOf(Vpn vpn);
    Vpn reconstructSuccessor(const ManaRecord &rec) const;
    void replayFrom(Vpn trigger, std::vector<PrefetchRequest> &out);

    ManaParams params_;
    SetAssocTable<Vpn, ManaRecord> records_;
    std::vector<Vpn> hob_;        //!< VPN high bits
    std::uint32_t hobUsed_ = 0;   //!< filled slots, [0, hobUsed_)
    std::uint32_t hobNext_ = 0;   //!< round-robin cursor once full
    OpenRegion open_[2];
};

class PrefetcherRegistry;

/** Register the mana plugin. */
void registerManaPrefetcher(PrefetcherRegistry &reg);

} // namespace morrigan

#endif // MORRIGAN_CORE_MANA_HH
