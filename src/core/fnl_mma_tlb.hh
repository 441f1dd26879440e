/**
 * @file
 * FNL+MMA adapted to the iSTLB miss stream.
 *
 * The Figure-10 study models FNL+MMA only as an I-cache prefetcher
 * whose page-crossing prefetches implicitly pressure the iSTLB. This
 * is the fuller competitor: the same two ideas re-targeted at the
 * page-granular instruction STLB miss stream, entering the ISO-
 * storage tournament as a first-class TLB prefetcher.
 *
 * - FNL: footprint next *page* -- on every iSTLB miss, prefetch the
 *   next `fnlMmaTlbNextPageDegree` pages (the page-level analogue of
 *   next-line prefetching that crosses page boundaries by
 *   construction).
 * - MMA: a miss-ahead table trained on the miss-VPN stream. Each
 *   entry maps a trigger VPN to the VPN observed `missLookahead`
 *   misses later, guarded by a 2-bit confidence counter, providing
 *   the lookahead that pure next-page prefetching lacks relative to
 *   page-walk latency.
 */

#ifndef MORRIGAN_CORE_FNL_MMA_TLB_HH
#define MORRIGAN_CORE_FNL_MMA_TLB_HH

#include <cstdint>
#include <vector>

#include "common/assoc_table.hh"
#include "core/tlb_prefetcher.hh"

namespace morrigan
{

/** Next-page degree (FNL component). */
inline constexpr unsigned fnlMmaTlbNextPageDegree = 2;

/** Static configuration of the iSTLB-side FNL+MMA. */
struct FnlMmaTlbParams
{
    /** How many misses ahead the MMA component predicts. */
    unsigned missLookahead = 4;
    /**
     * MMA table geometry. 512 x (16b tag + 36b VPN + 2b confidence)
     * = 27648 bits, inside Morrigan's ~3.8KB (30976-bit) budget --
     * the FNL component is stateless.
     */
    std::uint32_t tableEntries = 512;
    std::uint32_t tableWays = 8;
};

/** The iSTLB-side FNL+MMA prefetcher plugin. */
class FnlMmaTlbPrefetcher : public TlbPrefetcher
{
  public:
    /** Discriminates this plugin's PB tags for credit routing. */
    static constexpr std::uint8_t tagTable = 0xf1;

    explicit FnlMmaTlbPrefetcher(const FnlMmaTlbParams &params = {});

    const char *name() const override { return "FNL+MMA-TLB"; }

    void onInstrStlbMiss(Vpn vpn, Addr pc, unsigned tid,
                         std::vector<PrefetchRequest> &out) override;

    void creditPbHit(const PrefetchTag &tag) override;

    void onContextSwitch() override;

    std::size_t storageBits() const override;

    void save(SnapshotWriter &w) const override { transfer(*this, w); }
    void restore(SnapshotReader &r) override { transfer(*this, r); }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("fnl_mma_tlb");
        ar.io(self.mmaTable_, [](auto &a, auto &e) {
            a.io(e.future);
            a.io(e.confidence);
        });
        ar.expect(self.missHistory_.size(),
                  "FNL+MMA-TLB miss-history depth");
        ar.io(self.missHistory_);
        ar.io(self.histPos_);
        ar.io(self.missCount_);
    }

    struct MmaEntry
    {
        Vpn future = 0;
        std::uint8_t confidence = 0;
    };
    SetAssocTable<Vpn, MmaEntry> mmaTable_;
    std::vector<Vpn> missHistory_;  //!< circular trigger ring
    std::size_t histPos_ = 0;
    std::uint64_t missCount_ = 0;
};

class PrefetcherRegistry;

/** Register the fnl-mma plugin. */
void registerFnlMmaTlbPrefetcher(PrefetcherRegistry &reg);

} // namespace morrigan

#endif // MORRIGAN_CORE_FNL_MMA_TLB_HH
