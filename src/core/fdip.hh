/**
 * @file
 * FDIP-style fetch-directed iSTLB prefetcher.
 *
 * Fetch-directed instruction prefetching decouples the branch
 * predictor from fetch: the BPU runs ahead, filling a fetch target
 * queue (FTQ) whose future fetch addresses drive I-cache -- and,
 * in the "Enhancing Instruction Prefetching via Cache and TLB
 * Management" line of work, iSTLB -- prefetches. The simulator's
 * front end has no discrete BPU/FTQ model, so this plugin emulates
 * the run-ahead at page granularity: it learns the successor graph
 * of the iSTLB miss-VPN stream (the pages the fetch unit will walk
 * onto next) and, on each miss, chases the learned chain up to
 * `fdipFtqDepth` pages ahead, gated by a 2-bit confidence counter per
 * edge. PB-hit credit feeds confidence back, mirroring how FDIP
 * only trusts BPU paths that keep verifying.
 */

#ifndef MORRIGAN_CORE_FDIP_HH
#define MORRIGAN_CORE_FDIP_HH

#include <cstdint>
#include <vector>

#include "common/assoc_table.hh"
#include "core/tlb_prefetcher.hh"

namespace morrigan
{

/** Run-ahead depth along the learned fetch path (FTQ depth). */
inline constexpr unsigned fdipFtqDepth = 3;
/** Confidence needed before an edge issues a prefetch. */
inline constexpr std::uint8_t fdipConfidenceThreshold = 1;

/** Static configuration of the FDIP-style prefetcher. */
struct FdipParams
{
    /**
     * Fetch-target table geometry. 512 x (16b tag + 36b next VPN +
     * 2b confidence) = 27648 bits, inside Morrigan's ~3.8KB
     * (30976-bit) budget.
     */
    std::uint32_t tableEntries = 512;
    std::uint32_t tableWays = 8;
};

/** The FDIP-style run-ahead plugin. */
class FdipPrefetcher : public TlbPrefetcher
{
  public:
    /** Discriminates this plugin's PB tags for credit routing. */
    static constexpr std::uint8_t tagTable = 0xf3;

    explicit FdipPrefetcher(const FdipParams &params = {});

    const char *name() const override { return "FDIP"; }

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
        ar.section("fdip");
        ar.io(self.table_, [](auto &a, auto &e) {
            a.io(e.next);
            a.io(e.confidence);
        });
        for (auto &h : self.hist_) {
            ar.io(h.prevVpn);
            ar.io(h.valid);
        }
    }

    struct FtqEntry
    {
        Vpn next = 0;
        std::uint8_t confidence = 0;
    };

    SetAssocTable<Vpn, FtqEntry> table_;
    /** Per-thread previous miss VPN (the edge source). */
    struct History
    {
        Vpn prevVpn = 0;
        bool valid = false;
    };
    History hist_[2];
};

class PrefetcherRegistry;

/** Register the fdip plugin. */
void registerFdipPrefetcher(PrefetcherRegistry &reg);

} // namespace morrigan

#endif // MORRIGAN_CORE_FDIP_HH
