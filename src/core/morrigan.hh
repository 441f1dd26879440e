/**
 * @file
 * Morrigan -- the composite instruction TLB prefetcher (Section 4).
 *
 * IRIP handles the irregular miss patterns; SDP is a fallback engaged
 * only when IRIP has no prediction for the missing page, so Morrigan
 * produces prefetches on every iSTLB miss. The composite is fully
 * legacy-preserving: it sits beside the STLB, stages prefetches in
 * the PB, and never modifies the virtual memory subsystem.
 */

#ifndef MORRIGAN_CORE_MORRIGAN_HH
#define MORRIGAN_CORE_MORRIGAN_HH

#include <memory>

#include "core/irip.hh"
#include "core/sdp.hh"
#include "core/tlb_prefetcher.hh"

namespace morrigan
{

/** Static configuration of the composite prefetcher. */
struct MorriganParams
{
    IripParams irip{};
    /** Disable SDP entirely (ablation). */
    bool sdpEnabled = true;
    /** Ablation: run SDP on every miss instead of only IRIP misses. */
    bool sdpAlwaysOn = false;

    /**
     * The Morrigan-mono configuration of Section 6.3: a single
     * 203-entry fully associative table with 8 slots per entry, the
     * closest ISO-storage match to the 4-table ensemble.
     */
    static MorriganParams mono();

    /** Double the prediction tables for SMT colocation (Section 6.6). */
    MorriganParams smtScaled() const;
};

/** The composite prefetcher. */
class MorriganPrefetcher : public TlbPrefetcher
{
  public:
    explicit MorriganPrefetcher(const MorriganParams &params);

    const char *name() const override { return "Morrigan"; }

    void onInstrStlbMiss(Vpn vpn, Addr pc, unsigned tid,
                         std::vector<PrefetchRequest> &out) override;

    void creditPbHit(const PrefetchTag &tag) override;

    void onContextSwitch() override;

    std::size_t storageBits() const override;

    std::uint64_t frequencyStackResets() const override
    {
        return irip_.frequencyStackResets();
    }

    Irip &irip() { return irip_; }
    const Irip &irip() const { return irip_; }

    std::uint64_t sdpActivations() const { return sdpActivations_; }

    void save(SnapshotWriter &w) const override { transfer(*this, w); }
    void restore(SnapshotReader &r) override { transfer(*this, r); }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("morrigan_pf");
        ar.io(self.irip_);
        ar.io(self.sdpActivations_);
    }

    MorriganParams params_;
    Irip irip_;
    Sdp sdp_;
    std::uint64_t sdpActivations_ = 0;
};

class PrefetcherRegistry;

/** Register the morrigan and morrigan-mono configurations. */
void registerMorriganPrefetchers(PrefetcherRegistry &reg);

} // namespace morrigan

#endif // MORRIGAN_CORE_MORRIGAN_HH
