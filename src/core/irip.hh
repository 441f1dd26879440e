/**
 * @file
 * IRIP -- the Irregular Instruction TLB Prefetcher (Section 4.1.1).
 *
 * An ensemble of four table-based Markov prefetchers (PRT-S1, PRT-S2,
 * PRT-S4, PRT-S8) that build variable-length Markov chains out of the
 * iSTLB miss stream. A page starts in PRT-S1; every time it turns out
 * to have more successors than its current table can store, the whole
 * entry is transferred to the next larger table (Figure 12 steps
 * 19-23), so the storage budget adapts to the real successor fan-out
 * of each page (Figure 7). The terminal table (PRT-S8) victimises its
 * lowest-confidence slot instead (steps 24-25).
 *
 * Distances, not full VPNs, are stored in the slots (15 bits instead
 * of 36), and the slot with the highest confidence gets the free
 * cache-line-adjacent spatial prefetch.
 */

#ifndef MORRIGAN_CORE_IRIP_HH
#define MORRIGAN_CORE_IRIP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "core/frequency_stack.hh"
#include "core/prediction_table.hh"
#include "core/tlb_prefetcher.hh"

namespace morrigan
{

/** Seed of the RNG behind the tables' Random and RLFU victim picks. */
inline constexpr std::uint64_t iripRngSeed = 0x5eed;

/** Static configuration of the IRIP module. */
struct IripParams
{
    /** Table geometries in ascending slot order. The empirically
     * selected configuration of Section 6.1.3. */
    std::vector<PrtGeometry> tables = {
        {"prt_s1", 128, 32, 1},
        {"prt_s2", 128, 32, 2},
        {"prt_s4", 128, 32, 4},
        {"prt_s8", 64, 16, 8},
    };
    ReplacementPolicy policy = ReplacementPolicy::Rlfu;
    /** Frequency-stack reset interval in misses (phase adaptation). */
    std::uint64_t freqResetInterval = 8192;
    /** Ablation: spatial prefetch for every slot instead of only the
     * highest-confidence one. */
    bool spatialAllSlots = false;

    /** Scale every table's entry count by a power of two (storage
     * budget sweeps, Figures 13/14; SMT doubling, Section 6.6). */
    IripParams scaled(double factor) const;

    /** Make every table fully associative (Sections 6.1.1/6.1.2). */
    IripParams fullyAssociative() const;
};

/** The IRIP ensemble prefetcher. */
class Irip : public TlbPrefetcher
{
  public:
    explicit Irip(const IripParams &params);

    const char *name() const override { return "IRIP"; }

    void onInstrStlbMiss(Vpn vpn, Addr pc, unsigned tid,
                         std::vector<PrefetchRequest> &out) override;

    void creditPbHit(const PrefetchTag &tag) override;

    void onContextSwitch() override;

    std::size_t storageBits() const override;

    std::uint64_t frequencyStackResets() const override
    {
        return freq_.resets();
    }

    std::size_t numTables() const { return tables_.size(); }
    const PredictionTable &table(std::size_t i) const
    {
        return *tables_[i];
    }

    /**
     * Invariant check: a page (via its per-table tag) is resident in
     * at most one prediction table. Used by tests.
     */
    bool entryResidesInMultipleTables(Vpn vpn) const;

    void save(SnapshotWriter &w) const override { transfer(*this, w); }
    void restore(SnapshotReader &r) override { transfer(*this, r); }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("irip");
        ar.io(self.freq_);
        ar.io(self.rng_);
        ar.expect(self.tables_.size(), "IRIP table count");
        for (const auto &t : self.tables_)
            ar.io(*t);
        for (auto &h : self.hist_) {
            ar.io(h.prevVpn);
            ioAs<std::int64_t>(ar, h.prevTable);
            ar.io(h.valid);
        }
    }

    void updatePreviousEntry(Vpn prev_vpn, int prev_table,
                             PageDelta dist);
    int findTable(Vpn vpn) const;

    IripParams params_;
    FrequencyStack freq_;
    Rng rng_;
    std::vector<std::unique_ptr<PredictionTable>> tables_;

    struct History
    {
        Vpn prevVpn = 0;
        int prevTable = -1;
        bool valid = false;
    };
    History hist_[2];
};

} // namespace morrigan

#endif // MORRIGAN_CORE_IRIP_HH
