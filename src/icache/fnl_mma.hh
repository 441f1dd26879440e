/**
 * @file
 * FNL+MMA-like instruction prefetcher.
 *
 * A simplified reconstruction of the IPC-1 winner ("Footprint Next
 * Line + Multiple Miss Ahead", Seznec). Two components:
 *
 * - FNL: aggressive next-line prefetching that, unlike the baseline
 *   next-line prefetcher, crosses page boundaries.
 * - MMA: a miss-ahead table trained on the L1I miss-line stream that,
 *   on a miss, predicts the line expected several misses ahead and
 *   prefetches it, providing the lookahead that pure next-line lacks.
 *
 * What matters for the paper's analysis (Sections 3.5/6.5) is that
 * the prefetcher (i) crosses page boundaries, thereby implicitly
 * requiring address translations, and (ii) has a short lead time
 * relative to page-walk latency -- both properties this model has.
 */

#ifndef MORRIGAN_ICACHE_FNL_MMA_HH
#define MORRIGAN_ICACHE_FNL_MMA_HH

#include <cstdint>
#include <vector>

#include "common/assoc_table.hh"
#include "icache/icache_prefetcher.hh"

namespace morrigan
{

/** Next-line degree (crossing page boundaries). */
inline constexpr unsigned fnlMmaNextLineDegree = 2;

/** Static configuration of the FNL+MMA-like prefetcher. */
struct FnlMmaParams
{
    /** How many misses ahead the MMA component predicts. */
    unsigned missLookahead = 4;
    /** MMA table capacity (miss line -> future miss line). */
    std::uint32_t tableEntries = 8192;
    std::uint32_t tableWays = 16;
};

/** The prefetcher. */
class FnlMmaPrefetcher : public ICachePrefetcher
{
  public:
    explicit FnlMmaPrefetcher(const FnlMmaParams &params = {});

    const char *name() const override { return "FNL+MMA"; }

    void onFetch(Addr pc, bool l1i_miss,
                 std::vector<Addr> &out) override;

    bool crossesPageBoundaries() const override { return true; }

    void save(SnapshotWriter &w) const override { transfer(*this, w); }
    void restore(SnapshotReader &r) override { transfer(*this, r); }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("fnl_mma");
        ar.io(self.mmaTable_, [](auto &a, auto &e) {
            a.io(e.future);
            a.io(e.confidence);
        });
        ar.expect(self.missHistory_.size(), "FNL+MMA miss-history depth");
        ar.io(self.missHistory_);
        ar.io(self.histPos_);
        ar.io(self.missCount_);
    }

    struct MmaEntry
    {
        Addr future = 0;
        std::uint8_t confidence = 0;
    };
    SetAssocTable<Addr, MmaEntry> mmaTable_;
    std::vector<Addr> missHistory_;       //!< circular, line addrs
    std::size_t histPos_ = 0;
    std::uint64_t missCount_ = 0;
};

} // namespace morrigan

#endif // MORRIGAN_ICACHE_FNL_MMA_HH
