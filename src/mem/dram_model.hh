/**
 * @file
 * Simple open-row DRAM latency model.
 *
 * Matches Table 1's DRAM entry in spirit: tRP = tRCD = tCAS = 12
 * memory cycles, scaled to core cycles. A per-bank open-row register
 * makes row-buffer hits cheaper than conflicts, which gives page-walk
 * references to contiguous PTE lines realistic locality behaviour.
 */

#ifndef MORRIGAN_MEM_DRAM_MODEL_HH
#define MORRIGAN_MEM_DRAM_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/fields.hh"
#include "common/snapshot.hh"
#include "common/types.hh"

namespace morrigan
{

/** Core cycles per DRAM timing parameter (tRP = tRCD = tCAS): 12
 * memory cycles at a 3x core clock ratio. */
inline constexpr Cycle dramTParam = 12 * 3;

/** Static configuration of the DRAM model. */
struct DramParams
{
    std::uint32_t banks = 8;            //!< Power of two.
    std::uint32_t rowBytes = 8 * 1024;  //!< Power of two.

    /** The fields, with their cache-key names (common/fields.hh). */
    template <RecordOf<DramParams> Self, class V>
    friend constexpr void visitFields(Self &d, V &&v)
    {
        v("banks", d.banks);
        v("rowBytes", d.rowBytes);
    }
};
static_assert(visitsEveryField<DramParams>());

/** Open-row DRAM with fixed per-access timing. */
class DramModel
{
  public:
    /** Counters (common/fields.hh); the visit names are the --stats
     * names. Accesses are row hits + row conflicts. */
    struct Stats
    {
        /** open-row hits */
        std::uint64_t rowHits = 0;
        /** row-buffer conflicts */
        std::uint64_t rowConflicts = 0;

        template <RecordOf<Stats> Self, class V>
        friend constexpr void visitFields(Self &s, V &&v)
        {
            v("row_hits", s.rowHits);
            v("row_conflicts", s.rowConflicts);
        }
    };

    explicit DramModel(const DramParams &params);

    /** Access a byte address; returns the access latency in cycles. */
    Cycle access(Addr addr);

    const Stats &stats() const { return stats_; }
    Stats &stats() { return stats_; }

    void save(SnapshotWriter &w) const { transfer(*this, w); }
    void restore(SnapshotReader &r) { transfer(*this, r); }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("dram");
        ar.expect(self.openRow_.size(), "DRAM bank count");
        ar.io(self.openRow_);
    }

    DramParams params_;
    unsigned rowShift_;   //!< log2(rowBytes)
    unsigned bankShift_;  //!< log2(banks)
    std::vector<std::int64_t> openRow_;  //!< -1 when bank is closed.
    Stats stats_;
};
static_assert(visitsEveryField<DramModel::Stats>());

} // namespace morrigan

#endif // MORRIGAN_MEM_DRAM_MODEL_HH
