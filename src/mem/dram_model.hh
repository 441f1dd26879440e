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
#include "common/stats.hh"
#include "common/types.hh"

namespace morrigan
{

/** Static configuration of the DRAM model. */
struct DramParams
{
    std::uint32_t banks = 8;            //!< Power of two.
    std::uint32_t rowBytes = 8 * 1024;  //!< Power of two.
    /** Core cycles per DRAM timing parameter (tRP = tRCD = tCAS). */
    Cycle tParam = 12 * 3;  //!< 12 mem cycles at a 3x core clock ratio.

    /** The fields, with their cache-key names (common/fields.hh). */
    template <RecordOf<DramParams> Self, class V>
    friend constexpr void visitFields(Self &d, V &&v)
    {
        v("banks", d.banks);
        v("rowBytes", d.rowBytes);
        v("tParam", d.tParam);
    }
};
static_assert(visitsEveryField<DramParams>());

/** Open-row DRAM with fixed per-access timing. */
class DramModel
{
  public:
    explicit DramModel(const DramParams &params,
                       StatGroup *parent = nullptr);

    /** Access a byte address; returns the access latency in cycles. */
    Cycle access(Addr addr);

    std::uint64_t rowHits() const { return rowHits_.value(); }
    std::uint64_t rowConflicts() const { return rowConflicts_.value(); }

    void save(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);

  private:
    DramParams params_;
    unsigned rowShift_;   //!< log2(rowBytes)
    unsigned bankShift_;  //!< log2(banks)
    std::vector<std::int64_t> openRow_;  //!< -1 when bank is closed.

    StatGroup stats_;
    Counter accessesStat_;
    Counter rowHits_;
    Counter rowConflicts_;
};

} // namespace morrigan

#endif // MORRIGAN_MEM_DRAM_MODEL_HH
