#include "dram_model.hh"

#include <bit>

#include "common/logging.hh"

namespace morrigan
{

DramModel::DramModel(const DramParams &params) : params_(params)
{
    fatal_if(!std::has_single_bit(params_.banks),
             "DRAM bank count %u is not a power of two", params_.banks);
    fatal_if(!std::has_single_bit(params_.rowBytes),
             "DRAM row size %u is not a power of two", params_.rowBytes);
    rowShift_ = static_cast<unsigned>(std::countr_zero(params_.rowBytes));
    bankShift_ = static_cast<unsigned>(std::countr_zero(params_.banks));
    openRow_.assign(params_.banks, -1);
}

Cycle
DramModel::access(Addr addr)
{
    std::uint64_t row = addr >> rowShift_;
    std::uint32_t bank =
        static_cast<std::uint32_t>(row & (params_.banks - 1));
    row >>= bankShift_;

    Cycle latency;
    if (openRow_[bank] == static_cast<std::int64_t>(row)) {
        // Row-buffer hit: only tCAS.
        ++stats_.rowHits;
        latency = dramTParam;
    } else {
        // Precharge + activate + CAS.
        ++stats_.rowConflicts;
        latency = 3 * dramTParam;
        openRow_[bank] = static_cast<std::int64_t>(row);
    }
    return latency;
}

} // namespace morrigan
