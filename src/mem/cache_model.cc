#include "cache_model.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace morrigan
{

CacheModel::CacheModel(const CacheParams &params) : params_(params)
{
    fatal_if(params_.ways == 0, "%s: zero ways", params_.name.c_str());
    std::uint32_t lines =
        params_.sizeBytes / static_cast<std::uint32_t>(lineBytes);
    fatal_if(lines == 0 || lines % params_.ways != 0,
             "%s: size %u not divisible into %u ways",
             params_.name.c_str(), params_.sizeBytes, params_.ways);
    numSets_ = lines / params_.ways;
    fatal_if(!std::has_single_bit(numSets_),
             "%s: set count %u is not a power of two",
             params_.name.c_str(), numSets_);
    tagStride_ = set_kernel::paddedWays(params_.ways);
    tags_.assign(std::size_t{numSets_} * tagStride_, noLine);
    rec_.assign(std::size_t{numSets_} * tagStride_, 0);
}

bool
CacheModel::invalidate(Addr line)
{
    std::uint32_t base = baseOf(line);
    int w = findWay(base, checkedTag(line));
    if (w < 0)
        return false;
    tags_[base + w] = noLine;
    rec_[base + w] = 0;
    return true;
}

void
CacheModel::flush()
{
    // Padding lanes already hold these values.
    std::fill(tags_.begin(), tags_.end(), noLine);
    std::fill(rec_.begin(), rec_.end(), std::uint64_t{0});
}

void
CacheModel::save(SnapshotWriter &w) const
{
    w.section("cache");
    w.str(params_.name);
    w.u32(numSets_);
    w.u32(params_.ways);
    w.u64(useClock_);
    // Set-major way-minor order matches the old nested layout byte
    // for byte.
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        std::size_t base = std::size_t{set} * tagStride_;
        for (std::uint32_t way = 0; way < params_.ways; ++way) {
            bool valid = tags_[base + way] != noLine;
            w.b(valid);
            if (!valid)
                continue;
            w.u64(tags_[base + way]);
            w.b((rec_[base + way] & 1) != 0);
            w.u64(rec_[base + way] >> 1);
        }
    }
}

void
CacheModel::restore(SnapshotReader &r)
{
    r.section("cache");
    std::string name = r.str();
    if (name != params_.name || r.u32() != numSets_ ||
        r.u32() != params_.ways)
        throw SnapshotError("cache '" + params_.name +
                            "': snapshot geometry mismatch ('" + name +
                            "')");
    useClock_ = r.u64();
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        std::size_t base = std::size_t{set} * tagStride_;
        for (std::uint32_t way = 0; way < params_.ways; ++way) {
            if (!r.b()) {
                tags_[base + way] = noLine;
                rec_[base + way] = 0;
                continue;
            }
            std::uint64_t tag = r.u64();
            if (tag >= noLine)
                throw SnapshotError(
                    "cache '" + params_.name +
                    "': snapshot line exceeds the 32-bit tag lane");
            tags_[base + way] = static_cast<std::uint32_t>(tag);
            bool pf = r.b();
            rec_[base + way] = (r.u64() << 1) | (pf ? 1 : 0);
        }
    }
}

} // namespace morrigan
