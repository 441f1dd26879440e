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

template <class Self, class Ar>
void
CacheModel::transfer(Self &self, Ar &ar)
{
    ar.section("cache");
    ar.expect(self.params_.name, "cache");
    ar.expect(self.numSets_, "cache '" + self.params_.name + "' sets");
    ar.expect(self.params_.ways, "cache '" + self.params_.name + "' ways");
    ar.io(self.useClock_);
    // Set-major way-minor order matches the old nested layout byte
    // for byte; a valid way is its tag, prefetched bit and lastUse.
    for (std::uint32_t set = 0; set < self.numSets_; ++set) {
        std::size_t base = std::size_t{set} * self.tagStride_;
        for (std::uint32_t way = 0; way < self.params_.ways; ++way) {
            auto &tag = self.tags_[base + way];
            auto &rec = self.rec_[base + way];
            bool valid = tag != noLine;
            ar.io(valid);
            std::uint64_t line = valid ? tag : noLine;
            bool pf = (rec & 1) != 0;
            std::uint64_t use = rec >> 1;
            if (valid) {
                ar.io(line);
                ar.io(pf);
                ar.io(use);
            }
            if constexpr (Ar::loading) {
                if (valid && line >= noLine)
                    throw SnapshotError(
                        "cache '" + self.params_.name +
                        "': snapshot line exceeds the 32-bit tag lane");
                tag = static_cast<std::uint32_t>(line);
                rec = valid ? (use << 1) | (pf ? 1 : 0) : 0;
            }
        }
    }
}

void CacheModel::save(SnapshotWriter &w) const { transfer(*this, w); }
void CacheModel::restore(SnapshotReader &r) { transfer(*this, r); }

} // namespace morrigan
