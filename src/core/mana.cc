#include "mana.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/prefetcher_registry.hh"

namespace morrigan
{

namespace
{

void
push(std::vector<PrefetchRequest> &out, Vpn vpn, Vpn source)
{
    PrefetchRequest req;
    req.vpn = vpn;
    req.spatial = false;
    req.tag.producer = PrefetchProducer::Other;
    req.tag.table = ManaPrefetcher::tagTable;
    req.tag.sourcePage = source;
    out.push_back(req);
}

} // anonymous namespace

ManaPrefetcher::ManaPrefetcher(const ManaParams &params)
    : params_(params),
      records_(params.tableEntries, params.tableWays)
{
    fatal_if(params_.regionPages == 0 || params_.regionPages > 8,
             "MANA footprint is an 8-bit vector; regionPages %u "
             "unsupported", params_.regionPages);
    fatal_if((params_.hobEntries & (params_.hobEntries - 1)) != 0 ||
             params_.hobEntries == 0 || params_.hobEntries > 256,
             "MANA HOB table size %u must be a power of two <= 256",
             params_.hobEntries);
    hob_.assign(params_.hobEntries, 0);
}

std::uint8_t
ManaPrefetcher::hobIndexOf(Vpn vpn)
{
    Vpn high = vpn >> manaSuccessorLowBits;
    for (std::uint32_t i = 0; i < hobUsed_; ++i) {
        if (hob_[i] == high)
            return static_cast<std::uint8_t>(i);
    }
    if (hobUsed_ < params_.hobEntries) {
        hob_[hobUsed_] = high;
        return static_cast<std::uint8_t>(hobUsed_++);
    }
    // Table full: round-robin replacement. Records still pointing at
    // the overwritten slot reconstruct a wrong successor -- the
    // deterministic analogue of MANA's metadata loss under pressure.
    std::uint8_t idx = static_cast<std::uint8_t>(hobNext_);
    hob_[idx] = high;
    hobNext_ = (hobNext_ + 1) % params_.hobEntries;
    return idx;
}

Vpn
ManaPrefetcher::reconstructSuccessor(const ManaRecord &rec) const
{
    return (hob_[rec.succHobIdx] << manaSuccessorLowBits) |
           rec.succLow;
}

void
ManaPrefetcher::commitRegion(OpenRegion &open, Vpn next_trigger)
{
    if (!open.valid)
        return;
    Vpn low_mask = (Vpn{1} << manaSuccessorLowBits) - 1;
    ManaRecord rec;
    if (ManaRecord *live = records_.probe(open.trigger)) {
        // Re-recording a known region: merge the footprints so a
        // region's coverage only grows, and move the successor
        // pointer to the most recent continuation.
        rec = *live;
    }
    rec.footprint |= open.footprint;
    rec.succValid = true;
    rec.succHobIdx = hobIndexOf(next_trigger);
    rec.succLow =
        static_cast<std::uint16_t>(next_trigger & low_mask);
    records_.insert(open.trigger, rec);
    open = OpenRegion{};
}

void
ManaPrefetcher::replayFrom(Vpn trigger,
                           std::vector<PrefetchRequest> &out)
{
    const ManaRecord *rec = records_.find(trigger);
    if (!rec)
        return;
    Vpn cur = trigger;
    for (unsigned depth = 0; depth < manaReplayDepth; ++depth) {
        for (unsigned i = 0; i < params_.regionPages; ++i) {
            if (rec->footprint & (1u << i))
                push(out, cur + 1 + i, cur);
        }
        if (!rec->succValid)
            return;
        Vpn next = reconstructSuccessor(*rec);
        push(out, next, cur);
        rec = records_.find(next);
        if (!rec)
            return;
        cur = next;
    }
}

void
ManaPrefetcher::onInstrStlbMiss(Vpn vpn, Addr pc, unsigned tid,
                                std::vector<PrefetchRequest> &out)
{
    (void)pc;
    panic_if(tid >= 2, "MANA supports two hardware threads");
    OpenRegion &open = open_[tid];

    if (open.valid && vpn >= open.trigger &&
        vpn - open.trigger <= params_.regionPages) {
        Vpn delta = vpn - open.trigger;
        if (delta > 0)
            open.footprint |=
                static_cast<std::uint8_t>(1u << (delta - 1));
        return;
    }

    // The miss leaves the open region: seal it with this VPN as its
    // successor, then start (and replay) the new region.
    commitRegion(open, vpn);
    open.trigger = vpn;
    open.footprint = 0;
    open.valid = true;
    replayFrom(vpn, out);
}

void
ManaPrefetcher::onContextSwitch()
{
    records_.flush();
    std::fill(hob_.begin(), hob_.end(), 0);
    hobUsed_ = 0;
    hobNext_ = 0;
    open_[0] = OpenRegion{};
    open_[1] = OpenRegion{};
}

std::size_t
ManaPrefetcher::storageBits() const
{
    unsigned hob_idx_bits = 0;
    for (std::uint32_t n = params_.hobEntries; n > 1; n >>= 1)
        ++hob_idx_bits;
    // Record: tag (16b partial) + footprint + successor-valid bit +
    // HOB index + successor low bits. HOB entry: VPN high bits.
    std::size_t record_bits = 16 + params_.regionPages + 1 +
                              hob_idx_bits +
                              manaSuccessorLowBits;
    std::size_t hob_bits = 36 - manaSuccessorLowBits;
    return static_cast<std::size_t>(records_.capacity()) *
               record_bits +
           static_cast<std::size_t>(params_.hobEntries) * hob_bits;
}

void
registerManaPrefetcher(PrefetcherRegistry &reg)
{
    reg.registerPlugin({
        "mana", "MANA",
        "metadata-compressed record/replay of spatial miss regions",
        [] { return std::make_unique<ManaPrefetcher>(); },
        /*fuzzable=*/true, /*tournament=*/true});
}

} // namespace morrigan
