#include "fnl_mma_tlb.hh"

#include <algorithm>

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
    req.tag.table = FnlMmaTlbPrefetcher::tagTable;
    req.tag.sourcePage = source;
    out.push_back(req);
}

} // anonymous namespace

FnlMmaTlbPrefetcher::FnlMmaTlbPrefetcher(const FnlMmaTlbParams &params)
    : mmaTable_(params.tableEntries, params.tableWays)
{
    // Ring of exactly `missLookahead` trigger slots: when full, the
    // slot at the cursor is the miss from missLookahead misses ago.
    missHistory_.assign(std::max(1u, params.missLookahead), 0);
}

void
FnlMmaTlbPrefetcher::onInstrStlbMiss(Vpn vpn, Addr pc, unsigned tid,
                                     std::vector<PrefetchRequest> &out)
{
    (void)pc;
    (void)tid;

    // FNL: next pages ahead of every miss.
    for (unsigned d = 1; d <= fnlMmaTlbNextPageDegree; ++d)
        push(out, vpn + d, vpn);

    // MMA training: the miss from `missLookahead` misses ago is
    // followed (at this lookahead) by the current miss VPN.
    ++missCount_;
    std::size_t depth = missHistory_.size();
    if (missCount_ > depth) {
        Vpn trigger = missHistory_[histPos_];
        if (MmaEntry *e = mmaTable_.probe(trigger)) {
            // Confirm or retrain: only repeatedly observed pairs earn
            // enough confidence to prefetch.
            if (e->future == vpn) {
                if (e->confidence < 3)
                    ++e->confidence;
            } else if (e->confidence > 0) {
                --e->confidence;
            } else {
                e->future = vpn;
            }
        } else {
            mmaTable_.insert(trigger, MmaEntry{vpn, 0});
        }
    }
    missHistory_[histPos_] = vpn;
    histPos_ = (histPos_ + 1) % depth;

    // MMA prediction: prefetch the VPN expected several misses out.
    if (const MmaEntry *e = mmaTable_.find(vpn)) {
        if (e->confidence >= 1)
            push(out, e->future, vpn);
    }
}

void
FnlMmaTlbPrefetcher::creditPbHit(const PrefetchTag &tag)
{
    if (tag.producer != PrefetchProducer::Other ||
        tag.table != tagTable) {
        return;
    }
    // Useful lookahead: reinforce the producing trigger entry so a
    // later retraining attempt has to out-vote a confirmed pair.
    if (MmaEntry *e = mmaTable_.probe(tag.sourcePage)) {
        if (e->confidence < 3)
            ++e->confidence;
    }
}

void
FnlMmaTlbPrefetcher::onContextSwitch()
{
    mmaTable_.flush();
    std::fill(missHistory_.begin(), missHistory_.end(), 0);
    histPos_ = 0;
    missCount_ = 0;
}

std::size_t
FnlMmaTlbPrefetcher::storageBits() const
{
    // tag (16b partial) + future VPN (36b) + confidence (2b); the
    // FNL component and the trigger ring registers are free.
    return static_cast<std::size_t>(mmaTable_.capacity()) *
           (16 + 36 + 2);
}

void
registerFnlMmaTlbPrefetcher(PrefetcherRegistry &reg)
{
    reg.registerPlugin({
        "fnl-mma", "FNL+MMA",
        "footprint next page + miss-ahead table on the iSTLB "
        "miss stream",
        [] { return std::make_unique<FnlMmaTlbPrefetcher>(); },
        /*fuzzable=*/true, /*tournament=*/true});
}

} // namespace morrigan
