#include "fdip.hh"

#include "common/logging.hh"
#include "core/prefetcher_registry.hh"

namespace morrigan
{

FdipPrefetcher::FdipPrefetcher(const FdipParams &params)
    : table_(params.tableEntries, params.tableWays)
{
}

void
FdipPrefetcher::onInstrStlbMiss(Vpn vpn, Addr pc, unsigned tid,
                                std::vector<PrefetchRequest> &out)
{
    (void)pc;
    panic_if(tid >= 2, "FDIP supports two hardware threads");
    History &h = hist_[tid];

    // Train the fetch-path edge prev -> vpn.
    if (h.valid && h.prevVpn != vpn) {
        if (FtqEntry *e = table_.probe(h.prevVpn)) {
            if (e->next == vpn) {
                if (e->confidence < 3)
                    ++e->confidence;
            } else if (e->confidence > 0) {
                --e->confidence;
            } else {
                e->next = vpn;
            }
        } else {
            table_.insert(h.prevVpn, FtqEntry{vpn, 0});
        }
    }
    h.prevVpn = vpn;
    h.valid = true;

    // Run ahead: chase the learned fetch path, one FTQ slot per
    // confident edge, stopping at the first unknown or distrusted
    // edge exactly as FDIP stops at an unpredicted branch.
    Vpn cur = vpn;
    for (unsigned depth = 0; depth < fdipFtqDepth; ++depth) {
        const FtqEntry *e = table_.find(cur);
        if (!e || e->confidence < fdipConfidenceThreshold)
            return;
        PrefetchRequest req;
        req.vpn = e->next;
        req.spatial = false;
        req.tag.producer = PrefetchProducer::Other;
        req.tag.table = tagTable;
        req.tag.sourcePage = cur;
        out.push_back(req);
        cur = e->next;
    }
}

void
FdipPrefetcher::creditPbHit(const PrefetchTag &tag)
{
    if (tag.producer != PrefetchProducer::Other ||
        tag.table != tagTable) {
        return;
    }
    // The fetch unit really did walk onto the predicted page:
    // reinforce the producing edge.
    if (FtqEntry *e = table_.probe(tag.sourcePage)) {
        if (e->confidence < 3)
            ++e->confidence;
    }
}

void
FdipPrefetcher::onContextSwitch()
{
    table_.flush();
    hist_[0] = History{};
    hist_[1] = History{};
}

std::size_t
FdipPrefetcher::storageBits() const
{
    // tag (16b partial) + next VPN (36b) + confidence (2b).
    return static_cast<std::size_t>(table_.capacity()) *
           (16 + 36 + 2);
}

void
registerFdipPrefetcher(PrefetcherRegistry &reg)
{
    reg.registerPlugin({
        "fdip", "FDIP",
        "fetch-directed run-ahead along the learned fetch path",
        [] { return std::make_unique<FdipPrefetcher>(); },
        /*fuzzable=*/true, /*tournament=*/true});
}

} // namespace morrigan
