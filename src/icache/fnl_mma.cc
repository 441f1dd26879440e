#include "fnl_mma.hh"

namespace morrigan
{

FnlMmaPrefetcher::FnlMmaPrefetcher(const FnlMmaParams &params)
    : mmaTable_(params.tableEntries, params.tableWays)
{
    missHistory_.assign(params.missLookahead + 1, 0);
}

void
FnlMmaPrefetcher::onFetch(Addr pc, bool l1i_miss,
                          std::vector<Addr> &out)
{
    Addr line = lineOf(pc);

    // FNL: next lines, across page boundaries, ahead of every fetch.
    for (unsigned d = 1; d <= fnlMmaNextLineDegree; ++d)
        out.push_back((line + d) << lineShift);

    if (!l1i_miss)
        return;  // the MMA component trains and fires on misses

    // MMA training: the miss from `missLookahead` misses ago is
    // followed (at this lookahead) by the current miss line.
    ++missCount_;
    std::size_t depth = missHistory_.size();
    if (missCount_ > depth) {
        Addr trigger = missHistory_[histPos_];
        if (MmaEntry *e = mmaTable_.probe(trigger)) {
            // Confirm or retrain: only repeatedly observed pairs
            // earn enough confidence to prefetch, keeping the
            // mispredictions of a thrashing table out of the L1I.
            if (e->future == line) {
                if (e->confidence < 3)
                    ++e->confidence;
            } else if (e->confidence > 0) {
                --e->confidence;
            } else {
                e->future = line;
            }
        } else {
            mmaTable_.insert(trigger, MmaEntry{line, 0});
        }
    }
    missHistory_[histPos_] = line;
    histPos_ = (histPos_ + 1) % depth;

    // MMA prediction: prefetch the line expected several misses out.
    if (const MmaEntry *e = mmaTable_.find(line)) {
        if (e->confidence >= 1)
            out.push_back(e->future << lineShift);
    }
}

} // namespace morrigan
