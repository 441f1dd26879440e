#include "miss_stream_stats.hh"

#include <algorithm>

namespace morrigan
{

MissStreamStats::MissStreamStats(const std::vector<Vpn> &stream)
    : total_(stream.size())
{
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const Vpn vpn = stream[i];
        ++missesPerPage_[vpn];
        if (i == 0)
            continue;
        const Vpn prev = stream[i - 1];
        deltas_.push_back(vpn > prev ? vpn - prev : prev - vpn);
        ++successorCounts_[prev][vpn];
    }
    std::sort(deltas_.begin(), deltas_.end());
}

double
MissStreamStats::deltaCdfAt(std::uint64_t bound) const
{
    const auto within =
        std::upper_bound(deltas_.begin(), deltas_.end(), bound) -
        deltas_.begin();
    return deltas_.empty() ? 0.0
                           : static_cast<double>(within) /
                                 static_cast<double>(deltas_.size());
}

std::vector<std::pair<Vpn, std::uint64_t>>
MissStreamStats::hottestPages(std::size_t count) const
{
    std::vector<std::pair<Vpn, std::uint64_t>> pages(
        missesPerPage_.begin(), missesPerPage_.end());
    std::sort(pages.begin(), pages.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    if (pages.size() > count)
        pages.resize(count);
    return pages;
}

std::size_t
MissStreamStats::pagesCoveringFraction(double fraction) const
{
    auto pages = hottestPages(missesPerPage_.size());
    std::uint64_t needed = static_cast<std::uint64_t>(
        fraction * static_cast<double>(total_));
    std::uint64_t acc = 0;
    std::size_t n = 0;
    for (const auto &[vpn, count] : pages) {
        acc += count;
        ++n;
        if (acc >= needed)
            break;
    }
    return n;
}

double
MissStreamStats::successorCountFraction(std::uint32_t lo,
                                        std::uint32_t hi) const
{
    if (successorCounts_.empty())
        return 0.0;
    std::size_t within = 0;
    for (const auto &[vpn, succ] : successorCounts_) {
        auto k = static_cast<std::uint32_t>(succ.size());
        if (k >= lo && k <= hi)
            ++within;
    }
    return static_cast<double>(within) /
           static_cast<double>(successorCounts_.size());
}

double
MissStreamStats::successorProbability(unsigned rank,
                                      std::size_t top_pages) const
{
    auto pages = hottestPages(top_pages);
    if (pages.empty())
        return 0.0;

    double acc = 0.0;
    std::size_t counted = 0;
    for (const auto &[vpn, misses] : pages) {
        auto it = successorCounts_.find(vpn);
        if (it == successorCounts_.end())
            continue;
        std::vector<std::uint64_t> counts;
        counts.reserve(it->second.size());
        std::uint64_t total = 0;
        for (const auto &[succ, c] : it->second) {
            counts.push_back(c);
            total += c;
        }
        std::sort(counts.rbegin(), counts.rend());
        if (total == 0)
            continue;
        double p = rank < counts.size()
                       ? static_cast<double>(counts[rank]) /
                         static_cast<double>(total)
                       : 0.0;
        acc += p;
        ++counted;
    }
    return counted == 0 ? 0.0 : acc / static_cast<double>(counted);
}

double
MissStreamStats::successorTailProbability(unsigned ranks,
                                          std::size_t top_pages) const
{
    double head = 0.0;
    for (unsigned r = 0; r < ranks; ++r)
        head += successorProbability(r, top_pages);
    return std::max(0.0, 1.0 - head);
}

} // namespace morrigan
