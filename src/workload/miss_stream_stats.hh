/**
 * @file
 * iSTLB miss-stream analysis (Section 3.3 / Figures 5-8).
 *
 * Built from the sequence of instruction pages that missed in the
 * STLB (a job's ExperimentOutput::missStream, or
 * Simulator::missStream()), it computes the characterisation the
 * paper bases Morrigan on:
 * the cumulative delta distribution between consecutive misses
 * (Figure 5), the per-page miss-frequency skew (Figure 6), the
 * successor fan-out breakdown (Figure 7) and the successor reference
 * probabilities for the hottest pages (Figure 8).
 */

#ifndef MORRIGAN_WORKLOAD_MISS_STREAM_STATS_HH
#define MORRIGAN_WORKLOAD_MISS_STREAM_STATS_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace morrigan
{

/** Analyses one iSTLB miss stream. */
class MissStreamStats
{
  public:
    /** Analyse @p stream, the missing VPNs in miss order. */
    explicit MissStreamStats(const std::vector<Vpn> &stream = {});

    std::uint64_t totalMisses() const { return total_; }

    /**
     * Fraction of consecutive-miss |deltas| that are <= @p bound
     * (Figure 5's cumulative distribution).
     */
    double deltaCdfAt(std::uint64_t bound) const;

    /**
     * Smallest number of pages that together account for @p fraction
     * of all misses (Figure 6; the paper reports 400-800 pages for
     * 90%).
     */
    std::size_t pagesCoveringFraction(double fraction) const;

    /** Number of distinct pages that missed at least once. */
    std::size_t distinctPages() const { return missesPerPage_.size(); }

    /**
     * Successor-count breakdown (Figure 7): fraction of pages whose
     * observed successor set size falls in [lo, hi].
     */
    double successorCountFraction(std::uint32_t lo,
                                  std::uint32_t hi) const;

    /**
     * Mean probability of the @p rank-th most frequent successor over
     * the @p top_pages pages with the most misses (Figure 8; rank 0
     * should come out near 0.51, rank 1 near 0.21, rank 2 near 0.11).
     */
    double successorProbability(unsigned rank,
                                std::size_t top_pages = 50) const;

    /** Remaining probability mass beyond the first @p ranks. */
    double successorTailProbability(unsigned ranks,
                                    std::size_t top_pages = 50) const;

    /** All pages with their miss counts, hottest first. */
    std::vector<std::pair<Vpn, std::uint64_t>>
    pagesByMissCount() const
    {
        return hottestPages(missesPerPage_.size());
    }

  private:
    std::vector<std::pair<Vpn, std::uint64_t>> hottestPages(
        std::size_t count) const;

    std::uint64_t total_ = 0;
    std::unordered_map<Vpn, std::uint64_t> missesPerPage_;
    /** per page: successor -> transition count */
    std::unordered_map<Vpn, std::unordered_map<Vpn, std::uint64_t>>
        successorCounts_;
    /** |delta| between consecutive misses, ascending. */
    std::vector<std::uint64_t> deltas_;
};

} // namespace morrigan

#endif // MORRIGAN_WORKLOAD_MISS_STREAM_STATS_HH
