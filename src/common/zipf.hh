/**
 * @file
 * Zipf-distributed sampling over a finite population.
 *
 * The paper's Finding 2 (Section 3.3) shows that iSTLB misses follow a
 * skewed distribution: 400-800 instruction pages cause 90% of all
 * misses. The synthetic workload generators reproduce that skew by
 * drawing hot code pages from a Zipf distribution.
 *
 * Sampling inverts the CDF. A quantized guide table narrows the
 * search to the CDF entries a given uniform draw can resolve to --
 * the final comparisons run on the same CDF values, so the chosen
 * rank is bit-identical to a full-range lower_bound. The table is
 * made fine enough that no bucket holds two CDF values, so a draw is
 * one compare and a select; populations too skewed for that within
 * the bucket cap keep a short bracketed search.
 */

#ifndef MORRIGAN_COMMON_ZIPF_HH
#define MORRIGAN_COMMON_ZIPF_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "rng.hh"

namespace morrigan
{

/**
 * Samples ranks in [0, n) with probability proportional to
 * 1 / (rank + 1)^theta, using a precomputed inverse CDF table.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Population size (must be >= 1).
     * @param theta Skew exponent; 0 degenerates to uniform.
     */
    ZipfSampler(std::size_t n, double theta);

    /** Draw one rank (0 is the most popular). Defined inline: the
     * workload generators draw several times per instruction. */
    std::size_t
    sample(Rng &rng) const
    {
        double u = rng.uniform();
        std::size_t b = static_cast<std::size_t>(u * bucketScale_);
        if (b >= numBuckets_)
            b = numBuckets_ - 1;
        // A draw in [b/K, (b+1)/K) resolves to a rank in
        // [guide_[b], guide_[b+1]]: lower_bound is monotone in u and
        // guide_ brackets the bucket endpoints, so searching only
        // that slice runs the same comparisons a full-range search
        // would.
        std::uint32_t lo = guide_[b];
        std::uint32_t hi = guide_[b + 1];
        if (oneCompare_)
            return cdf_[lo] < u ? hi : lo;
        auto first = cdf_.begin() + lo;
        auto last = cdf_.begin() + hi;
        auto it = std::lower_bound(first, last, u);
        // it == last means everything below guide_[b+1] is < u, so
        // the answer is guide_[b+1] itself -- which the constructor
        // already clamped to n - 1, matching the unguided search's
        // end() clamp.
        if (it == last)
            return hi;
        return static_cast<std::size_t>(it - cdf_.begin());
    }

    /** Probability mass of a given rank. */
    double probability(std::size_t rank) const;

  private:
    std::vector<double> cdf_;
    /** guide_[b] = first rank whose CDF value is >= b / numBuckets;
     * a draw u in bucket b resolves within
     * [guide_[b], guide_[b + 1]]. */
    std::vector<std::uint32_t> guide_;
    /** Bucket count (power of two) and its double multiplier. */
    std::size_t numBuckets_ = 0;
    double bucketScale_ = 0.0;
    /** No bucket holds two CDF values (guide_[b + 1] - guide_[b] <=
     * 1): the bracket is one rank or two adjacent ones, and one
     * compare picks between them. */
    bool oneCompare_ = false;
};

} // namespace morrigan

#endif // MORRIGAN_COMMON_ZIPF_HH
