#include "zipf.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace morrigan
{

ZipfSampler::ZipfSampler(std::size_t n, double theta)
{
    fatal_if(n == 0, "ZipfSampler population must be non-empty");
    cdf_.resize(n);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), theta);
        cdf_[i] = acc;
    }
    for (std::size_t i = 0; i < n; ++i)
        cdf_[i] /= acc;

    // A power-of-two bucket count makes u * numBuckets_ an exact
    // exponent shift: the bucket of u is floor(u * K) with no
    // floating rounding at the b / K boundaries. Start at n buckets
    // and double until no bucket holds two CDF values, so a draw is
    // one compare; past the cap the bracket search takes over.
    constexpr std::size_t maxBuckets = std::size_t{1} << 16;
    numBuckets_ = 1;
    while (numBuckets_ < n && numBuckets_ < maxBuckets)
        numBuckets_ <<= 1;
    for (;;) {
        bucketScale_ = static_cast<double>(numBuckets_);
        guide_.resize(numBuckets_ + 1);
        // One sweep: thresholds b / K rise with b, so the first rank
        // whose CDF value reaches each one only moves forward.
        std::size_t rank = 0;
        std::uint32_t widest = 0;
        for (std::size_t b = 0; b <= numBuckets_; ++b) {
            double threshold = static_cast<double>(b) / bucketScale_;
            while (rank < n && cdf_[rank] < threshold)
                ++rank;
            guide_[b] = static_cast<std::uint32_t>(
                rank == n ? n - 1 : rank);
            if (b > 0)
                widest = std::max(widest, guide_[b] - guide_[b - 1]);
        }
        oneCompare_ = widest <= 1;
        if (oneCompare_ || numBuckets_ == maxBuckets)
            break;
        numBuckets_ <<= 1;
    }
}

double
ZipfSampler::probability(std::size_t rank) const
{
    if (rank >= cdf_.size())
        return 0.0;
    if (rank == 0)
        return cdf_[0];
    return cdf_[rank] - cdf_[rank - 1];
}

} // namespace morrigan
