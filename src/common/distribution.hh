/**
 * @file
 * A running count/sum/min/max over sampled values.
 *
 * A plain record (common/fields.hh), so it nests in the component
 * counter records and is written, saved and reset with them.
 */

#ifndef MORRIGAN_COMMON_DISTRIBUTION_HH
#define MORRIGAN_COMMON_DISTRIBUTION_HH

#include <algorithm>
#include <cstdint>

#include "common/fields.hh"

namespace morrigan
{

/** Count, sum and extremes of the samples taken; min and max read 0
 * until the first sample. */
struct Distribution
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    void
    sample(double v)
    {
        min = count ? std::min(min, v) : v;
        max = count ? std::max(max, v) : v;
        sum += v;
        ++count;
    }

    /** Merge @p o's samples into this one. */
    Distribution &
    operator+=(const Distribution &o)
    {
        if (o.count) {
            min = count ? std::min(min, o.min) : o.min;
            max = count ? std::max(max, o.max) : o.max;
        }
        sum += o.sum;
        count += o.count;
        return *this;
    }

    template <RecordOf<Distribution> Self, class V>
    friend constexpr void visitFields(Self &d, V &&v)
    {
        v("count", d.count);
        v("sum", d.sum);
        v("min", d.min);
        v("max", d.max);
    }
};
static_assert(visitsEveryField<Distribution>());

} // namespace morrigan

#endif // MORRIGAN_COMMON_DISTRIBUTION_HH
