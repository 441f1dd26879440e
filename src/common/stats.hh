/**
 * @file
 * Summary statistics over run results.
 *
 * Component counters are plain records beside each component (e.g.
 * CacheModel::Stats), listed with their --stats paths by the
 * simulator; see common/fields.hh and common/distribution.hh.
 */

#ifndef MORRIGAN_COMMON_STATS_HH
#define MORRIGAN_COMMON_STATS_HH

#include <vector>

namespace morrigan
{

/** Geometric mean of a vector of strictly positive values. */
double geomean(const std::vector<double> &values);

} // namespace morrigan

#endif // MORRIGAN_COMMON_STATS_HH
