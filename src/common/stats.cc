#include "stats.hh"

#include <cmath>

#include "logging.hh"

namespace morrigan
{

double
geomean(const std::vector<double> &values)
{
    panic_if(values.empty(), "geomean of empty vector");
    double acc = 0.0;
    for (double v : values) {
        panic_if(v <= 0.0, "geomean requires positive values, got %f", v);
        acc += std::log(v);
    }
    return std::exp(acc / static_cast<double>(values.size()));
}

} // namespace morrigan
