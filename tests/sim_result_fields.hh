/**
 * @file
 * SimResult helpers shared by the tests, built on
 * visitFields(SimResult) so a new result field is compared and
 * round-tripped without touching them.
 */

#ifndef MORRIGAN_TESTS_SIM_RESULT_FIELDS_HH
#define MORRIGAN_TESTS_SIM_RESULT_FIELDS_HH

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/sim_config.hh"

namespace morrigan::test
{

/** Every field of @p r as (name, text); doubles print as hexfloat,
 * so equal text means equal bits. */
inline std::vector<std::pair<std::string, std::string>>
resultFields(const SimResult &r)
{
    std::vector<std::pair<std::string, std::string>> out;
    visitFields(r, [&out](const char *name, const auto &v,
                          FieldTag = FieldTag::Plain) {
        using T = std::remove_cvref_t<decltype(v)>;
        std::ostringstream os;
        os << std::hexfloat;
        if constexpr (std::is_arithmetic_v<T> ||
                      std::is_same_v<T, std::string>) {
            os << v;
        } else {
            for (auto e : v)
                os << e << ' ';
        }
        out.emplace_back(name, os.str());
    });
    return out;
}

/** Every SimResult field compared exactly (doubles included:
 * determinism means bit-identical, not merely close). */
inline void
expectSameResult(const SimResult &a, const SimResult &b)
{
    const auto fa = resultFields(a);
    const auto fb = resultFields(b);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i)
        EXPECT_EQ(fa[i].second, fb[i].second)
            << "SimResult field " << fa[i].first;
}

/** A SimResult with every recorded field set to a distinctive value
 * (doubles that decimal text cannot hold exactly); the unrecorded
 * check report stays empty. */
inline SimResult
sampleResult()
{
    SimResult r;
    unsigned i = 0;
    visitFields(r, [&i](const char *name, auto &v,
                        FieldTag tag = FieldTag::Plain) {
        using T = std::remove_cvref_t<decltype(v)>;
        ++i;
        if (tag == FieldTag::Unrecorded)
            return;
        if constexpr (std::is_same_v<T, double>)
            v = (i % 2 ? i * 1e6 : i) / 7.0;
        else if constexpr (std::is_same_v<T, std::string>)
            v = std::string(name) + "-" + std::to_string(i);
        else if constexpr (std::is_integral_v<T>)
            v = 1000 * i + 1;
        else
            for (std::size_t e = 0; e < v.size(); ++e)
                v[e] = 100 * i + e;
    });
    return r;
}

} // namespace morrigan::test

#endif // MORRIGAN_TESTS_SIM_RESULT_FIELDS_HH
