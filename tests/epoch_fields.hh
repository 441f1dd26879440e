/**
 * @file
 * Interval-epoch helpers shared by the tests: a white-box simulator
 * rig and the check that an epoch ring adds up to the run's
 * counters, built on visitFields(EpochCounters) and the epoch's copy
 * of every component record, so a new counter is covered without
 * touching them.
 */

#ifndef MORRIGAN_TESTS_EPOCH_FIELDS_HH
#define MORRIGAN_TESTS_EPOCH_FIELDS_HH

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "core/morrigan.hh"
#include "sim/interval_sampler.hh"
#include "sim/simulator.hh"
#include "workload/server_workload.hh"
#include "workload/workload_factory.hh"

namespace morrigan::test
{

/** f(name, a, b) for every scalar of two records of one type,
 * through nested records, the records of two CounterRecords of one
 * shape, and array elements. */
template <class T, class F>
void
forEachScalarPair(T &a, const T &b, F &&f, const std::string &name = "")
{
    auto sub = [&name](const std::string &key) {
        return name.empty() ? key : name + "." + key;
    };
    if constexpr (std::is_same_v<std::remove_const_t<T>, CounterRecords>) {
        ASSERT_EQ(a.list.size(), b.list.size()) << name;
        for (std::size_t i = 0; i < a.list.size(); ++i)
            std::visit(
                [&](auto &x) {
                    using R = std::remove_reference_t<decltype(x)>;
                    forEachScalarPair(x, std::get<R>(b.list[i].second), f,
                                      sub(a.list[i].first));
                },
                a.list[i].second);
    } else if constexpr (Record<T>) {
        visitFieldPairs(a, b, [&](const char *key, auto &x,
                                  const auto &y) {
            forEachScalarPair(x, y, f, sub(key));
        });
    } else if constexpr (std::is_arithmetic_v<T>) {
        f(name, a, b);
    } else {
        for (std::size_t i = 0; i < a.size(); ++i)
            f(name + "." + std::to_string(i), a[i], b[i]);
    }
}

/** The record of type @p R under @p path in @p records. */
template <class R>
const R &
recordAt(const CounterRecords &records, std::string_view path)
{
    for (const auto &[p, rec] : records.list)
        if (p == path)
            return std::get<R>(rec);
    throw std::out_of_range(std::string(path));
}

/** Whether @p name is a distribution's min or max: an epoch carries
 * those as they stand at its end instead of differencing them. */
inline bool
isExtreme(const std::string &name)
{
    return name.ends_with(".min") || name.ends_with(".max");
}

/**
 * Morrigan on qmm_00 (plus qmm_01 on thread 1 when @p smt). The
 * frequency stack resets every 64 misses, so warmup leaves resets
 * behind that the first epoch must not count.
 */
struct EpochRig
{
    EpochRig(const SimConfig &cfg, bool smt) : sim(cfg)
    {
        sim.attachWorkload(&a, 0);
        if (smt)
            sim.attachWorkload(&b, 1);
        sim.attachPrefetcher(&morrigan);
    }

    static MorriganParams
    params()
    {
        MorriganParams p;
        p.irip.freqResetInterval = 64;
        return p;
    }

    ServerWorkload a{qmmWorkloadParams(0)};
    ServerWorkload b{qmmWorkloadParams(1)};
    MorriganPrefetcher morrigan{params()};
    Simulator sim;
};

/** The counters where @p cfg's measurement starts: a twin run that
 * stops there, with the tracer an interval sampler implies. */
inline EpochCounters
measurementStart(SimConfig cfg, bool smt)
{
    cfg.simInstructions = 0;
    EpochRig rig(cfg, smt);
    rig.sim.enableTracer();
    rig.sim.run();
    return rig.sim.epochCounters();
}

/**
 * The deltas of @p ring's epochs, which must be every epoch of the
 * measurement, add up to @p end - @p start in every field: integers
 * exactly, doubles within the cycle ledger's rounding bound. The
 * last epoch's distribution extremes are @p end's.
 */
inline void
expectEpochsAddUp(const std::deque<IntervalSample> &ring,
                  const EpochCounters &start,
                  const EpochCounters &end)
{
    ASSERT_FALSE(ring.empty());
    auto add = [](const std::string &name, auto &x, const auto &y) {
        if (isExtreme(name))
            x = y;
        else
            x += y;
    };
    EpochCounters sum = ring.front().delta;
    for (std::size_t i = 1; i < ring.size(); ++i)
        forEachScalarPair(sum, ring[i].delta, add);
    const double tol = ledgerTolerance(end.counters.instructions);
    EpochCounters expect = end;
    forEachScalarPair(expect, start,
                      [](const std::string &name, auto &x, const auto &y) {
                          if (!isExtreme(name))
                              x -= y;
                      });
    forEachScalarPair(sum, expect, [&](const std::string &name,
                                       const auto &x, const auto &y) {
        if constexpr (std::is_floating_point_v<
                          std::remove_cvref_t<decltype(x)>>)
            EXPECT_LE(std::abs(x - y), tol * std::abs(y)) << name;
        else
            EXPECT_EQ(x, y) << name;
    });
}

} // namespace morrigan::test

#endif // MORRIGAN_TESTS_EPOCH_FIELDS_HH
