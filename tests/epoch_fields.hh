/**
 * @file
 * Interval-epoch helpers shared by the tests: a white-box simulator
 * rig and the check that an epoch ring adds up to the run's
 * counters, built on visitFields(EpochCounters) so a new counter is
 * covered without touching them.
 */

#ifndef MORRIGAN_TESTS_EPOCH_FIELDS_HH
#define MORRIGAN_TESTS_EPOCH_FIELDS_HH

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <string>
#include <type_traits>

#include "core/morrigan.hh"
#include "sim/interval_sampler.hh"
#include "sim/simulator.hh"
#include "workload/server_workload.hh"
#include "workload/workload_factory.hh"

namespace morrigan::test
{

/** f(name, a, b) for every scalar of two records of one type,
 * through nested records and array elements. */
template <class T, class F>
void
forEachScalarPair(T &a, const T &b, F &&f, const std::string &name = "")
{
    if constexpr (Record<T>) {
        visitFieldPairs(a, b, [&](const char *key, auto &x,
                                  const auto &y) {
            forEachScalarPair(x, y, f,
                              name.empty() ? key : name + "." + key);
        });
    } else if constexpr (std::is_arithmetic_v<T>) {
        f(name, a, b);
    } else {
        for (std::size_t i = 0; i < a.size(); ++i)
            f(name + "." + std::to_string(i), a[i], b[i]);
    }
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
 * stops there. */
inline EpochCounters
measurementStart(SimConfig cfg, bool smt)
{
    cfg.simInstructions = 0;
    EpochRig rig(cfg, smt);
    rig.sim.run();
    return rig.sim.epochCounters();
}

/**
 * The deltas of @p ring's epochs, which must be every epoch of the
 * measurement, add up to @p end - @p start in every field: integers
 * exactly, doubles within the cycle ledger's rounding bound.
 */
inline void
expectEpochsAddUp(const std::deque<IntervalSample> &ring,
                  const EpochCounters &start,
                  const EpochCounters &end)
{
    EpochCounters sum;
    for (const IntervalSample &s : ring)
        forEachScalarPair(sum, s.delta,
                          [](const std::string &, auto &x,
                             const auto &y) { x += y; });
    const double tol = ledgerTolerance(end.counters.instructions);
    EpochCounters expect = end;
    forEachScalarPair(expect, start,
                      [](const std::string &, auto &x, const auto &y) {
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
