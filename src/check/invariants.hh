/**
 * @file
 * Structural invariant hooks compiled into the hot structures.
 *
 * The differential checker (check/checker.hh) validates *results*;
 * these hooks validate the *internal state* of the structures the
 * results depend on, at the moment the state changes: the prefetch
 * buffer never exceeds its configured capacity, an IRIP PRT
 * promotion carries the whole successor set into the larger table,
 * the RLFU frequency stack stays monotone within a reset interval
 * and empty immediately after one.
 *
 * The hooks inside structures are guarded by the MORRIGAN_CHECK_LEVEL
 * environment variable (resolved once per process):
 *
 *   0 (default)  hooks compile to a single predictable branch
 *   1            cheap O(1) state checks (capacity, counters)
 *   2            heavyweight checks that re-derive state (successor
 *                set preservation, per-page frequency bounds)
 *
 * A structure has no configuration to consult, so its hooks keep that
 * process-wide latch. A check owned by an object that has its own
 * level -- the simulator's end-of-run cycle-ledger check, armed by
 * SimConfig::checkLevel as well -- uses MORRIGAN_CHECK_INVARIANT_IF
 * with a condition of its own, so library callers (runWorkload,
 * Supervisor jobs) that set the level in the config get it without
 * the env var.
 *
 * A violation is reported through reportInvariantViolation(), which
 * warns with the offending detail and bumps a process-wide atomic
 * counter. Drivers (morrigan-sim --check, morrigan-fuzz) read the
 * counter at exit and fail the run; unit tests fire violations
 * deliberately and observe the counter directly. Violations do not
 * abort mid-run so a fuzz campaign can finish the simulation and
 * report the seed.
 *
 * Header-only on purpose: the hooks live inside morrigan_core /
 * morrigan_tlb structures, which must not link against the check
 * library (that would invert the dependency order).
 */

#ifndef MORRIGAN_CHECK_INVARIANTS_HH
#define MORRIGAN_CHECK_INVARIANTS_HH

#include <atomic>
#include <cstdlib>

#include "common/logging.hh"

namespace morrigan::check
{

namespace detail
{

inline std::atomic<std::uint64_t> invariantViolationCount{0};
inline std::atomic<std::uint64_t> invariantCheckCount{0};

inline int
parseCheckLevelEnv()
{
    const char *s = std::getenv("MORRIGAN_CHECK_LEVEL");
    if (!s || *s == '\0')
        return 0;
    char *end = nullptr;
    long v = std::strtol(s, &end, 10);
    if (*end != '\0' || v < 0 || v > 2) {
        warn("MORRIGAN_CHECK_LEVEL='%s' is not 0, 1 or 2; "
             "treating as 0", s);
        return 0;
    }
    return static_cast<int>(v);
}

} // namespace detail

/** Structural check level from MORRIGAN_CHECK_LEVEL (0, 1 or 2);
 * resolved once, so the env var must be set before first use. */
inline int
invariantCheckLevel()
{
    static const int level = detail::parseCheckLevelEnv();
    return level;
}

/** Process-wide count of structural invariant violations. */
inline std::uint64_t
invariantViolations()
{
    return detail::invariantViolationCount.load(
        std::memory_order_relaxed);
}

/** Process-wide count of structural checks evaluated. */
inline std::uint64_t
invariantChecks()
{
    return detail::invariantCheckCount.load(std::memory_order_relaxed);
}

/** Reset both counters (tests that fire violations deliberately). */
inline void
resetInvariantCounters()
{
    detail::invariantViolationCount.store(0, std::memory_order_relaxed);
    detail::invariantCheckCount.store(0, std::memory_order_relaxed);
}

/** Record a violation; @p what should name structure and invariant. */
inline void
reportInvariantViolation(const std::string &what)
{
    detail::invariantViolationCount.fetch_add(
        1, std::memory_order_relaxed);
    warn("structural invariant violated: %s", what.c_str());
}

} // namespace morrigan::check

/**
 * Evaluate an invariant when @p armed holds: count the check and
 * report a violation if @p cond is false. @p cond is not evaluated
 * otherwise.
 */
#define MORRIGAN_CHECK_INVARIANT_IF(armed, cond, ...) \
    do { \
        if (armed) { \
            ::morrigan::check::detail::invariantCheckCount \
                .fetch_add(1, std::memory_order_relaxed); \
            if (!(cond)) \
                ::morrigan::check::reportInvariantViolation( \
                    ::morrigan::csprintf(__VA_ARGS__)); \
        } \
    } while (0)

/**
 * Evaluate a structural invariant when the process check level is at
 * least @p level. The condition is not evaluated below that level, so
 * hooks on hot paths cost one branch when checking is off.
 */
#define MORRIGAN_CHECK_INVARIANT(level, cond, ...) \
    MORRIGAN_CHECK_INVARIANT_IF( \
        ::morrigan::check::invariantCheckLevel() >= (level), cond, \
        __VA_ARGS__)

#endif // MORRIGAN_CHECK_INVARIANTS_HH
