/**
 * @file
 * Deterministic pseudo-random number generation (PCG32).
 *
 * Every stochastic component in the reproduction -- the synthetic
 * workload generators, the Random and RLFU replacement policies --
 * draws from an explicitly seeded Rng so that simulations are exactly
 * reproducible across runs and platforms. std::mt19937 is avoided
 * because its distributions are not guaranteed to be identical across
 * standard library implementations.
 */

#ifndef MORRIGAN_COMMON_RNG_HH
#define MORRIGAN_COMMON_RNG_HH

#include <cstdint>

#include "common/snapshot.hh"

namespace morrigan
{

/**
 * PCG32 generator (O'Neill, pcg-random.org; PCG-XSH-RR variant).
 *
 * 64-bit state, 32-bit output, period 2^64 per stream.
 */
class Rng
{
  public:
    /** Construct from a seed and an optional stream selector. */
    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        state_ = 0;
        inc_ = (stream << 1) | 1u;
        next32();
        state_ += seed;
        next32();
    }

    /** Next raw 32-bit draw. */
    std::uint32_t
    next32()
    {
        std::uint64_t old = state_;
        state_ = old * mult + inc_;
        return output(old);
    }

    /** Next raw 64-bit draw. */
    std::uint64_t
    next64()
    {
        return (static_cast<std::uint64_t>(next32()) << 32) | next32();
    }

    /** Uniform integer in [0, bound) using Lemire rejection. */
    std::uint32_t
    below(std::uint32_t bound)
    {
        if (bound <= 1)
            return 0;
        // Unbiased bounded generation.
        std::uint32_t threshold = (-bound) % bound;
        for (;;) {
            std::uint32_t r = next32();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    between(std::int64_t lo, std::int64_t hi)
    {
        if (hi <= lo)
            return lo;
        std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
        // span fits in 32 bits for all our uses; fall back to modulo
        // of a 64-bit draw otherwise.
        if (span <= 0xffffffffULL)
            return lo + below(static_cast<std::uint32_t>(span));
        return lo + static_cast<std::int64_t>(next64() % span);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 random mantissa bits from two 32-bit draws. The second
        // draw's state s1 and the state after both,
        // s2 = a^2 s0 + (a + 1) c, are computed from s0 directly, so
        // the generator's multiply chain advances once per call.
        std::uint64_t s0 = state_;
        std::uint64_t s1 = s0 * mult + inc_;
        state_ = s0 * (mult * mult) + (mult + 1) * inc_;
        std::uint64_t hi = output(s0) >> 6;   // 26 bits
        std::uint64_t lo = output(s1) >> 5;   // 27 bits
        return ((hi << 27) | lo) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli draw with probability @p p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Save or resume the generator state (stream position
     * included). */
    void save(SnapshotWriter &w) const { transfer(*this, w); }
    void restore(SnapshotReader &r) { transfer(*this, r); }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("rng");
        ar.io(self.state_);
        ar.io(self.inc_);
    }

    /** LCG multiplier a of the state step s' = a s + c. */
    static constexpr std::uint64_t mult = 6364136223846793005ULL;

    /** PCG-XSH-RR output permutation of a pre-step state. */
    static std::uint32_t
    output(std::uint64_t old)
    {
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59);
        return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
    }

    std::uint64_t state_;
    std::uint64_t inc_;
};

} // namespace morrigan

#endif // MORRIGAN_COMMON_RNG_HH
