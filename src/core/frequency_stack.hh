/**
 * @file
 * Frequency stack of iSTLB misses.
 *
 * RLFU's key insight (Finding 4 / Section 4.1.1): *access frequency*,
 * not recency, correlates with which instruction pages will keep
 * missing in the STLB. The frequency stack counts STLB misses per
 * instruction page and is consulted when a prediction table set needs
 * a victim. To track phase changes it is periodically reset, so a
 * page that was hot in a previous phase does not stay artificially
 * protected.
 *
 * Storage is a flat open-addressing hash (power-of-two capacity,
 * multiplicative hash, linear probing) over three parallel lanes:
 * vpn / count / epoch stamp. A slot is live only when its stamp
 * matches the current epoch, so the periodic phase reset and clear()
 * are O(1) epoch bumps instead of an unordered_map::clear() walk,
 * and a frequency() probe is one multiply plus a short contiguous
 * scan. Counts are exact -- identical to the previous
 * unordered_map-based implementation for every query -- which is
 * what keeps RLFU victim selection bit-identical.
 */

#ifndef MORRIGAN_CORE_FREQUENCY_STACK_HH
#define MORRIGAN_CORE_FREQUENCY_STACK_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "check/invariants.hh"
#include "common/snapshot.hh"
#include "common/types.hh"

namespace morrigan
{

/** Miss-frequency tracker with periodic phase reset. */
class FrequencyStack
{
  public:
    /**
     * @param reset_interval Number of recorded misses after which the
     * stack is cleared; 0 disables resets.
     */
    explicit FrequencyStack(std::uint64_t reset_interval = 8192)
        : resetInterval_(reset_interval)
    {
        // Each recorded miss introduces at most one new page, so with
        // resets enabled the live population never exceeds the reset
        // interval; size the table past that so it never rehashes on
        // the hot path. Unbounded (interval 0) stacks start small and
        // grow on demand.
        std::size_t want = 64;
        if (resetInterval_ != 0) {
            while (want < 2 * resetInterval_)
                want <<= 1;
        }
        rehash(want);
    }

    /** Record one iSTLB miss on @p vpn. */
    void
    recordMiss(Vpn vpn)
    {
        std::size_t i = findSlot(vpn);
        if (stamp_[i] != epoch_) {
            if (population_ + 1 > (capacity_ >> 3) * 7) {
                rehash(capacity_ << 1);
                i = findSlot(vpn);
            }
            vpns_[i] = vpn;
            counts_[i] = 0;
            stamp_[i] = epoch_;
            ++population_;
        }
        std::uint32_t f = ++counts_[i];
        ++sinceReset_;
        // Monotone-within-interval: no single page can have been
        // counted more often than misses were recorded since the
        // last reset (including this one).
        MORRIGAN_CHECK_INVARIANT(
            2, f <= sinceReset_,
            "frequency stack: vpn %#llx frequency %u exceeds %llu "
            "misses recorded since reset",
            static_cast<unsigned long long>(vpn), f,
            static_cast<unsigned long long>(sinceReset_));
        if (resetInterval_ != 0 && sinceReset_ >= resetInterval_) {
            bumpEpoch();
            sinceReset_ = 0;
            ++resets_;
            MORRIGAN_CHECK_INVARIANT(
                1, population_ == 0 && sinceReset_ == 0,
                "frequency stack: %zu pages still tracked after a "
                "phase reset",
                population_);
        }
    }

    /** Current miss count of @p vpn within this interval. */
    std::uint32_t
    frequency(Vpn vpn) const
    {
        std::size_t i = findSlot(vpn);
        return stamp_[i] == epoch_ ? counts_[i] : 0;
    }

    /** Clear all state (context switch). */
    void
    clear()
    {
        bumpEpoch();
        sinceReset_ = 0;
    }

    std::uint64_t resets() const { return resets_; }
    std::size_t trackedPages() const { return population_; }

    void save(SnapshotWriter &w) const { transfer(*this, w); }
    void restore(SnapshotReader &r) { transfer(*this, r); }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("freq_stack");
        ar.expect(self.resetInterval_, "frequency stack reset interval");
        ar.io(self.sinceReset_);
        ar.io(self.resets_);
        // Live entries in sorted VPN order, so the image is
        // independent of the hash-table layout.
        std::vector<std::pair<Vpn, std::uint32_t>> entries;
        entries.reserve(self.population_);
        for (std::size_t i = 0; i < self.capacity_; ++i)
            if (self.stamp_[i] == self.epoch_)
                entries.emplace_back(self.vpns_[i], self.counts_[i]);
        std::sort(entries.begin(), entries.end());
        std::uint64_t n = entries.size();
        ar.count(n, sizeof(Vpn) + sizeof(std::uint32_t));
        if constexpr (Ar::loading)
            entries.assign(n, {});
        ar.io(entries);
        if constexpr (Ar::loading) {
            self.bumpEpoch();
            while (self.capacity_ < 2 * n)
                self.rehash(self.capacity_ << 1);
            for (const auto &[vpn, f] : entries) {
                std::size_t i = self.findSlot(vpn);
                self.vpns_[i] = vpn;
                self.counts_[i] = f;
                self.stamp_[i] = self.epoch_;
                ++self.population_;
            }
        }
    }

    /** Slot holding @p vpn, or the free slot where it would go. */
    std::size_t
    findSlot(Vpn vpn) const
    {
        std::size_t i =
            static_cast<std::size_t>(vpn * 0x9e3779b97f4a7c15ULL) &
            (capacity_ - 1);
        while (stamp_[i] == epoch_ && vpns_[i] != vpn)
            i = (i + 1) & (capacity_ - 1);
        return i;
    }

    void
    bumpEpoch()
    {
        ++epoch_;
        population_ = 0;
        if (epoch_ == 0) {
            // 32-bit stamp wrapped: old stamps could alias the fresh
            // epoch, so pay one full clear every 2^32 resets. Stamp 0
            // is reserved as "never live" (epoch_ skips it).
            std::fill(stamp_.begin(), stamp_.end(), 0u);
            epoch_ = 1;
        }
    }

    void
    rehash(std::size_t new_capacity)
    {
        std::vector<Vpn> old_vpns = std::move(vpns_);
        std::vector<std::uint32_t> old_counts = std::move(counts_);
        std::vector<std::uint32_t> old_stamp = std::move(stamp_);
        std::size_t old_capacity = capacity_;
        std::uint32_t old_epoch = epoch_;

        capacity_ = new_capacity;
        vpns_.assign(capacity_, 0);
        counts_.assign(capacity_, 0);
        stamp_.assign(capacity_, 0u);
        epoch_ = 1;
        population_ = 0;
        for (std::size_t i = 0; i < old_capacity; ++i) {
            if (old_stamp[i] != old_epoch)
                continue;
            std::size_t j = findSlot(old_vpns[i]);
            vpns_[j] = old_vpns[i];
            counts_[j] = old_counts[i];
            stamp_[j] = epoch_;
            ++population_;
        }
    }

    std::vector<Vpn> vpns_;
    std::vector<std::uint32_t> counts_;
    std::vector<std::uint32_t> stamp_;
    std::size_t capacity_ = 0;
    std::size_t population_ = 0;
    std::uint32_t epoch_ = 1;
    std::uint64_t resetInterval_;
    std::uint64_t sinceReset_ = 0;
    std::uint64_t resets_ = 0;
};

} // namespace morrigan

#endif // MORRIGAN_CORE_FREQUENCY_STACK_HH
