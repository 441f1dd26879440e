/**
 * @file
 * Generic set-associative lookup table with true-LRU replacement.
 *
 * Shared by the TLBs, the prefetch buffer, the page structure caches
 * and the prefetcher tables. The key is hashed to a set by its
 * low-order bits, matching hardware index functions for page-grained
 * keys.
 *
 * Storage is struct-of-arrays: contiguous key / recency / payload
 * lanes indexed by (set * ways + way), scanned by the shared kernel
 * (common/set_kernel.hh). Validity lives in the recency lane: 0
 * marks an invalid way. Keys have no spare sentinel value (DP keys
 * its table by PageDelta, where -1 is live), so every probe uses the
 * kernel's recency-masked scan, and a fill takes the kernel's
 * first-invalid-else-LRU victim. Semantics (way scan order, victim
 * choice, LRU updates, snapshot byte order) are identical to the
 * original array-of-structs layout; the differential tests in
 * tests/test_hotpath_diff.cc drive both layouts through identical op
 * sequences to prove it.
 */

#ifndef MORRIGAN_COMMON_ASSOC_TABLE_HH
#define MORRIGAN_COMMON_ASSOC_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "logging.hh"
#include "set_kernel.hh"
#include "snapshot.hh"

namespace morrigan
{

/**
 * A set-associative table mapping KeyT to ValueT.
 *
 * @tparam KeyT Integral key (a Vpn; DP's signed PageDelta).
 * @tparam ValueT Arbitrary copyable payload.
 */
template <typename KeyT, typename ValueT>
class SetAssocTable
{
  public:
    /**
     * @param entries Total entry capacity.
     * @param ways Associativity; entries/ways must be a power of two
     * (use ways == entries for a fully associative table).
     */
    SetAssocTable(std::uint32_t entries, std::uint32_t ways)
        : ways_(ways)
    {
        fatal_if(ways == 0 || entries == 0 || entries % ways != 0,
                 "bad table geometry: %u entries, %u ways",
                 entries, ways);
        numSets_ = entries / ways;
        fatal_if((numSets_ & (numSets_ - 1)) != 0,
                 "set count %u is not a power of two", numSets_);
        setMask_ = numSets_ - 1;
        keys_.assign(entries, KeyT{});
        values_.assign(entries, ValueT{});
        rec_.assign(entries, 0);
    }

    /** Look up a key, updating LRU. @return payload or nullptr. */
    ValueT *
    find(KeyT key)
    {
        const std::uint32_t i = indexOf(key);
        if (i == noIndex)
            return nullptr;
        rec_[i] = ++useClock_;
        return &values_[i];
    }

    /** Look up without touching LRU state. */
    const ValueT *
    probe(KeyT key) const
    {
        const std::uint32_t i = indexOf(key);
        return i == noIndex ? nullptr : &values_[i];
    }

    /** Mutable probe without touching LRU state. */
    ValueT *
    probe(KeyT key)
    {
        const std::uint32_t i = indexOf(key);
        return i == noIndex ? nullptr : &values_[i];
    }

    /**
     * Insert (or overwrite) a key, evicting the set's LRU entry when
     * full.
     *
     * @param key Key to install.
     * @param value Payload.
     * @param evicted_key Set to the victim's key if one was evicted.
     * @param evicted_value Set to the victim's payload if evicted.
     * @return true if a valid entry was evicted.
     */
    bool
    insert(KeyT key, ValueT value, KeyT *evicted_key = nullptr,
           ValueT *evicted_value = nullptr)
    {
        const std::uint32_t hit = indexOf(key);
        if (hit != noIndex) {
            values_[hit] = std::move(value);
            rec_[hit] = ++useClock_;
            return false;
        }
        const std::uint32_t victim = victimOf(key);
        const bool evicted = rec_[victim] != 0;
        if (evicted && evicted_key)
            *evicted_key = keys_[victim];
        if (evicted && evicted_value)
            *evicted_value = values_[victim];
        keys_[victim] = key;
        values_[victim] = std::move(value);
        rec_[victim] = ++useClock_;
        if (!evicted)
            ++population_;
        return evicted;
    }

    /**
     * Insert only if the key is present or a free way is available in
     * its set; never evicts. @return true if the value was installed.
     */
    bool
    insertNoEvict(KeyT key, ValueT value)
    {
        if (indexOf(key) == noIndex && rec_[victimOf(key)] != 0)
            return false;
        insert(key, std::move(value));
        return true;
    }

    /** Remove a key. @return true if it was present. */
    bool
    erase(KeyT key)
    {
        const std::uint32_t i = indexOf(key);
        if (i == noIndex)
            return false;
        rec_[i] = 0;
        --population_;
        return true;
    }

    /** Remove every entry. */
    void
    flush()
    {
        std::fill(rec_.begin(), rec_.end(), std::uint64_t{0});
        population_ = 0;
    }

    /** Apply @p fn to every valid (key, value) pair. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::uint32_t n = numSets_ * ways_;
        for (std::uint32_t i = 0; i < n; ++i)
            if (rec_[i] != 0)
                fn(keys_[i], values_[i]);
    }

    std::uint32_t capacity() const { return numSets_ * ways_; }
    std::uint32_t ways() const { return ways_; }
    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t population() const { return population_; }

    /**
     * Save or restore the table in storage order (set-major,
     * way-minor): geometry, LRU clock, and for each way its valid
     * flag plus -- when valid -- key, lastUse and the payload via
     * @p value_io, a callable (Ar &, ValueT &) with Ar a
     * SnapshotWriter or SnapshotReader. Invalid ways carry no
     * payload; restore() resets them, which is behaviorally
     * identical (their contents are never read).
     *
     * @throws SnapshotError on restore of another geometry or of a
     * valid way whose recency set_kernel::validRecency() rejects.
     */
    template <typename ValueIo>
    void
    save(SnapshotWriter &w, ValueIo &&value_io) const
    {
        transfer(*this, w, value_io);
    }

    template <typename ValueIo>
    void
    restore(SnapshotReader &r, ValueIo &&value_io)
    {
        transfer(*this, r, value_io);
    }

  private:
    static constexpr std::uint32_t noIndex = ~std::uint32_t{0};

    template <class Self, class Ar, class ValueIo>
    static void
    transfer(Self &t, Ar &ar, ValueIo &value_io)
    {
        ar.section("assoc_table");
        ar.expect(t.ways_, "assoc table ways");
        ar.expect(t.numSets_, "assoc table sets");
        ar.io(t.useClock_);
        if constexpr (Ar::loading)
            t.population_ = 0;
        const std::uint32_t n = t.numSets_ * t.ways_;
        for (std::uint32_t i = 0; i < n; ++i) {
            bool valid = t.rec_[i] != 0;
            ar.io(valid);
            if (!valid) {
                if constexpr (Ar::loading) {
                    t.keys_[i] = KeyT{};
                    t.values_[i] = ValueT{};
                    t.rec_[i] = 0;
                }
                continue;
            }
            ioAs<std::uint64_t>(ar, t.keys_[i]);
            ar.io(t.rec_[i]);
            if constexpr (Ar::loading) {
                if (!set_kernel::validRecency(t.rec_[i]))
                    throw SnapshotError(
                        "assoc table: valid way with recency " +
                        std::to_string(t.rec_[i]));
                ++t.population_;
            }
            value_io(ar, t.values_[i]);
        }
    }

    std::uint32_t
    baseOf(KeyT key) const
    {
        return (static_cast<std::uint32_t>(key) & setMask_) * ways_;
    }

    /** Lane index of the valid way holding @p key, or noIndex. */
    std::uint32_t
    indexOf(KeyT key) const
    {
        const std::uint32_t base = baseOf(key);
        const int w = set_kernel::findKey(keys_.data() + base,
                                          rec_.data() + base, ways_, key);
        return w < 0 ? noIndex : base + static_cast<std::uint32_t>(w);
    }

    /** Lane index of the way a fill of @p key takes. */
    std::uint32_t
    victimOf(KeyT key) const
    {
        const std::uint32_t base = baseOf(key);
        return base + set_kernel::victimWay(rec_.data() + base, ways_);
    }

    std::uint32_t ways_;
    std::uint32_t numSets_;
    std::uint32_t setMask_;
    std::vector<KeyT> keys_;
    std::vector<ValueT> values_;
    /** Recency words: 0 for an invalid way, else its last use. */
    std::vector<std::uint64_t> rec_;
    std::uint64_t useClock_ = 0;
    std::uint32_t population_ = 0;
};

} // namespace morrigan

#endif // MORRIGAN_COMMON_ASSOC_TABLE_HH
