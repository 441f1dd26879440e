/**
 * @file
 * IRIP prediction table (PRT).
 *
 * A set-associative buffer whose entries hold a 16-bit partial tag of
 * the missing virtual page, s prediction slots (15-bit signed
 * distances to the pages that followed this page in the iSTLB miss
 * stream), and a 2-bit confidence counter per slot (Section 4.1.1,
 * Figure 11). Four geometries instantiate PRT-S1/S2/S4/S8.
 *
 * Victim selection is pluggable so Figure 14's replacement study can
 * be reproduced: LRU, Random, LFU, and the paper's RLFU, which picks
 * a victim at random among the least-frequently-missing entries of
 * the set -- the randomness acts as a second chance for recently
 * installed entries that have not yet accumulated misses.
 *
 * Hot-path layout: entries live in one flat set-major array whose
 * prediction slots are inline fixed-capacity storage (no per-entry
 * heap vector). The partial tags and the recency words sit in
 * separate contiguous lanes that the shared kernel
 * (common/set_kernel.hh) scans: a lookup is its recency-masked scan
 * (a recency word of 0 marks an invalid way), and every policy first
 * takes its victim choice, which returns an invalid way when the set
 * has one and otherwise the LRU way -- the Lru policy's answer.
 * Random, LFU and RLFU only run on a full set. The PrtEntry view
 * handed to callers holds the rest (vpn, slots).
 */

#ifndef MORRIGAN_CORE_PREDICTION_TABLE_HH
#define MORRIGAN_CORE_PREDICTION_TABLE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "core/frequency_stack.hh"

namespace morrigan
{

/** Victim-selection policy for the prediction tables. */
enum class ReplacementPolicy : std::uint8_t
{
    Lru,
    Random,
    Lfu,
    Rlfu,
};

const char *replacementPolicyName(ReplacementPolicy p);

/** One prediction slot: a distance plus its confidence. */
struct PrtSlot
{
    PageDelta distance = 0;
    std::uint8_t confidence = 0;  //!< 2-bit saturating
    bool valid = false;
};

/**
 * Inline fixed-capacity slot list. The IRIP ensemble tops out at
 * PRT-S8 (ascending slot counts, enforced in Irip), so eight slots
 * inline covers every geometry and every transfer without a heap
 * allocation per entry.
 */
class PrtSlotList
{
  public:
    static constexpr std::size_t maxSlots = 8;

    PrtSlot *begin() { return data_.data(); }
    PrtSlot *end() { return data_.data() + size_; }
    const PrtSlot *begin() const { return data_.data(); }
    const PrtSlot *end() const { return data_.data() + size_; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    PrtSlot &operator[](std::size_t i) { return data_[i]; }
    const PrtSlot &operator[](std::size_t i) const { return data_[i]; }

    void
    push_back(const PrtSlot &s)
    {
        fatal_if(size_ >= maxSlots, "prt slot list overflow");
        data_[size_++] = s;
    }

    /** Grow (zero-filled) or shrink to exactly @p n slots. */
    void
    resize(std::size_t n)
    {
        fatal_if(n > maxSlots, "prt slot list resize beyond capacity");
        for (std::size_t i = size_; i < n; ++i)
            data_[i] = PrtSlot{};
        for (std::size_t i = n; i < size_; ++i)
            data_[i] = PrtSlot{};
        size_ = static_cast<std::uint8_t>(n);
    }

    void clear() { resize(0); }

  private:
    std::array<PrtSlot, maxSlots> data_{};
    std::uint8_t size_ = 0;
};

/** Geometry of one prediction table. */
struct PrtGeometry
{
    std::string name = "prt";
    std::uint32_t entries = 128;
    std::uint32_t ways = 32;
    std::uint32_t slots = 1;
};

/** The payload of a prediction-table entry (exposed for tests and
 * inspection); its tag and recency live in the table's lanes. */
struct PrtEntry
{
    /** Full VPN kept as model bookkeeping: the frequency stack is
     * indexed by page. Hardware would pair the stack with the same
     * partial tags. */
    Vpn vpn = 0;
    PrtSlotList slots;
};

/** One table of the IRIP ensemble. */
class PredictionTable
{
  public:
    /**
     * @param geom Table geometry.
     * @param policy Victim selection policy.
     * @param freq Shared frequency stack (LFU/RLFU).
     * @param rng Shared deterministic RNG (Random/RLFU).
     */
    PredictionTable(const PrtGeometry &geom, ReplacementPolicy policy,
                    FrequencyStack &freq, Rng &rng);

    /** Tag-match lookup (updates recency). @return entry or null. */
    PrtEntry *lookup(Vpn vpn);

    /** Tag-match probe without recency update. */
    PrtEntry *probe(Vpn vpn);
    const PrtEntry *probe(Vpn vpn) const;

    /**
     * Install an entry for @p vpn carrying @p slots (empty for a
     * fresh install, populated for a transfer from a smaller table).
     * Excess slots beyond the geometry are dropped, which cannot
     * happen in correct transfers.
     *
     * @param evicted_vpn Receives the victim's VPN when one is
     * evicted.
     * @return true if a valid entry was evicted.
     */
    bool install(Vpn vpn, PrtSlotList slots,
                 Vpn *evicted_vpn = nullptr);

    /** Remove the entry for @p vpn. @return true if present. */
    bool erase(Vpn vpn);

    /** Remove everything (context switch). */
    void flush();

    /**
     * Add a distance to an existing entry.
     *
     * @retval true The distance was stored (or already present).
     * @retval false The entry is absent or all slots are occupied by
     * other distances; the caller escalates (transfer or min-conf
     * slot replacement).
     */
    bool addDistance(Vpn vpn, PageDelta dist);

    /**
     * Overwrite the lowest-confidence slot with @p dist, resetting
     * its confidence (terminal-table behaviour, Figure 12 step 25).
     */
    bool replaceMinConfidenceSlot(Vpn vpn, PageDelta dist);

    /** Bump the confidence of the slot holding @p dist (PB hit). */
    bool creditSlot(Vpn vpn, PageDelta dist);

    const PrtGeometry &geometry() const { return geom_; }
    std::uint32_t population() const { return population_; }

    /** Hardware bits: entries * (tag + slots * (distance + conf)). */
    std::size_t storageBits() const;

    /** Serialize entries + LRU clock (the shared frequency stack and
     * RNG are saved by their owner, not here). */
    void save(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);

    /** Apply @p fn to every valid entry (tests / invariants). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < entries_.size(); ++i)
            if (rec_[i] != 0)
                fn(entries_[i]);
    }

    static constexpr unsigned tagBits = 16;
    static constexpr unsigned distanceBits = 15;
    static constexpr unsigned confidenceBits = 2;
    static constexpr std::uint8_t confidenceMax =
        (1u << confidenceBits) - 1;
    /** Largest representable |distance| with 15 signed bits. */
    static constexpr PageDelta maxDistance =
        (PageDelta{1} << (distanceBits - 1)) - 1;

  private:
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);
    std::uint32_t baseOf(Vpn vpn) const;
    std::uint16_t tagOf(Vpn vpn) const;
    /** Kernel scan of the set at @p base. @return flat index or
     * UINT32_MAX. */
    std::uint32_t findIdx(std::uint32_t base, std::uint16_t tag) const;
    std::uint32_t selectVictim(std::uint32_t base);

    PrtGeometry geom_;
    ReplacementPolicy policy_;
    FrequencyStack &freq_;
    Rng &rng_;
    std::uint32_t numSets_;
    unsigned setShift_;
    /** Flat set-major entry storage. */
    std::vector<PrtEntry> entries_;
    /** Partial tags, indexed like entries_. */
    std::vector<std::uint16_t> tags_;
    /** Recency words: 0 for an invalid way, else its last use. */
    std::vector<std::uint64_t> rec_;
    /** Per-way victim-selection scratch (gathered freqs, sort order),
     * sized once so selectVictim never allocates. */
    std::vector<std::uint32_t> freqScratch_;
    std::vector<std::uint32_t> orderScratch_;
    std::uint64_t useClock_ = 0;
    std::uint32_t population_ = 0;
};

} // namespace morrigan

#endif // MORRIGAN_CORE_PREDICTION_TABLE_HH
