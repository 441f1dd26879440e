/**
 * @file
 * STLB prefetch buffer (PB).
 *
 * Prefetched PTEs are staged in a small fully associative buffer
 * instead of the STLB itself so that inaccurate prefetches cannot
 * pollute the STLB (Section 2.1; Figure 18's P2TLB experiment shows
 * the 18.9% degradation when this buffer is bypassed). On an STLB
 * miss the PB is probed; a hit moves the translation into the STLB
 * and cancels the demand page walk.
 *
 * Each entry carries (i) the cycle its prefetch walk completes, so a
 * demand access arriving before the fill is timely-miss accounted,
 * and (ii) a producer tag identifying which prefetch engine and which
 * prediction slot created it, so IRIP can credit the right confidence
 * counter on a hit.
 */

#ifndef MORRIGAN_TLB_PREFETCH_BUFFER_HH
#define MORRIGAN_TLB_PREFETCH_BUFFER_HH

#include <cstdint>

#include "common/assoc_table.hh"
#include "common/fields.hh"
#include "common/types.hh"

namespace morrigan
{

/** Which engine created a prefetch (for credit + stats). */
enum class PrefetchProducer : std::uint8_t
{
    Irip,       //!< IRIP prediction-table hit
    IripSpatial,//!< free cache-line-adjacent PTE via IRIP
    Sdp,        //!< small delta prefetcher
    SdpSpatial, //!< free cache-line-adjacent PTE via SDP
    ICache,     //!< I-cache prefetcher crossing a page boundary
    Other,
};

/** Identifies the prediction slot that generated a prefetch. */
struct PrefetchTag
{
    /** Sentinel for @ref table when no PRT table is involved. */
    static constexpr std::uint8_t noTable = 0xff;

    PrefetchProducer producer = PrefetchProducer::Other;
    /** IRIP PRT table index that produced the prediction (per-table
     * attribution for the lifecycle tracer); noTable otherwise. */
    std::uint8_t table = noTable;
    /** Page whose PRT entry produced the prediction. */
    Vpn sourcePage = 0;
    /** Predicted distance stored in that slot. */
    PageDelta distance = 0;
};

/** One buffered prefetched translation. */
struct PbEntry
{
    Pfn pfn = 0;
    Cycle readyAt = 0;  //!< prefetch walk completion cycle
    PrefetchTag tag{};
    bool usedOnce = false;
    /** Miss-sequence number at insert (use-distance accounting). */
    std::uint64_t insertSeq = 0;
    /** Lifecycle-tracer id; 0 when the prefetch was not traced. */
    std::uint64_t traceId = 0;
};

/**
 * Observer of PB entry lifecycle events, implemented by the prefetch
 * tracer. The buffer holds a single nullable observer pointer; with
 * no observer attached every hook is one predictable branch.
 */
class PbObserver
{
  public:
    enum class Event : std::uint8_t
    {
        Installed,       //!< prefetched PTE entered the buffer
        HitReady,        //!< demand hit, walk already complete
        HitPending,      //!< demand hit on an in-flight prefetch
        EvictedUnused,   //!< capacity eviction before any hit
        DuplicateInsert, //!< insert dropped, VPN already buffered
        RejectedNoSlot,  //!< opportunistic insert found no free way
        Flushed,         //!< discarded by a flush (context switch)
    };

    virtual ~PbObserver() = default;

    /** @p now is meaningful for hit events; 0 otherwise. */
    virtual void pbEvent(Event ev, const PbEntry &entry, Cycle now) = 0;
};

/** Result of a PB lookup. */
struct PbLookupResult
{
    bool hit = false;
    /** Hit on an entry whose walk has not completed yet; the demand
     * access must wait until readyAt instead of re-walking. */
    bool pending = false;
    PbEntry entry{};
};

/** The prefetch buffer. */
class PrefetchBuffer
{
  public:
    /** Counters (common/fields.hh); the visit names are the --stats
     * names. Demand lookups are hits + misses. */
    struct Stats
    {
        /** demand hits (walk avoided) */
        std::uint64_t hits = 0;
        /** demand misses (walk required) */
        std::uint64_t misses = 0;
        /** hits on in-flight prefetches */
        std::uint64_t pendingHits = 0;
        /** prefetched PTEs installed */
        std::uint64_t inserts = 0;
        /** inserts dropped as duplicates */
        std::uint64_t duplicateInserts = 0;
        /** entries evicted without providing a hit */
        std::uint64_t uselessEvictions = 0;

        template <RecordOf<Stats> Self, class V>
        friend constexpr void visitFields(Self &s, V &&v)
        {
            v("hits", s.hits);
            v("misses", s.misses);
            v("pending_hits", s.pendingHits);
            v("inserts", s.inserts);
            v("duplicate_inserts", s.duplicateInserts);
            v("useless_evictions", s.uselessEvictions);
        }
    };

    /**
     * @param entries Capacity (Table 1: 64, fully associative).
     * @param latency Access latency in cycles (Table 1: 2).
     */
    explicit PrefetchBuffer(std::uint32_t entries = 64,
                            Cycle latency = 2);

    /**
     * Demand lookup on an STLB miss. A hit consumes the entry (the
     * translation moves to the STLB, as in Figure 1).
     */
    PbLookupResult lookupAndConsume(Vpn vpn, Cycle now);

    /** Whether a translation is already buffered (duplicate check
     * before issuing a prefetch; Section 2.1 note (iii)). */
    bool contains(Vpn vpn) const;

    /** Probe without consuming (used by I-cache prefetch
     * translation checks; the entry stays for the demand miss). */
    const PbEntry *peek(Vpn vpn) const;

    /**
     * Install a prefetched translation.
     *
     * @param evicted_unused Receives the VPN of an entry evicted
     * without ever providing a hit (the candidate for a correcting
     * page walk, Section 4.3); untouched otherwise.
     * @return true when an unused entry was evicted.
     */
    bool insert(Vpn vpn, const PbEntry &entry,
                Vpn *evicted_unused = nullptr);

    /**
     * Opportunistic install for "free" cache-line-adjacent PTEs:
     * only fills an empty slot, never evicting a demanded prefetch.
     */
    void insertOpportunistic(Vpn vpn, const PbEntry &entry);

    /** Remove everything (context switch). */
    void flush();

    /** Attach (or detach with nullptr) the lifecycle observer. */
    void setObserver(PbObserver *obs) { obs_ = obs; }

    /** Serialize buffered entries (the observer pointer is runtime
     * wiring and is not saved). */
    void save(SnapshotWriter &w) const { transfer(*this, w); }
    void restore(SnapshotReader &r) { transfer(*this, r); }

    /** Apply @p fn to every resident entry (tracer finalisation). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        table_.forEach([&](Vpn vpn, const PbEntry &e) { fn(vpn, e); });
    }

    Cycle latency() const { return latency_; }
    std::uint32_t capacity() const { return table_.capacity(); }
    std::uint32_t population() const { return table_.population(); }

    const Stats &stats() const { return stats_; }
    Stats &stats() { return stats_; }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("pb");
        ar.io(self.table_, [](auto &a, auto &e) {
            a.io(e.pfn);
            a.io(e.readyAt);
            a.io(e.tag.producer);
            a.io(e.tag.table);
            a.io(e.tag.sourcePage);
            a.io(e.tag.distance);
            a.io(e.usedOnce);
            a.io(e.insertSeq);
            a.io(e.traceId);
        });
    }

    SetAssocTable<Vpn, PbEntry> table_;
    Cycle latency_;
    PbObserver *obs_ = nullptr;
    Stats stats_;
};
static_assert(visitsEveryField<PrefetchBuffer::Stats>());

} // namespace morrigan

#endif // MORRIGAN_TLB_PREFETCH_BUFFER_HH
