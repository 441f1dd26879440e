/**
 * @file
 * x86-64 style 4-level radix page table.
 *
 * The table is modelled structurally: each node occupies a physical
 * frame, and each entry within a node has a real physical byte
 * address (frame base + index * 8). That gives the walker concrete
 * addresses to push through the cache hierarchy, and it makes the
 * "page table locality" property emerge naturally: the leaf PTEs of
 * 8 virtually contiguous pages share one 64-byte cache line.
 *
 * Storage: radix nodes live in an index-linked arena of small
 * headers. A node holds only the 512-slot arrays its level uses, each
 * allocated on first use -- child links on interior nodes, 4KB leaf
 * frames on PT-level nodes, 2MB leaf frames on a PD node that maps a
 * large page -- so a descend step is an array index and growing the
 * arena never copies a payload. The tree is the only copy of the
 * mappings: walk() descends it computing per-level entry addresses
 * for the walker, translate() descends it for callers that only need
 * the frame (I-cache prefetch translation), and lineNeighbors() reads
 * a PTE line's frames in one descent (spatial fills).
 * The hashed format keeps its leaves in a flat VPN -> PFN map, and
 * its bucket occupancy in a second flat map holding only the buckets
 * in use.
 */

#ifndef MORRIGAN_VM_PAGE_TABLE_HH
#define MORRIGAN_VM_PAGE_TABLE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"
#include "vm/phys_mem.hh"

namespace morrigan
{

/** Page table organisation (Section 4.3). */
enum class PageTableFormat : std::uint8_t
{
    /** x86-64 multi-level radix tree (default). */
    Radix,
    /**
     * Hashed page table with clustered buckets (Yaniv & Tsafrir
     * style): each 64-byte bucket holds the PTEs of one aligned
     * 8-page group, so page table locality -- the property IRIP and
     * SDP exploit for free spatial prefetches -- is preserved, and a
     * walk needs one memory reference per probed bucket.
     */
    Hashed,
};

/** Addresses touched by a full root-to-leaf traversal. */
struct WalkPath
{
    /**
     * Physical byte address of the page table entry read at each
     * level; index 0 is the root entry, index levels-1 the leaf PTE.
     */
    std::array<Addr, maxPageTableLevels> entryAddr{};

    /** Number of radix levels in the traversal (4 or 5). */
    unsigned levels = pageTableLevels;

    /** Translation result. */
    Pfn pfn = 0;

    /** Whether the VPN was mapped at the time of the walk. */
    bool mapped = false;

    /** The mapping is a 2MB large page (leaf at the PD level). */
    bool large = false;
};

/** Result of translate(): the frame, without entry addresses. */
struct TranslateResult
{
    Pfn pfn = 0;
    bool mapped = false;
    bool large = false;
};

/** One mapped 4KB leaf PTE in a page-table cache line. */
struct LinePte
{
    Vpn vpn = 0;
    Pfn pfn = 0;
};

/**
 * Observer of mapping creation, implemented by the differential
 * checker (check/checker.hh): every mapping the OS model creates is
 * mirrored into the golden reference translator at the moment it
 * comes into existence, so the reference never has to reverse-
 * engineer table state.
 */
class PageTableObserver
{
  public:
    virtual ~PageTableObserver() = default;

    /** A 4KB mapping vpn -> pfn was created. */
    virtual void onMap4K(Vpn vpn, Pfn pfn) = 0;

    /** A 2MB mapping was created; @p base_vpn is 512-page aligned
     * and the group occupies frames [base_pfn, base_pfn + 512). */
    virtual void onMap2M(Vpn base_vpn, Pfn base_pfn) = 0;
};

/**
 * The OS-managed page table for one address space.
 *
 * Mappings are created either up front (mapRange -- the loaded binary
 * image / pre-touched heap) or on first demand access (allocate-on-
 * fault). Prefetch walks never create mappings: prefetches are
 * speculative, so only non-faulting prefetches are permitted
 * (Section 2.1).
 */
class PageTable
{
  public:
    /** Occupancy (common/fields.hh); the visit names are the --stats
     * names. Table state, not event counts: saved with the table and
     * kept across the warmup boundary. */
    struct Stats
    {
        /** 4KB pages mapped */
        std::uint64_t mappedPages = 0;
        /** physical frames used by table nodes: one per radix node,
         * plus the hashed format's bucket array */
        std::uint64_t tableFrames = 0;

        template <RecordOf<Stats> Self, class V>
        friend constexpr void visitFields(Self &s, V &&v)
        {
            v("mapped_pages", s.mappedPages);
            v("table_frames", s.tableFrames);
        }
    };

    /**
     * @param phys Frame allocator.
     * @param levels Radix depth: 4 (default x86-64) or 5 (LA57,
     * Section 4.3 -- the extra level lengthens cold walks, which the
     * paper notes can increase Morrigan's gains).
     */
    explicit PageTable(PhysMem &phys, unsigned levels = pageTableLevels,
                       PageTableFormat format = PageTableFormat::Radix);

    /** Radix depth of this table. */
    unsigned levels() const { return levels_; }

    /** Table organisation. */
    PageTableFormat format() const { return format_; }

    /** Pre-map a contiguous range of virtual pages. */
    void mapRange(Vpn start, std::uint64_t count);

    /** Map one page if not already mapped. @return true if new. */
    bool mapPage(Vpn vpn);

    /**
     * Map the 2MB large page containing @p vpn (leaf entry at the PD
     * level, Section 4.3's multiple-page-size support). The region
     * must not already contain 4KB mappings. Radix format only.
     * @return true if newly mapped.
     */
    bool mapLargePage(Vpn vpn);

    /** Pre-map a range with 2MB pages (THP-style data mapping). */
    void mapLargeRange(Vpn start, std::uint64_t count_4k);

    /** Whether a translation exists. */
    bool isMapped(Vpn vpn) const;

    /**
     * Translation without entry addresses: walk(vpn, false)'s
     * {mapped, pfn, large}, with a 4KB mapping taking precedence over
     * a 2MB one. Use wherever the caller only needs the frame; the
     * walker must keep using walk(). Defined inline (below the class)
     * -- it runs on TLB fill paths several times per miss.
     */
    TranslateResult translate(Vpn vpn) const;

    /**
     * Traverse root to leaf.
     *
     * @param vpn Page to translate.
     * @param allocate Allocate a mapping if absent (demand fault
     * semantics); with allocate == false an unmapped page yields
     * path.mapped == false and only the entry addresses of the levels
     * that exist are meaningful.
     */
    WalkPath walk(Vpn vpn, bool allocate);

    /**
     * The 4KB leaf PTEs that share the 64-byte cache line with @p
     * vpn's leaf PTE (including @p vpn's own), in VPN order: each
     * mapped page with the frame translate() would return, read in
     * the one descent. This is the source of the "free" spatial
     * prefetches IRIP and SDP exploit.
     */
    std::array<LinePte, ptesPerLine> lineNeighbors(Vpn vpn,
                                                   unsigned *count) const;

    const Stats &stats() const { return stats_; }

    /**
     * Attach a mapping observer (at most one; the differential
     * checker). Mappings created before attachment are not replayed,
     * so attach before the workload premaps.
     */
    void setObserver(PageTableObserver *obs) { observer_ = obs; }

    /** Serialize the whole table and its occupancy: the radix tree
     * with node leaf/child sets in ascending index order, or the
     * hashed format's occupied buckets, each with its group's
     * leaves, in ascending bucket order. */
    void save(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);

  private:
    /** Absent child / arena link. */
    static constexpr std::int32_t noNode = -1;
    /** Absent leaf; real frames lie below PhysMem::totalFrames(). */
    static constexpr Pfn noFrame = ~Pfn{0};

    /**
     * One radix node: a frame and up to three 512-slot arrays, each
     * null until its first entry is set. Children are arena indices,
     * so the arena vector may reallocate freely; the arrays live in
     * SlotArrays blocks and stay put.
     */
    struct Node
    {
        Pfn frame = 0;
        /** Child links (interior nodes). */
        std::int32_t *child = nullptr;
        /** 4KB leaf frames (PT-level nodes). */
        Pfn *leaf = nullptr;
        /** 2MB leaf base frames (PD nodes with a large mapping). */
        Pfn *largeLeaf = nullptr;

        std::int32_t childAt(std::uint32_t i) const
        {
            return child ? child[i] : noNode;
        }
        Pfn leafAt(std::uint32_t i) const
        {
            return leaf ? leaf[i] : noFrame;
        }
        Pfn largeLeafAt(std::uint32_t i) const
        {
            return largeLeaf ? largeLeaf[i] : noFrame;
        }
    };

    /**
     * The 512-slot arrays of one element type, carved from blocks
     * that double in size (64 arrays, then 128, ... up to 4096): a
     * table makes a handful of allocations, and an array never moves
     * once handed out. Slots not yet handed out are never written, so
     * a fresh block costs address space, not resident memory.
     */
    template <class T, T empty>
    class SlotArrays
    {
      public:
        /** Slot @p i of @p slots, handing out the array (every slot
         * empty) on first use. */
        T &
        at(T *&slots, std::uint32_t i)
        {
            if (!slots) {
                if (left_ == 0) {
                    left_ = std::size_t{64}
                            << std::min<std::size_t>(blocks_.size(), 6);
                    blocks_.emplace_back(new T[left_ * radixFanout]);
                    next_ = blocks_.back().get();
                }
                slots = next_;
                next_ += radixFanout;
                --left_;
                std::fill_n(slots, radixFanout, empty);
            }
            return slots[i];
        }

        /** Drop every array (restore rebuilds the tree). */
        void
        clear()
        {
            blocks_.clear();
            left_ = 0;
        }

      private:
        std::vector<std::unique_ptr<T[]>> blocks_;
        T *next_ = nullptr;
        /** Arrays still free in the last block. */
        std::size_t left_ = 0;
    };

    /**
     * Flat open-addressing map of 64-bit keys (VPN -> PFN, bucket ->
     * group; power-of-two capacity, multiplicative hash, linear
     * probing). ~0 keys mark free slots; real VPNs and bucket indices
     * lie far below that.
     */
    class FlatMap
    {
      public:
        FlatMap() { clear(64); }

        const Pfn *
        find(Vpn vpn) const
        {
            std::size_t i = slotOf(vpn);
            for (;;) {
                if (keys_[i] == vpn)
                    return &vals_[i];
                if (keys_[i] == freeKey)
                    return nullptr;
                i = (i + 1) & (keys_.size() - 1);
            }
        }

        void
        insert(Vpn vpn, Pfn pfn)
        {
            if ((size_ + 1) * 2 > keys_.size())
                grow();
            std::size_t i = slotOf(vpn);
            while (keys_[i] != freeKey && keys_[i] != vpn)
                i = (i + 1) & (keys_.size() - 1);
            if (keys_[i] == freeKey)
                ++size_;
            keys_[i] = vpn;
            vals_[i] = pfn;
        }

        void
        clear(std::size_t capacity)
        {
            keys_.assign(capacity, freeKey);
            vals_.assign(capacity, 0);
            size_ = 0;
        }

        /** Every (key, value) pair, in ascending key order. */
        std::vector<std::pair<Vpn, Pfn>>
        sorted() const
        {
            std::vector<std::pair<Vpn, Pfn>> pairs;
            pairs.reserve(size_);
            for (std::size_t i = 0; i < keys_.size(); ++i)
                if (keys_[i] != freeKey)
                    pairs.emplace_back(keys_[i], vals_[i]);
            std::sort(pairs.begin(), pairs.end());
            return pairs;
        }

      private:
        static constexpr Vpn freeKey = ~Vpn{0};

        std::size_t
        slotOf(Vpn vpn) const
        {
            return static_cast<std::size_t>(
                       vpn * 0x9e3779b97f4a7c15ULL) &
                   (keys_.size() - 1);
        }

        void
        grow()
        {
            std::vector<Vpn> old_keys = std::move(keys_);
            std::vector<Pfn> old_vals = std::move(vals_);
            keys_.assign(old_keys.size() * 2, freeKey);
            vals_.assign(old_keys.size() * 2, 0);
            size_ = 0;
            for (std::size_t i = 0; i < old_keys.size(); ++i) {
                if (old_keys[i] == freeKey)
                    continue;
                std::size_t j = slotOf(old_keys[i]);
                while (keys_[j] != freeKey)
                    j = (j + 1) & (keys_.size() - 1);
                keys_[j] = old_keys[i];
                vals_[j] = old_vals[i];
                ++size_;
            }
        }

        std::vector<Vpn> keys_;
        std::vector<Pfn> vals_;
        std::size_t size_ = 0;
    };

    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);
    std::int32_t newNode();
    /** Set stats_.tableFrames from the arena and the format. */
    void countTableFrames();
    /** Child at @p idx of arena node @p ni, creating it if needed. */
    std::int32_t ensureChild(std::int32_t ni, std::uint32_t idx);
    const Node *findLeafNode(Vpn vpn) const;
    /** Save node @p n and its subtree. The radix tree keeps a
     * save/restore pair: writing walks the live tree and reading
     * grows a new one, so the two sides share no lines. */
    void saveNode(SnapshotWriter &w, const Node &n) const;
    /** Rebuild arena node @p ni, @p depth levels below the root, and
     * its subtree; a child below the last level throws. */
    void restoreNode(SnapshotReader &r, std::int32_t ni, unsigned depth);
    WalkPath walkHashed(Vpn vpn, bool allocate);
    /** Bucket index for a group, probing linearly from its hash;
     * returns hashBuckets if absent and allocate is false. */
    std::uint64_t findBucket(Vpn group, bool allocate,
                             unsigned *probes);

    PhysMem &phys_;
    unsigned levels_;
    PageTableFormat format_;
    PageTableObserver *observer_ = nullptr;
    /** Node arena; index 0 is the root. */
    std::vector<Node> arena_;
    /** Child-link arrays of the arena's nodes. */
    SlotArrays<std::int32_t, noNode> childArrays_;
    /** Leaf and large-leaf frame arrays of the arena's nodes. */
    SlotArrays<Pfn, noFrame> frameArrays_;

    // --- hashed-format state ---
    /**
     * Modelled buckets: one 64-byte bucket per aligned 8-page group,
     * sized generously (2^20 buckets = 8M pages coverage) and backed
     * by contiguous physical frames.
     */
    static constexpr std::uint64_t hashBuckets = std::uint64_t{1} << 20;
    /** Frames the bucket array occupies. */
    static constexpr std::uint64_t hashFrames =
        hashBuckets * lineBytes / pageBytes;
    /** 4KB translations: the hashed format's leaf store. */
    FlatMap hashLeaves_;
    /** Occupied buckets: bucket index -> group key. A bucket absent
     * here is free, so untouched buckets cost no host memory. */
    FlatMap buckets_;
    /** Base physical frame of the hashed table array. */
    Pfn hashBase_ = 0;
    Stats stats_;
};
static_assert(visitsEveryField<PageTable::Stats>());

inline TranslateResult
PageTable::translate(Vpn vpn) const
{
    TranslateResult res;
    if (format_ == PageTableFormat::Hashed) {
        if (const Pfn *pfn = hashLeaves_.find(vpn)) {
            res.pfn = *pfn;
            res.mapped = true;
        }
        return res;
    }
    // Descend to the PT node, noting the PD node on the way: its
    // large leaf answers only when no 4KB leaf does.
    const Node *n = &arena_[0];
    const Node *pd = nullptr;
    for (unsigned level = levels_ - 1; n && level > 0; --level) {
        if (level == 1)
            pd = n;
        std::int32_t c =
            n->childAt(static_cast<std::uint32_t>(radixIndex(vpn, level)));
        n = c == noNode ? nullptr : &arena_[c];
    }
    if (n) {
        Pfn pfn = n->leafAt(static_cast<std::uint32_t>(radixIndex(vpn, 0)));
        if (pfn != noFrame) {
            res.pfn = pfn;
            res.mapped = true;
            return res;
        }
    }
    if (pd) {
        Pfn base =
            pd->largeLeafAt(static_cast<std::uint32_t>(radixIndex(vpn, 1)));
        if (base != noFrame) {
            res.pfn = base + (vpn & (pagesPerLargePage - 1));
            res.mapped = true;
            res.large = true;
        }
    }
    return res;
}

} // namespace morrigan

#endif // MORRIGAN_VM_PAGE_TABLE_HH
