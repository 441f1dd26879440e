#include "page_table.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace morrigan
{

PageTable::PageTable(PhysMem &phys, unsigned levels,
                     PageTableFormat format)
    : phys_(phys), levels_(levels), format_(format)
{
    fatal_if(levels_ < 2 || levels_ > maxPageTableLevels,
             "unsupported page table depth %u", levels_);
    arena_.reserve(64);
    arena_.emplace_back();
    arena_[0].frame = phys_.allocFrame();
    if (format_ == PageTableFormat::Hashed) {
        hashBase_ = phys_.allocFrame();
        for (std::uint64_t i = 1; i < hashFrames; ++i)
            phys_.allocFrame();
    }
    countTableFrames();
}

void
PageTable::countTableFrames()
{
    stats_.tableFrames =
        arena_.size() +
        (format_ == PageTableFormat::Hashed ? hashFrames : 0);
}

std::int32_t
PageTable::newNode()
{
    arena_.emplace_back();
    arena_.back().frame = phys_.allocFrame();
    countTableFrames();
    return static_cast<std::int32_t>(arena_.size() - 1);
}

std::int32_t
PageTable::ensureChild(std::int32_t ni, std::uint32_t idx)
{
    std::int32_t c = arena_[ni].childAt(idx);
    if (c == noNode) {
        c = newNode();  // may reallocate the arena
        childArrays_.at(arena_[ni].child, idx) = c;
    }
    return c;
}

std::uint64_t
PageTable::findBucket(Vpn group, bool allocate, unsigned *probes)
{
    constexpr std::uint64_t mask = hashBuckets - 1;
    // Multiplicative hash of the group number.
    std::uint64_t h = (group * 0x9e3779b97f4a7c15ULL) & mask;
    unsigned n = 0;
    for (;;) {
        ++n;
        const Vpn *occupant = buckets_.find(h);
        if (occupant && *occupant == group) {
            *probes = n;
            return h;
        }
        if (!occupant) {
            *probes = n;
            if (!allocate)
                return hashBuckets;
            buckets_.insert(h, group);
            return h;
        }
        h = (h + 1) & mask;  // linear probing
        panic_if(n > 64, "hashed page table overfull");
    }
}

WalkPath
PageTable::walkHashed(Vpn vpn, bool allocate)
{
    WalkPath path;
    Vpn group = vpn >> 3;
    const Pfn *leaf = hashLeaves_.find(vpn);
    bool mapped = leaf != nullptr;
    if (!mapped && allocate) {
        Pfn pfn = phys_.allocFrame();
        hashLeaves_.insert(vpn, pfn);
        leaf = hashLeaves_.find(vpn);
        ++stats_.mappedPages;
        mapped = true;
        if (observer_)
            observer_->onMap4K(vpn, pfn);
    }

    unsigned probes = 0;
    std::uint64_t bucket = findBucket(group, mapped, &probes);
    // One memory reference per probed bucket, all within the flat
    // hashed array.
    path.levels = probes;
    constexpr std::uint64_t mask = hashBuckets - 1;
    std::uint64_t h = (group * 0x9e3779b97f4a7c15ULL) & mask;
    for (unsigned p = 0; p < probes && p < maxPageTableLevels; ++p) {
        path.entryAddr[p] = (hashBase_ << pageShift) + h * lineBytes +
                            (vpn & 7) * pteBytes;
        h = (h + 1) & mask;
    }
    if (path.levels > maxPageTableLevels)
        path.levels = maxPageTableLevels;
    (void)bucket;

    if (mapped) {
        path.mapped = true;
        path.pfn = *leaf;
    }
    return path;
}

void
PageTable::mapRange(Vpn start, std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i)
        mapPage(start + i);
}

bool
PageTable::mapPage(Vpn vpn)
{
    if (format_ == PageTableFormat::Hashed) {
        if (hashLeaves_.find(vpn))
            return false;
        Pfn pfn = phys_.allocFrame();
        hashLeaves_.insert(vpn, pfn);
        ++stats_.mappedPages;
        unsigned probes = 0;
        findBucket(vpn >> 3, true, &probes);
        if (observer_)
            observer_->onMap4K(vpn, pfn);
        return true;
    }
    std::int32_t ni = 0;
    // Descend through the interior levels, creating nodes.
    for (unsigned depth = 0; depth < levels_ - 1; ++depth) {
        unsigned level = levels_ - 1 - depth;
        auto idx = static_cast<std::uint32_t>(radixIndex(vpn, level));
        ni = ensureChild(ni, idx);
    }
    auto leaf_idx = static_cast<std::uint32_t>(radixIndex(vpn, 0));
    Pfn &leaf = frameArrays_.at(arena_[ni].leaf, leaf_idx);
    if (leaf != noFrame)
        return false;
    Pfn pfn = phys_.allocFrame();
    leaf = pfn;
    ++stats_.mappedPages;
    if (observer_)
        observer_->onMap4K(vpn, pfn);
    return true;
}

bool
PageTable::mapLargePage(Vpn vpn)
{
    fatal_if(format_ == PageTableFormat::Hashed,
             "large pages unsupported in the hashed format");
    Vpn base = largePageBase(vpn);
    std::int32_t ni = 0;
    // Descend to the PD level (stop one interior level early).
    for (unsigned depth = 0; depth + 2 < levels_; ++depth) {
        unsigned level = levels_ - 1 - depth;
        auto idx = static_cast<std::uint32_t>(radixIndex(base, level));
        ni = ensureChild(ni, idx);
    }
    auto pd_idx = static_cast<std::uint32_t>(radixIndex(base, 1));
    panic_if(arena_[ni].childAt(pd_idx) != noNode,
             "2MB mapping over existing 4KB mappings");
    Pfn &large = frameArrays_.at(arena_[ni].largeLeaf, pd_idx);
    if (large != noFrame)
        return false;
    // Allocate a contiguous 2MB frame group.
    Pfn first = phys_.allocFrame();
    for (unsigned i = 1; i < pagesPerLargePage; ++i)
        phys_.allocFrame();
    large = first;
    stats_.mappedPages += pagesPerLargePage;
    if (observer_)
        observer_->onMap2M(base, first);
    return true;
}

void
PageTable::mapLargeRange(Vpn start, std::uint64_t count_4k)
{
    for (Vpn v = largePageBase(start);
         v < start + count_4k;
         v += pagesPerLargePage) {
        mapLargePage(v);
    }
}

bool
PageTable::isMapped(Vpn vpn) const
{
    return translate(vpn).mapped;
}

const PageTable::Node *
PageTable::findLeafNode(Vpn vpn) const
{
    std::int32_t ni = 0;
    for (unsigned depth = 0; depth < levels_ - 1; ++depth) {
        unsigned level = levels_ - 1 - depth;
        auto idx = static_cast<std::uint32_t>(radixIndex(vpn, level));
        ni = arena_[ni].childAt(idx);
        if (ni == noNode)
            return nullptr;
    }
    return &arena_[ni];
}

WalkPath
PageTable::walk(Vpn vpn, bool allocate)
{
    if (format_ == PageTableFormat::Hashed)
        return walkHashed(vpn, allocate);

    WalkPath path;
    path.levels = levels_;
    std::int32_t ni = 0;
    for (unsigned depth = 0; depth < levels_; ++depth) {
        unsigned level = levels_ - 1 - depth;
        auto idx = static_cast<std::uint32_t>(radixIndex(vpn, level));
        const Node &n = arena_[ni];
        path.entryAddr[depth] =
            (n.frame << pageShift) + idx * pteBytes;
        if (depth == levels_ - 1) {
            if (Pfn pfn = n.leafAt(idx); pfn != noFrame) {
                path.pfn = pfn;
                path.mapped = true;
            }
            break;
        }
        if (level == 1) {
            // A PD entry can be a 2MB leaf (Section 4.3).
            if (Pfn base = n.largeLeafAt(idx); base != noFrame) {
                path.pfn = base + (vpn & (pagesPerLargePage - 1));
                path.mapped = true;
                path.large = true;
                path.levels = depth + 1;  // walk ends at the PD
                break;
            }
        }
        ni = n.childAt(idx);
        if (ni == noNode) {
            // Walk terminates early: the interior entry is absent.
            // Entry addresses below this level stay zero and
            // path.mapped stays false.
            break;
        }
    }
    if (allocate && !path.mapped) {
        // Demand fault: map, then walk the completed path.
        mapPage(vpn);
        return walk(vpn, false);
    }
    return path;
}

std::array<LinePte, ptesPerLine>
PageTable::lineNeighbors(Vpn vpn, unsigned *count) const
{
    std::array<LinePte, ptesPerLine> out{};
    unsigned n = 0;
    // The 8 PTEs of a 64-byte line cover the aligned group of 8
    // virtually contiguous pages.
    Vpn group_base = vpn & ~static_cast<Vpn>(ptesPerLine - 1);
    if (format_ == PageTableFormat::Hashed) {
        // Clustered hashing keeps an aligned 8-page group in one
        // bucket line, so the locality property is identical.
        for (unsigned i = 0; i < ptesPerLine; ++i) {
            Vpn cand = group_base + i;
            if (const Pfn *pfn = hashLeaves_.find(cand))
                out[n++] = {cand, *pfn};
        }
        *count = n;
        return out;
    }
    // The leaf PTE of vpn sits at byte (vpn & 511) * 8 of its PT
    // frame, so the whole group lives in one PT node.
    if (const Node *leaf_node = findLeafNode(vpn)) {
        for (unsigned i = 0; i < ptesPerLine; ++i) {
            Vpn cand = group_base + i;
            Pfn pfn = leaf_node->leafAt(
                static_cast<std::uint32_t>(radixIndex(cand, 0)));
            if (pfn != noFrame)
                out[n++] = {cand, pfn};
        }
    }
    *count = n;
    return out;
}

void
PageTable::saveNode(SnapshotWriter &w, const Node &n) const
{
    w.u64(n.frame);
    // Leaves, then large leaves, then children -- each as a count
    // followed by (index, value) in ascending index order,
    // byte-identical to the sorted-map emission of the
    // unordered_map-based layout.
    auto emit = [&w](const auto &slots, auto empty, auto &&value) {
        std::uint64_t count = 0;
        for (std::uint32_t i = 0; slots && i < radixFanout; ++i)
            count += slots[i] != empty;
        w.u64(count);
        for (std::uint32_t i = 0; slots && i < radixFanout; ++i) {
            if (slots[i] != empty) {
                w.u32(i);
                value(slots[i]);
            }
        }
    };
    auto frame = [&w](Pfn pfn) { w.u64(pfn); };
    emit(n.leaf, noFrame, frame);
    emit(n.largeLeaf, noFrame, frame);
    emit(n.child, noNode,
         [&](std::int32_t c) { saveNode(w, arena_[c]); });
}

void
PageTable::restoreNode(SnapshotReader &r, std::int32_t ni, unsigned depth)
{
    // The arena may reallocate while children are restored, so
    // arena_[ni] is re-resolved after every recursive call.
    arena_[ni] = Node{};
    arena_[ni].frame = r.u64();
    auto index = [&r](const char *what) {
        std::uint32_t idx = r.u32();
        if (idx >= radixFanout)
            throw SnapshotError(csprintf(
                "page table %s index out of range", what));
        return idx;
    };
    for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
        std::uint32_t idx = index("leaf");
        frameArrays_.at(arena_[ni].leaf, idx) = r.u64();
    }
    for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
        std::uint32_t idx = index("leaf");
        frameArrays_.at(arena_[ni].largeLeaf, idx) = r.u64();
    }
    for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
        std::uint32_t idx = index("child");
        // Bounds the recursion by the radix depth, not the payload.
        if (depth + 1 >= levels_)
            throw SnapshotError(csprintf(
                "page table node nested deeper than %u levels", levels_));
        arena_.emplace_back();
        auto ci = static_cast<std::int32_t>(arena_.size() - 1);
        childArrays_.at(arena_[ni].child, idx) = ci;
        restoreNode(r, ci, depth + 1);
    }
}

template <class Self, class Ar>
void
PageTable::transfer(Self &self, Ar &ar)
{
    ar.section("page_table");
    ar.expect(self.format_, "page table format");
    ar.expect(self.levels_, "page table levels");
    if (self.format_ == PageTableFormat::Radix) {
        if constexpr (Ar::loading) {
            self.arena_.resize(1);
            self.childArrays_.clear();
            self.frameArrays_.clear();
            self.restoreNode(ar, 0, 0);
        } else {
            self.saveNode(ar, self.arena_[0]);
        }
    } else {
        ar.io(self.hashBase_);
        // Each occupied bucket with its group's leaves: a presence
        // mask over the group's pages, then their frames. Every leaf
        // has a bucket, and free buckets take no space.
        auto buckets = self.buckets_.sorted();
        std::uint64_t n = buckets.size();
        ar.count(n, 2 * sizeof(std::uint64_t) + 1);  // bucket, group, mask
        if constexpr (Ar::loading) {
            self.buckets_.clear(64);
            self.hashLeaves_.clear(64);
            buckets.assign(n, {});
        }
        for (auto &[bucket, group] : buckets) {
            ar.io(bucket);
            ar.io(group);
            std::uint8_t mask = 0;
            Pfn frames[ptesPerLine] = {};
            for (unsigned i = 0; i < ptesPerLine; ++i) {
                if (const Pfn *f =
                        self.hashLeaves_.find(group * ptesPerLine + i)) {
                    mask |= std::uint8_t(1u << i);
                    frames[i] = *f;
                }
            }
            ar.io(mask);
            if constexpr (Ar::loading) {
                if (bucket >= hashBuckets)
                    throw SnapshotError(
                        "hashed page table bucket out of range");
                self.buckets_.insert(bucket, group);
            }
            for (unsigned i = 0; i < ptesPerLine; ++i) {
                if (!(mask & (1u << i)))
                    continue;
                ar.io(frames[i]);
                if constexpr (Ar::loading)
                    self.hashLeaves_.insert(group * ptesPerLine + i,
                                            frames[i]);
            }
        }
    }
    ar.io(self.stats_.mappedPages);
    if constexpr (Ar::loading)
        self.countTableFrames();
}

void PageTable::save(SnapshotWriter &w) const { transfer(*this, w); }
void PageTable::restore(SnapshotReader &r) { transfer(*this, r); }

} // namespace morrigan
