/**
 * @file
 * Physical frame allocator.
 *
 * Frames are handed out from a bounded physical address space with a
 * deterministic scatter so that consecutive allocations do not map to
 * consecutive frames (no accidental physical contiguity -- the paper
 * stresses that physical contiguity is *not* guaranteed in servers,
 * which is why Morrigan relies only on virtual contiguity).
 */

#ifndef MORRIGAN_VM_PHYS_MEM_HH
#define MORRIGAN_VM_PHYS_MEM_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/snapshot.hh"
#include "common/types.hh"

namespace morrigan
{

/** Allocates 4KB physical frames. */
class PhysMem
{
  public:
    /**
     * @param total_frames Size of the physical space in frames.
     * @param scatter_seed Seed for the frame-scatter permutation;
     * pass 0 for sequential allocation (useful in tests).
     */
    explicit PhysMem(std::uint64_t total_frames = 1ULL << 22,
                     std::uint64_t scatter_seed = 1);

    /** Allocate a fresh frame; frames are never freed. */
    Pfn allocFrame();

    std::uint64_t framesAllocated() const { return next_; }
    std::uint64_t totalFrames() const { return totalFrames_; }

    /** Only the allocation cursor is mutable; the scatter permutation
     * is a pure function of (seed, index) and needs no saving. */
    void save(SnapshotWriter &w) const { transfer(*this, w); }
    void restore(SnapshotReader &r) { transfer(*this, r); }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("phys_mem");
        ar.expect(self.totalFrames_, "phys mem frame count");
        ar.expect(self.scatterSeed_, "phys mem scatter seed");
        ar.io(self.next_);
    }

    std::uint64_t totalFrames_;
    std::uint64_t next_ = 0;
    std::uint64_t scatterSeed_;
};

} // namespace morrigan

#endif // MORRIGAN_VM_PHYS_MEM_HH
