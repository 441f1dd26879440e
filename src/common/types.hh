/**
 * @file
 * Fundamental type aliases and address-manipulation helpers shared by
 * every subsystem of the Morrigan reproduction.
 *
 * The reproduction models an x86-64 machine with 4 KB base pages, a
 * 4-level radix page table, 64-byte cache lines, and 8-byte page table
 * entries (so 8 PTEs share one cache line -- the "page table locality"
 * the paper exploits for free spatial prefetching).
 */

#ifndef MORRIGAN_COMMON_TYPES_HH
#define MORRIGAN_COMMON_TYPES_HH

#include <cstdint>

namespace morrigan
{

/** A virtual or physical byte address. */
using Addr = std::uint64_t;

/** A virtual page number (virtual address >> pageShift). */
using Vpn = std::uint64_t;

/** A physical frame number (physical address >> pageShift). */
using Pfn = std::uint64_t;

/** Simulation time measured in core clock cycles. */
using Cycle = std::uint64_t;

/** Count of retired instructions. */
using InstCount = std::uint64_t;

/** Signed distance between two virtual page numbers. */
using PageDelta = std::int64_t;

/** log2 of the base page size (4 KB pages). */
constexpr unsigned pageShift = 12;

/** Base page size in bytes. */
constexpr Addr pageBytes = Addr{1} << pageShift;

/** log2 of the cache line size (64-byte lines). */
constexpr unsigned lineShift = 6;

/** Cache line size in bytes. */
constexpr Addr lineBytes = Addr{1} << lineShift;

/** Size of one page table entry in bytes (x86-64). */
constexpr Addr pteBytes = 8;

/** Number of PTEs that share a single cache line (64 / 8). */
constexpr unsigned ptesPerLine = lineBytes / pteBytes;

/** Default radix levels in the x86-64 page table (PML4/PDP/PD/PT). */
constexpr unsigned pageTableLevels = 4;

/** Maximum supported radix levels (5-level paging, LA57). */
constexpr unsigned maxPageTableLevels = 5;

/** Number of index bits consumed by each radix level. */
constexpr unsigned radixBits = 9;

/** Entries per radix node (one physical frame of PTEs). */
constexpr unsigned radixFanout = 1u << radixBits;

/** Extract the virtual page number of a virtual address. */
constexpr Vpn
pageOf(Addr va)
{
    return va >> pageShift;
}

/** Byte offset of an address within its page. */
constexpr Addr
pageOffset(Addr va)
{
    return va & (pageBytes - 1);
}

/** First byte address of a virtual page. */
constexpr Addr
pageBase(Vpn vpn)
{
    return vpn << pageShift;
}

/** Extract the cache line address (line-aligned) of a byte address. */
constexpr Addr
lineOf(Addr a)
{
    return a >> lineShift;
}

/**
 * Radix index of @p vpn at page table level @p level.
 *
 * Level 0 is the leaf (PT), level 3 the root (PML4), matching the
 * direction the hardware walker traverses from root to leaf.
 */
constexpr std::uint64_t
radixIndex(Vpn vpn, unsigned level)
{
    return (vpn >> (radixBits * level)) & ((1u << radixBits) - 1);
}

/** log2 of the large (2MB) page size. */
constexpr unsigned largePageShift = pageShift + radixBits;

/** Pages (4KB) covered by one large page. */
constexpr unsigned pagesPerLargePage = 1u << radixBits;

/** Base VPN (4KB-grained) of the large page containing @p vpn. */
constexpr Vpn
largePageBase(Vpn vpn)
{
    return vpn & ~static_cast<Vpn>(pagesPerLargePage - 1);
}

/** Whether a memory reference is an instruction fetch or a data access. */
enum class AccessType : std::uint8_t { Instruction, Data };

/** The site a page walk serves; the walker counts each apart. */
enum class WalkKind : std::uint8_t
{
    DemandInstr, DemandData, Prefetch, Correcting
};

} // namespace morrigan

#endif // MORRIGAN_COMMON_TYPES_HH
