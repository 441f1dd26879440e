/**
 * @file
 * Versioned, checksummed full-simulator snapshots.
 *
 * A snapshot serializes the *entire* mutable state of a simulation --
 * RNG streams, workload-generator state, TLBs, prefetcher tables,
 * caches, page table, walker queues and the component counter
 * records -- into a single binary image, so a run can be interrupted
 * at any checkpoint boundary and resumed bit-identically, and so a
 * warmed-up image can be reused across runs that share everything
 * but the measurement.
 *
 * Image layout:
 *
 *   [ 8] magic "MRGNSNAP"
 *   [ 4] schema version (snapshotSchemaVersion at write time)
 *   [ 8] progress: instructions already executed (warmup + measured)
 *   [ 8] total instruction budget of the producing run
 *   [ 8] payload size in bytes
 *   [ 4] CRC32 of the payload
 *   [ 4] CRC32 of the 40 header bytes above
 *   [..] payload
 *
 * The payload is a flat little-endian stream of fields punctuated by
 * named section markers. Each component lists its state once, in a
 * transfer() that both SnapshotWriter and SnapshotReader run (see
 * SnapshotIo), so its save and restore sides cannot drift apart
 * field by field; the markers, which readers verify, make a
 * component that consumes another's bytes fail loudly at that
 * component instead of silently misinterpreting them.
 *
 * Failure policy: *every* defect -- truncation, corruption, version
 * mismatch, identity mismatch, geometry mismatch -- throws
 * SnapshotError. Callers catch it at the restore entry point, discard
 * the image and re-simulate from scratch; a bad snapshot must never
 * crash a campaign or, worse, silently alter results.
 *
 * Publication is atomic: writeToFile() writes `path.tmp.<pid>` and
 * rename()s it over `path`, so concurrent readers only ever observe
 * a complete image or none at all.
 */

#ifndef MORRIGAN_COMMON_SNAPSHOT_HH
#define MORRIGAN_COMMON_SNAPSHOT_HH

#include <cstdint>
#include <cstring>
#include <ranges>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/fields.hh"

namespace morrigan
{

/**
 * Schema version of the snapshot payload encoding. Bump whenever any
 * component's serialized layout changes; readers reject images whose
 * version differs (re-simulating is always safe, reinterpreting
 * stale bytes never is).
 * v4: the component counter records replace the `stat_group`
 * sections; a hashed page table writes only its occupied buckets.
 * v5: the prefetch buffer no longer writes per-producer hit counts
 * (RunCounters::pbHitsIrip/pbHitsSdp/pbHitsICache count that split).
 * v6: RunCounters keeps only what no component counts; the walker
 * record counts each WalkKind apart; interval epochs carry every
 * component record (path, variant index, fields) in place of the
 * walker's busy port-cycles and the tracer's issued/hit arrays.
 * v7: no component writes a counter that no report reads (IRIP's
 * statistics, the MANA, FDIP, FNL+MMA, ASP and DP counters, the
 * hashed page table's probe count) or a count that other counts
 * determine (PB and PSC lookups, DRAM accesses, per-kind walks,
 * late tracer hits); the configuration key loses the five cycle
 * constants (pbLatency, coreWidth, dataMlpFactor, fetchOverlapFactor,
 * frontendRedirectPenalty), and the last interval epoch carries the
 * tracer's end-of-run residual counts.
 * v8: the simulator ends with the measured iSTLB miss stream (a
 * count, then one VPN per miss; empty unless collectMissStream), so
 * miss-stream runs snapshot like any other.
 */
constexpr std::uint32_t snapshotSchemaVersion = 8;

/** Any defect in a snapshot image or a save/restore mismatch. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** IEEE CRC32 (reflected, 0xEDB88320) over @p size bytes. */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t seed = 0);

/** Parsed snapshot header (the cheap part; no payload verification). */
struct SnapshotHeader
{
    std::uint32_t version = 0;
    std::uint64_t progressInstructions = 0;
    std::uint64_t totalInstructions = 0;
    std::uint64_t payloadSize = 0;
};

/**
 * Read and validate only the 44-byte header of @p path: magic and
 * header CRC are checked, the payload is not touched. Used by the
 * supervisor's watchdog to learn how far a killed job had progressed
 * without paying for a full payload verification.
 *
 * @return false (without throwing) if the file is missing, short, or
 * fails header validation.
 */
bool readSnapshotHeader(const std::string &path, SnapshotHeader &out);

/**
 * The vocabulary SnapshotWriter and SnapshotReader share, so that a
 * component describes its state once, in a
 *
 *     template <class Self, class Ar>
 *     static void transfer(Self &self, Ar &ar);
 *
 * that runs with `Self = const C, Ar = SnapshotWriter` to save and
 * `Self = C, Ar = SnapshotReader` to restore. `Ar::loading` says
 * which side runs; restore-only work (range checks, recounts,
 * rebuilt indexes) sits under `if constexpr (Ar::loading)`.
 */
template <class Ar>
class SnapshotIo
{
  public:
    /**
     * Write @p v, or read into it: a component through its
     * save(ar, extra...) / restore(ar, extra...), a record
     * (common/fields.hh) field by field in visit order, a range or
     * pair element by element (a range's length is the live one), a
     * string as length and bytes, a double as its IEEE-754 image, and
     * a bool, enum or integer in its own width (1, 4 or 8 bytes;
     * ioAs() re-widths any other).
     */
    template <class T, class... Extra>
    void
    io(T &v, Extra &&...extra)
    {
        using U = std::remove_const_t<T>;
        Ar &ar = static_cast<Ar &>(*this);
        if constexpr (requires { v.save(ar, extra...); })
            v.save(ar, std::forward<Extra>(extra)...);
        else if constexpr (requires { v.restore(ar, extra...); })
            v.restore(ar, std::forward<Extra>(extra)...);
        else if constexpr (Record<U>)
            visitFields(v, [this](const char *, auto &f,
                                  FieldTag = FieldTag::Plain) { io(f); });
        else if constexpr (std::ranges::range<U> &&
                           !std::is_same_v<U, std::string>)
            for (auto &e : v)
                io(e);
        else if constexpr (requires { v.first, v.second; }) {
            io(v.first);
            io(v.second);
        } else {
            static_assert((!std::is_integral_v<U> && !std::is_enum_v<U>) ||
                              sizeof(U) == 1 || sizeof(U) == 4 ||
                              sizeof(U) == 8,
                          "no snapshot encoding of this width; use ioAs()");
            ar.value(v);
        }
    }

    /**
     * An identity or geometry value: the writer writes @p v, the
     * reader reads one and compares it with @p v.
     *
     * @throws SnapshotError naming @p what when they differ.
     */
    template <class T>
    void
    expect(const T &v, std::string_view what)
    {
        T got = v;
        io(got);
        if (got != v)
            throw SnapshotError(std::string(what) +
                                " mismatch: snapshot has " + shown(got) +
                                ", live has " + shown(v));
    }

    /**
     * The length @p n of what follows.
     *
     * @param min_bytes Fewest payload bytes each counted element
     * takes (at least 1).
     * @throws SnapshotError on read, before anything is sized from
     * @p n, if that many elements cannot fit in the bytes left.
     */
    template <class N>
    void
    count(N &n, std::size_t min_bytes)
    {
        io(n);
        if constexpr (Ar::loading) {
            const std::size_t left = static_cast<Ar &>(*this).remaining();
            if (n > left / min_bytes)
                throw SnapshotError("snapshot length " +
                                    std::to_string(n) + " overruns the " +
                                    std::to_string(left) +
                                    " bytes left");
        }
    }

  private:
    template <class T>
    static std::string
    shown(const T &v)
    {
        if constexpr (std::is_same_v<T, std::string>)
            return "'" + v + "'";
        else if constexpr (std::is_enum_v<T>)
            return std::to_string(static_cast<std::uint64_t>(v));
        else
            return std::to_string(+v);
    }
};

/** Serializes fields into a payload buffer; publishes atomically. */
class SnapshotWriter : public SnapshotIo<SnapshotWriter>
{
  public:
    static constexpr bool loading = false;

    SnapshotWriter() { buf_.reserve(1 << 16); }

    /** Named section marker; the reader must match it exactly. */
    void section(const char *name);

    void u8(std::uint8_t v) { raw(&v, 1); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    /** Bit-exact double (IEEE-754 image, not a decimal round trip). */
    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void str(const std::string &s);

    const std::string &payload() const { return buf_; }

    /**
     * Publish the payload to @p path: header + payload to
     * `path.tmp.<pid>`, fsync, rename over @p path.
     *
     * @param progress Instructions already executed by the producer.
     * @param total Producer's total instruction budget.
     * @throws SnapshotError on any I/O failure.
     */
    void writeToFile(const std::string &path, std::uint64_t progress,
                     std::uint64_t total) const;

  private:
    friend class SnapshotIo<SnapshotWriter>;

    void raw(const void *data, std::size_t size);

    void value(const std::string &s) { str(s); }
    void value(double v) { f64(v); }
    template <class T>
    void
    value(T v)
    {
        const auto bits = static_cast<std::uint64_t>(v);
        if constexpr (sizeof(T) == 1)
            u8(static_cast<std::uint8_t>(bits));
        else if constexpr (sizeof(T) == 4)
            u32(static_cast<std::uint32_t>(bits));
        else
            u64(bits);
    }

    std::string buf_;
};

/** Validates and deserializes a snapshot image. */
class SnapshotReader : public SnapshotIo<SnapshotReader>
{
  public:
    static constexpr bool loading = true;

    /**
     * Load @p path: header magic, version, both CRCs and the payload
     * size are all verified before any field is decoded.
     *
     * @throws SnapshotError on any defect.
     */
    explicit SnapshotReader(const std::string &path);

    /** Wrap an in-memory payload (tests; no header involved). */
    static SnapshotReader
    fromPayload(std::string payload)
    {
        SnapshotReader r;
        r.buf_ = std::move(payload);
        return r;
    }

    const SnapshotHeader &header() const { return header_; }

    /** Consume and verify a section marker written by section(). */
    void section(const char *name);

    std::uint8_t u8();
    bool b() { return u8() != 0; }
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string str();

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return buf_.size() - pos_; }

    /** Assert the whole payload was consumed (end of restore). */
    void finish();

  private:
    friend class SnapshotIo<SnapshotReader>;

    SnapshotReader() = default;

    const std::uint8_t *take(std::size_t size);

    void value(std::string &s) { s = str(); }
    void value(double &v) { v = f64(); }
    template <class T>
    void
    value(T &v)
    {
        if constexpr (sizeof(T) == 1)
            v = static_cast<T>(u8());
        else if constexpr (sizeof(T) == 4)
            v = static_cast<T>(u32());
        else
            v = static_cast<T>(u64());
    }

    std::string buf_;
    std::size_t pos_ = 0;
    SnapshotHeader header_;
};

/** io() @p v as a @p W: a field stored in another width than the
 * image gives it. */
template <class W, class Ar, class T>
void
ioAs(Ar &ar, T &v)
{
    W wire = static_cast<W>(v);
    ar.io(wire);
    if constexpr (Ar::loading)
        v = static_cast<T>(wire);
}

} // namespace morrigan

#endif // MORRIGAN_COMMON_SNAPSHOT_HH
