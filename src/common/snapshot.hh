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
 * named section markers; readers verify each marker, so any drift
 * between the save and restore sides fails loudly at the exact
 * component instead of silently misinterpreting bytes.
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

#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

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
 */
constexpr std::uint32_t snapshotSchemaVersion = 4;

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
 * Read and validate only the 40-byte header of @p path: magic and
 * header CRC are checked, the payload is not touched. Used by the
 * supervisor's watchdog to learn how far a killed job had progressed
 * without paying for a full payload verification.
 *
 * @return false (without throwing) if the file is missing, short, or
 * fails header validation.
 */
bool readSnapshotHeader(const std::string &path, SnapshotHeader &out);

/** Serializes fields into a payload buffer; publishes atomically. */
class SnapshotWriter
{
  public:
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

    /** Every member of record @p rec (common/fields.hh) in visit
     * order: doubles as f64, 32- and 64-bit integers as u32/u64,
     * arrays element by element. */
    template <class Rec>
    void
    fields(const Rec &rec)
    {
        visitFields(rec, [this](const char *, const auto &v,
                                FieldTag = FieldTag::Plain) { put(v); });
    }

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
    void raw(const void *data, std::size_t size);

    void put(double v) { f64(v); }
    void put(std::uint32_t v) { u32(v); }
    void put(std::uint64_t v) { u64(v); }
    template <std::size_t N>
    void put(const std::array<std::uint64_t, N> &a)
    {
        for (std::uint64_t v : a)
            u64(v);
    }
    template <Record R>
    void put(const R &nested) { fields(nested); }

    std::string buf_;
};

/** Validates and deserializes a snapshot image. */
class SnapshotReader
{
  public:
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

    /** Read back what SnapshotWriter::fields() wrote. */
    template <class Rec>
    void
    fields(Rec &rec)
    {
        visitFields(rec, [this](const char *, auto &v,
                                FieldTag = FieldTag::Plain) { get(v); });
    }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return buf_.size() - pos_; }

    /** Assert the whole payload was consumed (end of restore). */
    void finish();

  private:
    SnapshotReader() = default;

    const std::uint8_t *take(std::size_t size);

    void get(double &v) { v = f64(); }
    void get(std::uint32_t &v) { v = u32(); }
    void get(std::uint64_t &v) { v = u64(); }
    template <std::size_t N>
    void get(std::array<std::uint64_t, N> &a)
    {
        for (std::uint64_t &v : a)
            v = u64();
    }
    template <Record R>
    void get(R &nested) { fields(nested); }

    std::string buf_;
    std::size_t pos_ = 0;
    SnapshotHeader header_;
};

} // namespace morrigan

#endif // MORRIGAN_COMMON_SNAPSHOT_HH
