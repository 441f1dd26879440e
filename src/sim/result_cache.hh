/**
 * @file
 * Process-wide keyed cache of simulation results.
 *
 * Every experiment run is a deterministic function of
 * (SimConfig, prefetcher spec, ServerWorkloadParams[, SMT partner]),
 * so its ExperimentOutput (the SimResult and the miss stream) can be
 * memoised. The benches exploit this heavily:
 * each figure normalizes against the same `"none"`
 * baseline suite, which without the cache would be re-simulated by
 * every binary section that needs it.
 *
 * Keys are canonical field-by-field serialisations of the full
 * configuration (experimentKey()), walked through the records'
 * visitFields() lists (common/fields.hh); nothing is hashed in
 * memory, so there are no collision concerns. The cache is
 * memory-only and does no file I/O: the durable store that carries
 * results across processes is the campaign journal
 * (sim/supervisor.hh, MORRIGAN_JOURNAL=<file>), whose records use
 * the SimResult serialisation below.
 *
 * All entry points are thread-safe: Supervisor workers insert
 * results concurrently.
 */

#ifndef MORRIGAN_SIM_RESULT_CACHE_HH
#define MORRIGAN_SIM_RESULT_CACHE_HH

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>

#include "common/json_reader.hh"
#include "core/prefetcher_registry.hh"
#include "sim/job.hh"
#include "sim/sim_config.hh"
#include "workload/server_workload.hh"

namespace morrigan
{

/**
 * Canonical cache key for one experiment. Enumerates every visited
 * field of the configuration and the workload parameters (and the SMT
 * partner workload when @p smt is non-null), prefixed with a schema
 * version
 * so key layout changes invalidate old journal records. Two
 * experiments share a key iff they would produce bit-identical
 * SimResults.
 */
std::string experimentKey(const SimConfig &cfg, const std::string &kind,
                          const ServerWorkloadParams &workload,
                          const ServerWorkloadParams *smt = nullptr);

/**
 * Canonical key for one *warmup image* (see DESIGN.md §12): like
 * experimentKey() but without the measurement-only fields
 * (simInstructions, collectMissStream), so every run of a sweep that
 * shares a (workload, prefetcher, system) triple reuses one warmed
 * snapshot regardless of how long it measures. The prefetcher kind
 * *is* part of the key: prefetch walks mutate the caches, walker and
 * PB during warmup, so sharing images across prefetchers would break
 * bit-identity with an uninterrupted run.
 */
std::string warmupKey(const SimConfig &cfg, const std::string &kind,
                      const ServerWorkloadParams &workload,
                      const ServerWorkloadParams *smt = nullptr);

/** The SimConfig part of warmupKey(), which is also the
 * configuration identity every simulator snapshot carries. */
std::string warmupConfigKey(const SimConfig &cfg);

/** The first `name=value` field of canonical key @p a that @p b does
 * not match, for naming how two configurations differ. */
std::string firstKeyField(const std::string &a, const std::string &b);

/** FNV-1a digest of a canonical key, for deriving snapshot file
 * names and retry jitter. */
std::uint64_t cacheKeyDigest(const std::string &key);

/**
 * `<dir>/morrigan-<stem>-<16 hex digits of key digest>.snap`,
 * creating @p dir: the snapshot store's one naming rule (stem
 * "ckpt" + experiment key, "warm" + warmup key). Best-effort: if
 * the directory cannot be created the snapshot writes fail with a
 * warning, they never fail the job.
 */
std::string snapshotPath(const std::string &dir, const char *stem,
                         const std::string &key);

/** Serialize a SimResult as one JSON object: every recorded field of
 * visitFields(SimResult), doubles at full precision. This is the
 * campaign-journal record and the `result` of `--stats-json`. */
void writeSimResultJson(std::ostream &os, const SimResult &r);

/**
 * Parse a SimResult written by writeSimResultJson() from a parsed
 * JSON object (a campaign-journal record, which is also what a
 * sandboxed child sends back). Returns false, leaving @p out
 * untouched, unless every recorded field is present and well-formed.
 */
bool simResultFromJson(const json::Value &doc, SimResult &out);

/** The keyed in-process result cache. */
class ResultCache
{
  public:
    /** The process-wide instance used by the Supervisor. */
    static ResultCache &global();

    /** Look up @p key; on a hit copies the output into @p out. */
    bool lookup(const std::string &key, ExperimentOutput &out);

    /** Store an output (the first insert for a key wins). */
    void insert(const std::string &key, const ExperimentOutput &output);

    /** Accounting (tests). */
    struct Counts
    {
        std::uint64_t hits = 0;    //!< lookups served
        std::uint64_t misses = 0;  //!< lookups that failed
        std::uint64_t inserts = 0; //!< new entries stored
    };
    Counts counts() const;

    /** Number of entries. */
    std::size_t size() const;

    /** Drop every entry and zero the counts (tests). */
    void clear();

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::string, ExperimentOutput> entries_;
    Counts counts_;
};

} // namespace morrigan

#endif // MORRIGAN_SIM_RESULT_CACHE_HH
