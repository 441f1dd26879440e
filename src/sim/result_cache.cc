#include "result_cache.hh"

#include <cstdio>
#include <filesystem>

#include "common/json.hh"
#include "common/json_reader.hh"
#include "common/telemetry.hh"

namespace morrigan
{

namespace
{

/**
 * Canonical `name=value;` serialiser for cache keys. Doubles use
 * %.17g so any two distinguishable configurations get distinct keys.
 */
class KeyBuilder
{
  public:
    KeyBuilder &
    add(const char *k, std::uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
        return raw(k, buf);
    }

    KeyBuilder &
    add(const char *k, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(k, buf);
    }

    KeyBuilder &
    add(const char *k, const std::string &v)
    {
        return raw(k, v.c_str());
    }

    KeyBuilder &
    add(const char *k, bool v)
    {
        return raw(k, v ? "1" : "0");
    }

    std::string str() const { return s_; }

  private:
    KeyBuilder &
    raw(const char *k, const char *v)
    {
        s_ += k;
        s_ += '=';
        s_ += v;
        s_ += ';';
        return *this;
    }

    std::string s_;
};

void
addCacheParams(KeyBuilder &kb, const std::string &p,
               const CacheParams &c)
{
    kb.add((p + ".size").c_str(), std::uint64_t{c.sizeBytes});
    kb.add((p + ".ways").c_str(), std::uint64_t{c.ways});
    kb.add((p + ".lat").c_str(), std::uint64_t{c.latency});
    kb.add((p + ".mshrs").c_str(), std::uint64_t{c.mshrs});
}

void
addTlbParams(KeyBuilder &kb, const std::string &p, const TlbParams &t)
{
    kb.add((p + ".entries").c_str(), std::uint64_t{t.entries});
    kb.add((p + ".ways").c_str(), std::uint64_t{t.ways});
    kb.add((p + ".lat").c_str(), std::uint64_t{t.latency});
    kb.add((p + ".mshrs").c_str(), std::uint64_t{t.mshrs});
}

void
addWorkloadParams(KeyBuilder &kb, const std::string &p,
                  const ServerWorkloadParams &w)
{
    kb.add((p + ".name").c_str(), w.name);
    kb.add((p + ".seed").c_str(), w.seed);
    kb.add((p + ".codePages").c_str(), std::uint64_t{w.codePages});
    kb.add((p + ".codeSegments").c_str(),
           std::uint64_t{w.codeSegments});
    kb.add((p + ".segmentGapPages").c_str(), w.segmentGapPages);
    kb.add((p + ".hotCodePages").c_str(),
           std::uint64_t{w.hotCodePages});
    kb.add((p + ".zipfTheta").c_str(), w.zipfTheta);
    kb.add((p + ".hotShare").c_str(), w.hotShare);
    kb.add((p + ".warmCodePages").c_str(),
           std::uint64_t{w.warmCodePages});
    kb.add((p + ".warmShare").c_str(), w.warmShare);
    kb.add((p + ".numRequestTypes").c_str(),
           std::uint64_t{w.numRequestTypes});
    kb.add((p + ".typeZipfTheta").c_str(), w.typeZipfTheta);
    kb.add((p + ".meanPathLength").c_str(),
           std::uint64_t{w.meanPathLength});
    kb.add((p + ".meanRunLength").c_str(), w.meanRunLength);
    kb.add((p + ".pNearSuccessor").c_str(), w.pNearSuccessor);
    kb.add((p + ".pDeviate").c_str(), w.pDeviate);
    kb.add((p + ".dataAccessProb").c_str(), w.dataAccessProb);
    kb.add((p + ".dataHotPages").c_str(),
           std::uint64_t{w.dataHotPages});
    kb.add((p + ".dataHotZipf").c_str(), w.dataHotZipf);
    kb.add((p + ".dataColdPages").c_str(),
           std::uint64_t{w.dataColdPages});
    kb.add((p + ".dataColdProb").c_str(), w.dataColdProb);
    kb.add((p + ".dataStreamFraction").c_str(), w.dataStreamFraction);
    kb.add((p + ".dataHugePages").c_str(), w.dataHugePages);
    kb.add((p + ".phaseInterval").c_str(), w.phaseInterval);
    kb.add((p + ".phaseShuffleFraction").c_str(),
           w.phaseShuffleFraction);
}

/** %.17g doubles survive a decimal round-trip bit-exactly. */
void
kvFullDouble(json::Writer &w, const char *key, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    w.key(key).rawValue([&](std::ostream &o) { o << buf; });
}

template <std::size_t N>
void
kvU64Array(json::Writer &w, const char *key,
           const std::array<std::uint64_t, N> &a)
{
    w.key(key).beginArray();
    for (std::uint64_t v : a)
        w.value(v);
    w.endArray();
}

} // namespace

/** Populate a SimResult from a parsed JSON object; strict about
 * every field being present and well-formed. */
bool
simResultFromJson(const json::Value &doc, SimResult &out)
{
    using json::getDouble;
    using json::getString;
    using json::getU64;
    using json::getU64Array;

    if (doc.type != json::Value::Type::Object)
        return false;

    SimResult r;
    bool ok = getString(doc, "workload", r.workload) &&
              getString(doc, "prefetcher", r.prefetcher) &&
              getU64(doc, "instructions", r.instructions) &&
              getDouble(doc, "cycles", r.cycles) &&
              getDouble(doc, "ipc", r.ipc) &&
              getDouble(doc, "l1i_mpki", r.l1iMpki) &&
              getDouble(doc, "itlb_mpki", r.itlbMpki) &&
              getDouble(doc, "istlb_mpki", r.istlbMpki) &&
              getDouble(doc, "dstlb_mpki", r.dstlbMpki) &&
              getU64(doc, "istlb_misses", r.istlbMisses) &&
              getU64(doc, "dstlb_misses", r.dstlbMisses) &&
              getU64(doc, "pb_hits", r.pbHits) &&
              getU64(doc, "pb_hits_irip", r.pbHitsIrip) &&
              getU64(doc, "pb_hits_sdp", r.pbHitsSdp) &&
              getU64(doc, "pb_hits_icache", r.pbHitsICache) &&
              getDouble(doc, "istlb_cycle_fraction",
                        r.istlbCycleFraction) &&
              getDouble(doc, "icache_cycle_fraction",
                        r.icacheCycleFraction) &&
              getDouble(doc, "data_cycle_fraction",
                        r.dataCycleFraction) &&
              getDouble(doc, "coverage", r.coverage) &&
              getU64(doc, "demand_walks", r.demandWalks) &&
              getU64(doc, "demand_walks_instr",
                     r.demandWalksInstr) &&
              getU64(doc, "demand_walk_refs", r.demandWalkRefs) &&
              getU64(doc, "demand_walk_refs_instr",
                     r.demandWalkRefsInstr) &&
              getU64(doc, "prefetch_walks", r.prefetchWalks) &&
              getU64(doc, "prefetch_walk_refs",
                     r.prefetchWalkRefs) &&
              getU64Array(doc, "prefetch_walk_refs_by_level",
                          r.prefetchWalkRefsByLevel) &&
              getDouble(doc, "mean_demand_walk_latency_instr",
                        r.meanDemandWalkLatencyInstr) &&
              getDouble(doc, "mean_demand_walk_latency_data",
                        r.meanDemandWalkLatencyData) &&
              getU64(doc, "icache_prefetches", r.icachePrefetches) &&
              getU64(doc, "icache_cross_page_prefetches",
                     r.icacheCrossPagePrefetches) &&
              getU64(doc, "icache_cross_page_needing_walk",
                     r.icacheCrossPageNeedingWalk) &&
              getU64(doc, "icache_cross_page_pb_hits",
                     r.icacheCrossPagePbHits) &&
              getU64Array(doc, "pb_hit_distance", r.pbHitDistance) &&
              getU64(doc, "context_switches", r.contextSwitches) &&
              getU64(doc, "correcting_walks", r.correctingWalks) &&
              getU64(doc, "checked_translations",
                     r.checkedTranslations) &&
              getU64(doc, "check_mismatches", r.checkMismatches) &&
              getU64(doc, "check_mapped_pages", r.checkMappedPages);
    if (!ok)
        return false;
    out = std::move(r);
    return true;
}

namespace
{

/** The SimConfig part of every key. @p warmup_only omits the
 * measurement-only fields. */
void
addConfigFields(KeyBuilder &kb, const SimConfig &cfg, bool warmup_only)
{
    addCacheParams(kb, "mem.l1i", cfg.mem.l1i);
    addCacheParams(kb, "mem.l1d", cfg.mem.l1d);
    addCacheParams(kb, "mem.l2", cfg.mem.l2);
    addCacheParams(kb, "mem.llc", cfg.mem.llc);
    kb.add("mem.dram.banks", std::uint64_t{cfg.mem.dram.banks});
    kb.add("mem.dram.rowBytes", std::uint64_t{cfg.mem.dram.rowBytes});
    kb.add("mem.dram.tParam", std::uint64_t{cfg.mem.dram.tParam});
    kb.add("mem.l2Prefetcher", cfg.mem.l2Prefetcher);
    kb.add("mem.l2PrefetchDepth",
           std::uint64_t{cfg.mem.l2PrefetchDepth});

    addTlbParams(kb, "tlb.itlb", cfg.tlb.itlb);
    addTlbParams(kb, "tlb.dtlb", cfg.tlb.dtlb);
    addTlbParams(kb, "tlb.stlb", cfg.tlb.stlb);

    kb.add("walker.ports", std::uint64_t{cfg.walker.ports});
    kb.add("walker.asap", cfg.walker.asap);
    kb.add("walker.psc.pml4",
           std::uint64_t{cfg.walker.psc.pml4Entries});
    kb.add("walker.psc.pdp", std::uint64_t{cfg.walker.psc.pdpEntries});
    kb.add("walker.psc.pd", std::uint64_t{cfg.walker.psc.pdEntries});
    kb.add("walker.psc.pdWays", std::uint64_t{cfg.walker.psc.pdWays});
    kb.add("walker.psc.lat", std::uint64_t{cfg.walker.psc.latency});

    kb.add("pbEntries", std::uint64_t{cfg.pbEntries});
    kb.add("pbLatency", std::uint64_t{cfg.pbLatency});
    kb.add("width", std::uint64_t{cfg.width});
    kb.add("dataMlpFactor", cfg.dataMlpFactor);
    kb.add("fetchOverlapFactor", cfg.fetchOverlapFactor);
    kb.add("frontendRedirectPenalty",
           std::uint64_t{cfg.frontendRedirectPenalty});
    kb.add("pageTableDepth", std::uint64_t{cfg.pageTableDepth});
    kb.add("pageTableFormat",
           std::uint64_t(static_cast<unsigned>(cfg.pageTableFormat)));
    kb.add("contextSwitchInterval", cfg.contextSwitchInterval);
    kb.add("prefetchOnStlbHits", cfg.prefetchOnStlbHits);
    kb.add("correctingWalks", cfg.correctingWalks);
    kb.add("perfectIstlb", cfg.perfectIstlb);
    kb.add("prefetchIntoStlb", cfg.prefetchIntoStlb);
    kb.add("icachePref",
           std::uint64_t(static_cast<unsigned>(cfg.icachePref)));
    kb.add("icacheTranslationCost", cfg.icacheTranslationCost);
    kb.add("warmupInstructions", cfg.warmupInstructions);
    if (!warmup_only) {
        kb.add("simInstructions", cfg.simInstructions);
        kb.add("collectMissStream", cfg.collectMissStream);
    }
    kb.add("smtThread1VpnOffset", cfg.smtThread1VpnOffset);
    kb.add("checkLevel", std::uint64_t(cfg.checkLevel));
    kb.add("injectWalkerBugPeriod", cfg.injectWalkerBugPeriod);
}

/** Shared body of experimentKey() / warmupKey(). */
std::string
buildKey(const SimConfig &cfg, const std::string &kind,
         const ServerWorkloadParams &workload,
         const ServerWorkloadParams *smt, bool warmup_only)
{
    KeyBuilder kb;
    kb.add("schema", std::string(warmup_only ? "morrigan-warmup"
                                             : "morrigan-experiment"));
    kb.add("version",
           std::uint64_t{json::resultCacheSchemaVersion});
    // The registry spec string (CLI spelling, '+'-joined for
    // hybrids) is the canonical cache identity of a prefetcher.
    kb.add("prefetcher", kind);
    addConfigFields(kb, cfg, warmup_only);
    addWorkloadParams(kb, "wl", workload);
    kb.add("smt", smt != nullptr);
    if (smt)
        addWorkloadParams(kb, "smt", *smt);
    return kb.str();
}

} // anonymous namespace

std::string
experimentKey(const SimConfig &cfg, const std::string &kind,
              const ServerWorkloadParams &workload,
              const ServerWorkloadParams *smt)
{
    return buildKey(cfg, kind, workload, smt, false);
}

std::string
warmupKey(const SimConfig &cfg, const std::string &kind,
          const ServerWorkloadParams &workload,
          const ServerWorkloadParams *smt)
{
    return buildKey(cfg, kind, workload, smt, true);
}

std::string
warmupConfigKey(const SimConfig &cfg)
{
    KeyBuilder kb;
    addConfigFields(kb, cfg, true);
    return kb.str();
}

std::uint64_t
cacheKeyDigest(const std::string &key)
{
    // FNV-1a 64-bit.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : key) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
snapshotPath(const std::string &dir, const char *stem,
             const std::string &key)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(cacheKeyDigest(key)));
    return dir + "/morrigan-" + stem + "-" + buf + ".snap";
}

void
writeSimResultJson(std::ostream &os, const SimResult &r)
{
    json::Writer w(os);
    w.beginObject();
    w.kv("workload", r.workload);
    w.kv("prefetcher", r.prefetcher);
    w.kv("instructions", r.instructions);
    kvFullDouble(w, "cycles", r.cycles);
    kvFullDouble(w, "ipc", r.ipc);
    kvFullDouble(w, "l1i_mpki", r.l1iMpki);
    kvFullDouble(w, "itlb_mpki", r.itlbMpki);
    kvFullDouble(w, "istlb_mpki", r.istlbMpki);
    kvFullDouble(w, "dstlb_mpki", r.dstlbMpki);
    w.kv("istlb_misses", r.istlbMisses);
    w.kv("dstlb_misses", r.dstlbMisses);
    w.kv("pb_hits", r.pbHits);
    w.kv("pb_hits_irip", r.pbHitsIrip);
    w.kv("pb_hits_sdp", r.pbHitsSdp);
    w.kv("pb_hits_icache", r.pbHitsICache);
    kvFullDouble(w, "istlb_cycle_fraction", r.istlbCycleFraction);
    kvFullDouble(w, "icache_cycle_fraction", r.icacheCycleFraction);
    kvFullDouble(w, "data_cycle_fraction", r.dataCycleFraction);
    kvFullDouble(w, "coverage", r.coverage);
    w.kv("demand_walks", r.demandWalks);
    w.kv("demand_walks_instr", r.demandWalksInstr);
    w.kv("demand_walk_refs", r.demandWalkRefs);
    w.kv("demand_walk_refs_instr", r.demandWalkRefsInstr);
    w.kv("prefetch_walks", r.prefetchWalks);
    w.kv("prefetch_walk_refs", r.prefetchWalkRefs);
    kvU64Array(w, "prefetch_walk_refs_by_level",
               r.prefetchWalkRefsByLevel);
    kvFullDouble(w, "mean_demand_walk_latency_instr",
                 r.meanDemandWalkLatencyInstr);
    kvFullDouble(w, "mean_demand_walk_latency_data",
                 r.meanDemandWalkLatencyData);
    w.kv("icache_prefetches", r.icachePrefetches);
    w.kv("icache_cross_page_prefetches",
         r.icacheCrossPagePrefetches);
    w.kv("icache_cross_page_needing_walk",
         r.icacheCrossPageNeedingWalk);
    w.kv("icache_cross_page_pb_hits", r.icacheCrossPagePbHits);
    kvU64Array(w, "pb_hit_distance", r.pbHitDistance);
    w.kv("context_switches", r.contextSwitches);
    w.kv("correcting_walks", r.correctingWalks);
    // checkReport is deliberately not serialized: checked runs are
    // never cached (ExperimentJob::cacheable()), so a cached result
    // always has an empty report.
    w.kv("checked_translations", r.checkedTranslations);
    w.kv("check_mismatches", r.checkMismatches);
    w.kv("check_mapped_pages", r.checkMappedPages);
    w.endObject();
}

bool
parseSimResultJson(const std::string &text, SimResult &out)
{
    json::Value doc;
    if (!json::Reader(text).parse(doc))
        return false;
    return simResultFromJson(doc, out);
}

ResultCache &
ResultCache::global()
{
    static ResultCache cache;
    return cache;
}

bool
ResultCache::lookup(const std::string &key, SimResult &out)
{
    telemetry::ScopedSpan span(telemetry::Phase::CacheLookup);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        ++counts_.hits;
        telemetry::add(telemetry::Counter::ResultCacheHits);
        out = it->second;
        return true;
    }
    ++counts_.misses;
    telemetry::add(telemetry::Counter::ResultCacheMisses);
    return false;
}

void
ResultCache::insert(const std::string &key, const SimResult &result)
{
    telemetry::ScopedSpan span(telemetry::Phase::CacheInsert);
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.try_emplace(key, result).second)
        ++counts_.inserts;
}

ResultCache::Counts
ResultCache::counts() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counts_;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    counts_ = Counts{};
}

} // namespace morrigan
