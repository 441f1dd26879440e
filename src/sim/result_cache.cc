#include "result_cache.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <type_traits>

#include "common/json.hh"
#include "common/json_reader.hh"
#include "common/telemetry.hh"

namespace morrigan
{

namespace
{

/**
 * Canonical `name=value;` serialiser for cache keys, a visitFields()
 * visitor: nested records add their name as a dotted prefix
 * ("mem.l1i.size"). Doubles use %.17g so any two distinguishable
 * configurations get distinct keys; enums print their underlying
 * value and bools 1/0.
 */
class KeyBuilder
{
  public:
    /** @p warmup_only leaves out the measurement-only fields. */
    explicit KeyBuilder(bool warmup_only) : warmupOnly_(warmup_only) {}

    template <class T>
    void
    operator()(const char *name, const T &v,
               FieldTag tag = FieldTag::Plain)
    {
        if (tag == FieldTag::Unrecorded ||
            (warmupOnly_ && tag == FieldTag::MeasureOnly))
            return;
        if constexpr (Record<const T>) {
            const std::size_t outer = prefix_.size();
            prefix_ += name;
            prefix_ += '.';
            visitFields(v, *this);
            prefix_.resize(outer);
        } else {
            s_ += prefix_;
            s_ += name;
            s_ += '=';
            append(v);
            s_ += ';';
        }
    }

    const std::string &str() const { return s_; }

  private:
    void append(const std::string &v) { s_ += v; }
    void append(bool v) { s_ += v ? '1' : '0'; }

    void
    append(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        s_ += buf;
    }

    template <class T>
        requires std::is_integral_v<T> || std::is_enum_v<T>
    void
    append(T v)
    {
        s_ += std::to_string(static_cast<std::uint64_t>(v));
    }

    bool warmupOnly_;
    std::string prefix_;
    std::string s_;
};

/** Shared body of experimentKey() / warmupKey(). */
std::string
buildKey(const SimConfig &cfg, const std::string &kind,
         const ServerWorkloadParams &workload,
         const ServerWorkloadParams *smt, bool warmup_only)
{
    KeyBuilder kb(warmup_only);
    kb("schema", std::string(warmup_only ? "morrigan-warmup"
                                         : "morrigan-experiment"));
    kb("version", json::resultCacheSchemaVersion);
    // The registry spec string (CLI spelling, '+'-joined for
    // hybrids) is the canonical cache identity of a prefetcher.
    kb("prefetcher", kind);
    visitFields(cfg, kb);
    kb("wl", workload);
    kb("smt", smt != nullptr);
    if (smt)
        kb("smt", *smt);
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
    KeyBuilder kb(true);
    visitFields(cfg, kb);
    return kb.str();
}

std::string
firstKeyField(const std::string &a, const std::string &b)
{
    const std::size_t i =
        std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
        a.begin();
    const std::size_t begin = i > 0 ? a.rfind(';', i - 1) + 1 : 0;
    return a.substr(begin, a.find(';', begin) - begin);
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
    json::writeFields(w, r);
    w.endObject();
}

bool
simResultFromJson(const json::Value &doc, SimResult &out)
{
    if (doc.type != json::Value::Type::Object)
        return false;
    SimResult r;
    bool ok = true;
    // Strict: every recorded field must be present and well-formed.
    visitFields(r, [&](const char *key, auto &v,
                       FieldTag tag = FieldTag::Plain) {
        using T = std::remove_cvref_t<decltype(v)>;
        if (!ok || tag == FieldTag::Unrecorded)
            return;
        if constexpr (std::is_same_v<T, double>)
            ok = json::getDouble(doc, key, v);
        else if constexpr (std::is_same_v<T, std::string>)
            ok = json::getString(doc, key, v);
        else if constexpr (std::is_integral_v<T>)
            ok = json::getU64(doc, key, v);
        else
            ok = json::getU64Array(doc, key, v);
    });
    if (!ok)
        return false;
    out = std::move(r);
    return true;
}

ResultCache &
ResultCache::global()
{
    static ResultCache cache;
    return cache;
}

bool
ResultCache::lookup(const std::string &key, ExperimentOutput &out)
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
ResultCache::insert(const std::string &key,
                    const ExperimentOutput &output)
{
    telemetry::ScopedSpan span(telemetry::Phase::CacheInsert);
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.try_emplace(key, output).second)
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
