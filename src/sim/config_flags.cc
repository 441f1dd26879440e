#include "config_flags.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <type_traits>

#include "common/logging.hh"

namespace morrigan
{

namespace
{

/** Get/set of the SimConfig member reached through the member
 * pointers @p Path (`&SimConfig::walker, &WalkerParams::asap`). */
template <auto... Path>
constexpr ConfigFlag::Field field = {
    [](const SimConfig &c) {
        return static_cast<std::uint64_t>((c .* ... .* Path));
    },
    [](SimConfig &c, std::uint64_t v) {
        auto &f = (c .* ... .* Path);
        f = static_cast<std::remove_reference_t<decltype(f)>>(v);
    },
};

constexpr std::uint64_t maxInstructions = std::uint64_t{1} << 40;

/** parseU64OrDie() that reports instead of dying. */
std::optional<std::uint64_t>
parseU64(const std::string &what, const char *s, std::uint64_t min,
         std::uint64_t max, std::string &error)
{
    if (!s || !std::isdigit(static_cast<unsigned char>(*s))) {
        error = csprintf("%s: '%s' is not a non-negative integer",
                         what.c_str(), s ? s : "");
        return std::nullopt;
    }
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (*end != '\0')
        error = csprintf("%s: trailing junk in '%s'", what.c_str(), s);
    else if (errno == ERANGE || v < min || v > max)
        error = csprintf("%s: %s out of range [%llu, %llu]",
                         what.c_str(), s,
                         static_cast<unsigned long long>(min),
                         static_cast<unsigned long long>(max));
    else
        return v;
    return std::nullopt;
}

} // namespace

const std::vector<ConfigFlag> &
configFlags()
{
    static const std::vector<ConfigFlag> table = {
        {"--warmup", "N", "warmup instructions (default 1000000)",
         field<&SimConfig::warmupInstructions>, 0, maxInstructions},
        {"--instructions", "N", "measured instructions (default 4000000)",
         field<&SimConfig::simInstructions>, 1, maxInstructions},
        {"--pt-depth", "N", "page table depth 4|5",
         field<&SimConfig::pageTableDepth>, 4, 5},
        {"--asap", nullptr, "enable ASAP walk acceleration",
         field<&SimConfig::walker, &WalkerParams::asap>},
        {"--perfect-istlb", nullptr, "idealised instruction STLB",
         field<&SimConfig::perfectIstlb>},
        {"--p2tlb", nullptr, "prefetch into the STLB (no PB)",
         field<&SimConfig::prefetchIntoStlb>},
        {"--icache", "NAME", "none|next-line|fnl-mma",
         field<&SimConfig::icachePref>, 0, 0,
         {"none", "next-line", "fnl-mma"}},
        {"--no-icache-xlat", nullptr,
         "free translations for I-cache prefetches",
         {[](const SimConfig &c) -> std::uint64_t {
              return !c.icacheTranslationCost;
          },
          [](SimConfig &c, std::uint64_t v) {
              c.icacheTranslationCost = v == 0;
          }}},
        {"--prefetch-on-hits", nullptr,
         "engage prefetcher on STLB hits too",
         field<&SimConfig::prefetchOnStlbHits>},
        {"--ctx-switch", "N", "context switch every N instructions",
         field<&SimConfig::contextSwitchInterval>, 0, maxInstructions},
        {"--pb-entries", "N", "prefetch buffer capacity",
         field<&SimConfig::pbEntries>, 1, 1u << 20},
        {"--check-level", "N",
         "check level 1|2 (2 adds heavyweight structural invariants; "
         "implies --check)",
         field<&SimConfig::checkLevel>, 1, 2},
        {"--inject", "N",
         "corrupt every Nth instruction demand walk (checker "
         "validation)",
         field<&SimConfig::injectWalkerBugPeriod>, 1, maxInstructions},
        {"--miss-stream", nullptr,
         "print the miss-stream characterisation",
         field<&SimConfig::collectMissStream>},
    };
    return table;
}

const ConfigFlag *
findConfigFlag(std::string_view flag)
{
    for (const ConfigFlag &f : configFlags())
        if (flag == f.flag)
            return &f;
    return nullptr;
}

std::string
applyConfigFlag(SimConfig &cfg, const ConfigFlag &f, const char *value)
{
    if (!f.arg) {
        f.field.set(cfg, 1);
        return {};
    }
    if (!f.names.empty()) {
        for (std::size_t i = 0; i < f.names.size(); ++i)
            if (f.names[i] == value) {
                f.field.set(cfg, i);
                return {};
            }
        return csprintf("%s: unknown value '%s' (%s)", f.flag, value,
                        f.help);
    }
    std::string error;
    if (auto v = parseU64(f.flag, value, f.min, f.max, error))
        f.field.set(cfg, *v);
    return error;
}

std::optional<std::string>
configFlagValue(const ConfigFlag &f, const SimConfig &cfg)
{
    static const SimConfig defaults{};
    const std::uint64_t v = f.field.get(cfg);
    if (v == f.field.get(defaults))
        return std::nullopt;
    if (!f.arg)
        return "";
    return v < f.names.size() ? f.names[v] : std::to_string(v);
}

std::uint64_t
parseU64OrDie(const std::string &what, const char *s, std::uint64_t min,
              std::uint64_t max)
{
    std::string error;
    auto v = parseU64(what, s, min, max, error);
    if (!v)
        fatal("%s", error.c_str());
    return *v;
}

} // namespace morrigan
