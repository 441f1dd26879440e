#include "prefetcher_registry.hh"

#include "common/logging.hh"
#include "core/baseline_prefetchers.hh"
#include "core/fdip.hh"
#include "core/fnl_mma_tlb.hh"
#include "core/mana.hh"
#include "core/morrigan.hh"

namespace morrigan
{

PrefetcherRegistry &
PrefetcherRegistry::global()
{
    static PrefetcherRegistry reg = [] {
        PrefetcherRegistry r;
        registerBaselinePrefetchers(r);
        registerMorriganPrefetchers(r);
        registerFnlMmaTlbPrefetcher(r);
        registerManaPrefetcher(r);
        registerFdipPrefetcher(r);
        return r;
    }();
    return reg;
}

void
PrefetcherRegistry::registerPlugin(PrefetcherPlugin plugin)
{
    fatal_if(plugin.name.empty() || plugin.name == "none",
             "invalid prefetcher plugin name '%s'",
             plugin.name.c_str());
    fatal_if(plugin.name.find('+') != std::string::npos,
             "prefetcher plugin name '%s' may not contain '+'",
             plugin.name.c_str());
    fatal_if(!plugin.factory, "prefetcher plugin '%s' has no factory",
             plugin.name.c_str());
    fatal_if(index_.count(plugin.name),
             "duplicate prefetcher plugin '%s'", plugin.name.c_str());
    index_.emplace(plugin.name, plugins_.size());
    plugins_.push_back(std::move(plugin));
}

const PrefetcherPlugin *
PrefetcherRegistry::find(const std::string &name) const
{
    auto it = index_.find(name);
    return it == index_.end() ? nullptr : &plugins_[it->second];
}

std::vector<std::string>
PrefetcherRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(plugins_.size());
    for (const PrefetcherPlugin &p : plugins_)
        out.push_back(p.name);
    return out;
}

std::string
PrefetcherRegistry::namesJoined() const
{
    std::string out;
    for (const PrefetcherPlugin &p : plugins_) {
        if (!out.empty())
            out += ", ";
        out += p.name;
    }
    return out;
}

CompositePrefetcher::CompositePrefetcher(
    std::vector<std::unique_ptr<TlbPrefetcher>> members)
    : members_(std::move(members))
{
    panic_if(members_.size() < 2,
             "composite prefetcher needs >= 2 members");
    for (const auto &m : members_) {
        if (!name_.empty())
            name_ += '+';
        name_ += m->name();
    }
}

void
CompositePrefetcher::onInstrStlbMiss(Vpn vpn, Addr pc, unsigned tid,
                                     std::vector<PrefetchRequest> &out)
{
    for (const auto &m : members_)
        m->onInstrStlbMiss(vpn, pc, tid, out);
}

void
CompositePrefetcher::creditPbHit(const PrefetchTag &tag)
{
    // Broadcast: every member filters on tag.producer (and, for
    // multi-table engines, on the tagged source page), so credit
    // reaches exactly the producing slot.
    for (const auto &m : members_)
        m->creditPbHit(tag);
}

void
CompositePrefetcher::onContextSwitch()
{
    for (const auto &m : members_)
        m->onContextSwitch();
}

std::size_t
CompositePrefetcher::storageBits() const
{
    std::size_t bits = 0;
    for (const auto &m : members_)
        bits += m->storageBits();
    return bits;
}

std::uint64_t
CompositePrefetcher::frequencyStackResets() const
{
    std::uint64_t resets = 0;
    for (const auto &m : members_)
        resets += m->frequencyStackResets();
    return resets;
}

std::vector<std::string>
splitPrefetcherSpec(const std::string &spec)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (;;) {
        std::size_t plus = spec.find('+', start);
        parts.push_back(spec.substr(start, plus - start));
        if (plus == std::string::npos)
            return parts;
        start = plus + 1;
    }
}

std::string
checkPrefetcherSpec(const std::string &spec)
{
    const PrefetcherRegistry &reg = PrefetcherRegistry::global();
    std::vector<std::string> parts = splitPrefetcherSpec(spec);
    for (const std::string &part : parts) {
        if (part == "none") {
            if (parts.size() > 1)
                return "'none' cannot be composed with other "
                       "prefetchers in spec '" + spec + "'";
            continue;
        }
        if (!reg.find(part)) {
            return "unknown prefetcher '" + part + "' in spec '" +
                   spec + "'; registered: " + reg.namesJoined();
        }
    }
    return "";
}

std::unique_ptr<TlbPrefetcher>
makePrefetcher(const std::string &spec)
{
    std::string err = checkPrefetcherSpec(spec);
    fatal_if(!err.empty(), "%s", err.c_str());
    if (spec == "none")
        return nullptr;
    const PrefetcherRegistry &reg = PrefetcherRegistry::global();
    std::vector<std::string> parts = splitPrefetcherSpec(spec);
    if (parts.size() == 1)
        return reg.find(parts[0])->factory();
    std::vector<std::unique_ptr<TlbPrefetcher>> members;
    members.reserve(parts.size());
    for (const std::string &part : parts)
        members.push_back(reg.find(part)->factory());
    return std::make_unique<CompositePrefetcher>(std::move(members));
}

std::string
prefetcherDisplayName(const std::string &spec)
{
    std::string err = checkPrefetcherSpec(spec);
    fatal_if(!err.empty(), "%s", err.c_str());
    if (spec == "none")
        return "none";
    const PrefetcherRegistry &reg = PrefetcherRegistry::global();
    std::string out;
    for (const std::string &part : splitPrefetcherSpec(spec)) {
        if (!out.empty())
            out += '+';
        out += reg.find(part)->displayName;
    }
    return out;
}

} // namespace morrigan
