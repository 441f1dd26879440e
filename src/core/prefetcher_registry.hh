/**
 * @file
 * Plugin registry for STLB prefetchers.
 *
 * Every prefetcher configuration the simulator can instantiate is a
 * *plugin*: a named descriptor bundling a factory lambda with the
 * metadata the surrounding tooling needs (display spelling for
 * reports, a one-line description for --help, eligibility flags for
 * the fuzzer's config sampler and the ISO-storage tournament bench).
 * `morrigan-sim --prefetcher`, the fuzzer, the result-cache key
 * schema and the snapshot subsystem all resolve prefetchers through
 * this registry by *spec string*, so adding a competitor is one
 * registration call -- no enum, no switch, no CLI/cache/snapshot
 * plumbing.
 *
 * A spec is either a single plugin name ("morrigan", "mp-iso"), the
 * reserved name "none" (no prefetcher), or a '+'-joined composition
 * ("morrigan-mono+sp") which instantiates a CompositePrefetcher
 * fanning every iSTLB miss out to each member -- Virtuoso's
 * `TLBPrefetcherBase*[]` idiom, making hybrids first-class citizens
 * of every CLI flag, cache key and snapshot image.
 *
 * Registration protocol: each plugin translation unit exposes a
 * `registerXxxPrefetchers(PrefetcherRegistry &)` function; the
 * registry constructor calls the built-in ones. Explicit calls --
 * rather than static-initializer self-registration -- because the
 * simulator links as static archives, where unreferenced registrar
 * objects are legally dead-stripped. External code can add plugins at
 * runtime via registerPlugin() before the first makePrefetcher call.
 */

#ifndef MORRIGAN_CORE_PREFETCHER_REGISTRY_HH
#define MORRIGAN_CORE_PREFETCHER_REGISTRY_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tlb_prefetcher.hh"

namespace morrigan
{

/** Everything the tooling knows about one registered prefetcher. */
struct PrefetcherPlugin
{
    /** CLI spelling; also the result-cache key component. */
    std::string name;
    /** Report spelling used in bench rows and sweep tables. */
    std::string displayName;
    /** One line for --help. */
    std::string description;
    /** Construct a fresh instance of this configuration. */
    std::function<std::unique_ptr<TlbPrefetcher>()> factory;
    /** Eligible for the fuzzer's config sampler. */
    bool fuzzable = true;
    /** Entered into the ISO-storage tournament bench. */
    bool tournament = true;
};

/** Name-indexed plugin table; one process-wide instance. */
class PrefetcherRegistry
{
  public:
    /** The process-wide registry, built-ins pre-registered. */
    static PrefetcherRegistry &global();

    /** Register a plugin; duplicate names are a fatal error. */
    void registerPlugin(PrefetcherPlugin plugin);

    /** Look up by CLI name; nullptr when unknown ("none" included). */
    const PrefetcherPlugin *find(const std::string &name) const;

    /** All plugins in registration order. */
    const std::vector<PrefetcherPlugin> &plugins() const
    {
        return plugins_;
    }

    /** All CLI names in registration order. */
    std::vector<std::string> names() const;

    /** Comma-joined CLI names, for error messages and --help. */
    std::string namesJoined() const;

    /** Empty registry for tests; production code uses global(). */
    PrefetcherRegistry() = default;

  private:
    std::vector<PrefetcherPlugin> plugins_;
    std::unordered_map<std::string, std::size_t> index_;
};

/**
 * N prefetchers sharing one TLB: every iSTLB miss fans out to each
 * member, PB-hit credit is broadcast (members ignore tags whose
 * producer is not theirs), storage budgets sum. Snapshots serialize
 * members in composition order.
 */
class CompositePrefetcher : public TlbPrefetcher
{
  public:
    explicit CompositePrefetcher(
        std::vector<std::unique_ptr<TlbPrefetcher>> members);

    const char *name() const override { return name_.c_str(); }

    void onInstrStlbMiss(Vpn vpn, Addr pc, unsigned tid,
                         std::vector<PrefetchRequest> &out) override;

    void creditPbHit(const PrefetchTag &tag) override;

    void onContextSwitch() override;

    std::size_t storageBits() const override;

    std::uint64_t frequencyStackResets() const override;

    void save(SnapshotWriter &w) const override { transfer(*this, w); }
    void restore(SnapshotReader &r) override { transfer(*this, r); }

    std::size_t memberCount() const { return members_.size(); }
    TlbPrefetcher &member(std::size_t i) { return *members_[i]; }

  private:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.section("composite_pf");
        ar.expect(self.members_.size(),
                  "composite prefetcher member count");
        for (const auto &m : self.members_)
            ar.io(*m);
    }

    std::vector<std::unique_ptr<TlbPrefetcher>> members_;
    std::string name_;
};

/**
 * Instantiate the prefetcher a spec names: nullptr for "none", a
 * single plugin's factory product for its name, a
 * CompositePrefetcher for "a+b". Unknown names are fatal and list
 * every registered plugin.
 */
std::unique_ptr<TlbPrefetcher> makePrefetcher(const std::string &spec);

/**
 * Report spelling for a spec: the plugin's displayName, members
 * joined with '+' for compositions ("morrigan-mono+sp" ->
 * "Morrigan-mono+SP"), "none" unchanged. Fatal on unknown names.
 */
std::string prefetcherDisplayName(const std::string &spec);

/**
 * Validate a spec without instantiating; returns an empty string
 * when valid, otherwise a message naming the offending component
 * and listing every registered plugin.
 */
std::string checkPrefetcherSpec(const std::string &spec);

/** Split a spec on '+'; "none" and single names yield one element. */
std::vector<std::string> splitPrefetcherSpec(const std::string &spec);

} // namespace morrigan

#endif // MORRIGAN_CORE_PREFETCHER_REGISTRY_HH
