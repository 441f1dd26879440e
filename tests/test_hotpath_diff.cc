/**
 * @file
 * Differential tests for the hot-path data-structure rewrites.
 *
 * Each suite embeds a straightforward reference implementation with
 * the semantics of the original (pre-rewrite) layout -- AoS cache
 * sets with an explicit valid flag and first-invalid-else-LRU victim
 * choice, AoS associative sets, an unordered_map frequency stack,
 * AoS LRU prediction tables,
 * full-range inverse-CDF Zipf sampling, a uniform() built from two
 * sequential next32() draws -- and drives the reference
 * and the optimised production structure through identical
 * pseudo-random operation sequences, comparing every observable
 * result. The production structures claim bit-identical behaviour;
 * these tests are the proof obligation for that claim at the unit
 * level (the fuzzer and figure goldens cover it end to end).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assoc_table.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "common/zipf.hh"
#include "core/frequency_stack.hh"
#include "core/prediction_table.hh"
#include "mem/cache_model.hh"
#include "vm/page_table.hh"

using namespace morrigan;

namespace
{

// ---------------------------------------------------------------
// Reference cache: array-of-structs ways, explicit valid flag,
// first-invalid way else true-LRU victim (strict < keeps the
// earliest way on ties), exactly the original CacheModel semantics.
// ---------------------------------------------------------------
class RefCache
{
  public:
    explicit RefCache(const CacheParams &p) : params_(p)
    {
        std::uint32_t lines = p.sizeBytes / 64;
        numSets_ = lines / p.ways;
        sets_.assign(numSets_, std::vector<Way>(p.ways));
    }

    bool
    lookup(Addr line)
    {
        ++accesses_;
        auto &set = setOf(line);
        for (auto &w : set) {
            if (w.valid && w.tag == line) {
                w.lastUse = ++clock_;
                return true;
            }
        }
        ++misses_;
        return false;
    }

    bool
    contains(Addr line) const
    {
        const auto &set = setOf(line);
        for (const auto &w : set)
            if (w.valid && w.tag == line)
                return true;
        return false;
    }

    bool
    insert(Addr line, bool is_prefetch)
    {
        auto &set = setOf(line);
        for (auto &w : set) {
            if (w.valid && w.tag == line) {
                w.lastUse = ++clock_;
                return false;
            }
        }
        Way *victim = nullptr;
        for (auto &w : set) {
            if (!w.valid) {
                victim = &w;
                break;
            }
            if (!victim || w.lastUse < victim->lastUse)
                victim = &w;
        }
        bool evicted = victim->valid;
        victim->valid = true;
        victim->tag = line;
        victim->prefetched = is_prefetch;
        victim->lastUse = ++clock_;
        return evicted;
    }

    bool
    invalidate(Addr line)
    {
        auto &set = setOf(line);
        for (auto &w : set) {
            if (w.valid && w.tag == line) {
                w.valid = false;
                w.lastUse = 0;
                return true;
            }
        }
        return false;
    }

    void
    flush()
    {
        for (auto &set : sets_)
            for (auto &w : set)
                w = Way{};
    }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Way
    {
        bool valid = false;
        bool prefetched = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
    };

    std::vector<Way> &setOf(Addr line)
    {
        return sets_[line & (numSets_ - 1)];
    }
    const std::vector<Way> &setOf(Addr line) const
    {
        return sets_[line & (numSets_ - 1)];
    }

    CacheParams params_;
    std::uint32_t numSets_;
    std::vector<std::vector<Way>> sets_;
    std::uint64_t clock_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

// Deterministic op mix over a line universe a few times larger than
// the cache so hits, misses, evictions and refreshes all occur.
void
driveCacheDiff(const CacheParams &params, std::uint64_t seed,
               int ops)
{
    CacheModel opt(params);
    RefCache ref(params);
    Rng rng(seed, 0x11);
    const Addr universe =
        4 * params.sizeBytes / 64;  // 4x capacity in lines

    for (int i = 0; i < ops; ++i) {
        Addr line = rng.below(static_cast<std::uint32_t>(universe));
        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2:
            ASSERT_EQ(opt.lookup(line), ref.lookup(line))
                << "lookup diverged at op " << i;
            break;
          case 3: {
            bool pf = rng.chance(0.3);
            ASSERT_EQ(opt.insert(line, pf), ref.insert(line, pf))
                << "insert diverged at op " << i;
            break;
          }
          case 4: {
            // fillMissed is only defined for absent lines; for those
            // it must do exactly what insert does.
            bool pf = rng.chance(0.3);
            if (ref.contains(line)) {
                ASSERT_EQ(opt.insert(line, pf), ref.insert(line, pf))
                    << "insert diverged at op " << i;
            } else {
                ASSERT_EQ(opt.fillMissed(line, pf),
                          ref.insert(line, pf))
                    << "fillMissed diverged at op " << i;
            }
            break;
          }
          case 5:
          case 6:
            ASSERT_EQ(opt.contains(line), ref.contains(line))
                << "contains diverged at op " << i;
            break;
          default:
            if (rng.chance(0.02)) {
                opt.flush();
                ref.flush();
            } else {
                ASSERT_EQ(opt.invalidate(line), ref.invalidate(line))
                    << "invalidate diverged at op " << i;
            }
        }
    }
    EXPECT_EQ(opt.stats().accesses, ref.accesses());
    EXPECT_EQ(opt.stats().misses, ref.misses());
}

// ---------------------------------------------------------------
// Reference associative table: AoS entries per set, identical way
// scan order and first-invalid-else-LRU victim policy.
// ---------------------------------------------------------------
class RefAssoc
{
  public:
    RefAssoc(std::uint32_t entries, std::uint32_t ways)
        : ways_(ways), numSets_(entries / ways),
          sets_(numSets_, std::vector<Entry>(ways))
    {
    }

    std::uint32_t *
    find(std::uint64_t key)
    {
        auto &set = setOf(key);
        for (auto &e : set) {
            if (e.valid && e.key == key) {
                e.lastUse = ++clock_;
                return &e.value;
            }
        }
        return nullptr;
    }

    const std::uint32_t *
    probe(std::uint64_t key) const
    {
        const auto &set = setOf(key);
        for (const auto &e : set)
            if (e.valid && e.key == key)
                return &e.value;
        return nullptr;
    }

    bool
    insert(std::uint64_t key, std::uint32_t value,
           std::uint64_t *evicted_key, std::uint32_t *evicted_value)
    {
        auto &set = setOf(key);
        for (auto &e : set) {
            if (e.valid && e.key == key) {
                e.value = value;
                e.lastUse = ++clock_;
                return false;
            }
        }
        Entry *victim = nullptr;
        for (auto &e : set) {
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (!victim || e.lastUse < victim->lastUse)
                victim = &e;
        }
        bool evicted = victim->valid;
        if (evicted) {
            *evicted_key = victim->key;
            *evicted_value = victim->value;
        }
        victim->valid = true;
        victim->key = key;
        victim->value = value;
        victim->lastUse = ++clock_;
        if (!evicted)
            ++population_;
        return evicted;
    }

    bool
    insertNoEvict(std::uint64_t key, std::uint32_t value)
    {
        auto &set = setOf(key);
        for (auto &e : set) {
            if (e.valid && e.key == key) {
                e.value = value;
                e.lastUse = ++clock_;
                return true;
            }
        }
        for (auto &e : set) {
            if (!e.valid) {
                e.valid = true;
                e.key = key;
                e.value = value;
                e.lastUse = ++clock_;
                ++population_;
                return true;
            }
        }
        return false;
    }

    bool
    erase(std::uint64_t key)
    {
        auto &set = setOf(key);
        for (auto &e : set) {
            if (e.valid && e.key == key) {
                e.valid = false;
                --population_;
                return true;
            }
        }
        return false;
    }

    std::uint32_t population() const { return population_; }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t key = 0;
        std::uint32_t value = 0;
        std::uint64_t lastUse = 0;
    };

    std::vector<Entry> &setOf(std::uint64_t key)
    {
        return sets_[static_cast<std::uint32_t>(key) &
                     (numSets_ - 1)];
    }
    const std::vector<Entry> &setOf(std::uint64_t key) const
    {
        return sets_[static_cast<std::uint32_t>(key) &
                     (numSets_ - 1)];
    }

    std::uint32_t ways_;
    std::uint32_t numSets_;
    std::vector<std::vector<Entry>> sets_;
    std::uint64_t clock_ = 0;
    std::uint32_t population_ = 0;
};

// Signed keys (DP's PageDelta) are drawn around zero, so -1 and 0 --
// values no key lane could spare as an invalid marker -- are live;
// the reference holds them as their two's-complement uint64 images,
// which index and compare alike. Halfway through, the table is
// replaced by its own snapshot.
template <typename KeyT = std::uint64_t>
void
driveAssocDiff(std::uint32_t entries, std::uint32_t ways,
               std::uint64_t seed, int ops)
{
    using Table = SetAssocTable<KeyT, std::uint32_t>;
    Table opt(entries, ways);
    RefAssoc ref(entries, ways);
    Rng rng(seed, 0x22);
    const std::uint32_t universe = 4 * entries;
    const KeyT offset = std::is_signed_v<KeyT> ? universe / 2 : 0;
    auto save_value = [](SnapshotWriter &w, const std::uint32_t &v) {
        w.u32(v);
    };
    auto load_value = [](SnapshotReader &r, std::uint32_t &v) {
        v = r.u32();
    };

    for (int i = 0; i < ops; ++i) {
        if (i == ops / 2) {
            SnapshotWriter w;
            opt.save(w, save_value);
            SnapshotReader r = SnapshotReader::fromPayload(w.payload());
            Table resumed(entries, ways);
            resumed.restore(r, load_value);
            opt = resumed;
        }
        KeyT key = static_cast<KeyT>(rng.below(universe)) - offset;
        const auto rkey = static_cast<std::uint64_t>(key);
        std::uint32_t value = rng.next32();
        switch (rng.below(6)) {
          case 0:
          case 1: {
            std::uint32_t *a = opt.find(key);
            std::uint32_t *b = ref.find(rkey);
            ASSERT_EQ(a != nullptr, b != nullptr)
                << "find diverged at op " << i;
            if (a)
                ASSERT_EQ(*a, *b);
            break;
          }
          case 2: {
            const auto &copt = opt;
            const std::uint32_t *a = copt.probe(key);
            const std::uint32_t *b = ref.probe(rkey);
            ASSERT_EQ(a != nullptr, b != nullptr)
                << "probe diverged at op " << i;
            if (a)
                ASSERT_EQ(*a, *b);
            break;
          }
          case 3: {
            KeyT ek_a = 0;
            std::uint64_t ek_b = 0;
            std::uint32_t ev_a = 0, ev_b = 0;
            bool ea = opt.insert(key, value, &ek_a, &ev_a);
            bool eb = ref.insert(rkey, value, &ek_b, &ev_b);
            ASSERT_EQ(ea, eb) << "insert diverged at op " << i;
            if (ea) {
                ASSERT_EQ(static_cast<std::uint64_t>(ek_a), ek_b);
                ASSERT_EQ(ev_a, ev_b);
            }
            break;
          }
          case 4:
            ASSERT_EQ(opt.insertNoEvict(key, value),
                      ref.insertNoEvict(rkey, value))
                << "insertNoEvict diverged at op " << i;
            break;
          default:
            ASSERT_EQ(opt.erase(key), ref.erase(rkey))
                << "erase diverged at op " << i;
        }
        ASSERT_EQ(opt.population(), ref.population());
    }
}

// ---------------------------------------------------------------
// Reference LRU prediction table: AoS entries carrying their own
// valid flag, partial tag and lastUse; first invalid way, else the
// first way with the smallest lastUse.
// ---------------------------------------------------------------
class RefPrt
{
  public:
    explicit RefPrt(const PrtGeometry &g)
        : numSets_(g.entries / g.ways), slots_(g.slots),
          sets_(numSets_, std::vector<Entry>(g.ways))
    {
        while ((1u << setShift_) < numSets_)
            ++setShift_;
    }

    /** @return the entry for @p vpn, updating recency if @p touch. */
    const PrtSlotList *
    find(Vpn vpn, bool touch)
    {
        for (Entry &e : setOf(vpn)) {
            if (e.valid && e.tag == tagOf(vpn)) {
                if (touch)
                    e.lastUse = ++clock_;
                return &e.slots;
            }
        }
        return nullptr;
    }

    bool
    install(Vpn vpn, PrtSlotList slots, Vpn *evicted_vpn)
    {
        slots.resize(slots_);
        std::vector<Entry> &set = setOf(vpn);
        for (Entry &e : set) {
            if (e.valid && e.tag == tagOf(vpn)) {
                e.vpn = vpn;
                e.slots = slots;
                e.lastUse = ++clock_;
                return false;
            }
        }
        Entry *victim = nullptr;
        for (Entry &e : set) {
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (!victim || e.lastUse < victim->lastUse)
                victim = &e;
        }
        bool evicted = victim->valid;
        if (evicted)
            *evicted_vpn = victim->vpn;
        else
            ++population_;
        *victim = Entry{true, tagOf(vpn), vpn, slots, ++clock_};
        return evicted;
    }

    bool
    erase(Vpn vpn)
    {
        for (Entry &e : setOf(vpn)) {
            if (e.valid && e.tag == tagOf(vpn)) {
                e.valid = false;
                --population_;
                return true;
            }
        }
        return false;
    }

    void
    flush()
    {
        for (auto &set : sets_)
            for (Entry &e : set)
                e.valid = false;
        population_ = 0;
    }

    std::uint32_t population() const { return population_; }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        Vpn vpn = 0;
        PrtSlotList slots;
        std::uint64_t lastUse = 0;
    };

    std::uint16_t
    tagOf(Vpn vpn) const
    {
        std::uint64_t v = vpn >> setShift_;
        return static_cast<std::uint16_t>(v ^ (v >> 16) ^ (v >> 32));
    }

    std::vector<Entry> &setOf(Vpn vpn)
    {
        return sets_[static_cast<std::uint32_t>(vpn) & (numSets_ - 1)];
    }

    std::uint32_t numSets_;
    std::uint32_t slots_;
    unsigned setShift_ = 0;
    std::vector<std::vector<Entry>> sets_;
    std::uint64_t clock_ = 0;
    std::uint32_t population_ = 0;
};

void
expectSameSlots(const PrtSlotList &a, const PrtSlotList &b, int op)
{
    ASSERT_EQ(a.size(), b.size()) << "slot count diverged at op " << op;
    for (std::size_t s = 0; s < a.size(); ++s) {
        ASSERT_EQ(a[s].valid, b[s].valid) << "op " << op;
        ASSERT_EQ(a[s].distance, b[s].distance) << "op " << op;
        ASSERT_EQ(a[s].confidence, b[s].confidence) << "op " << op;
    }
}

void
drivePrtDiff(const PrtGeometry &geom, std::uint64_t seed, int ops)
{
    FrequencyStack freq(0);
    Rng policy_rng(seed, 0x77);
    PredictionTable opt(geom, ReplacementPolicy::Lru, freq, policy_rng);
    RefPrt ref(geom);
    Rng rng(seed, 0x88);
    // Far from zero so the folded partial tags see high VPN bits.
    const Vpn first = 0x7f3a5c000;
    const std::uint32_t universe = 4 * geom.entries;

    for (int i = 0; i < ops; ++i) {
        Vpn vpn = first + rng.below(universe);
        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2: {
            PrtEntry *a = opt.lookup(vpn);
            const PrtSlotList *b = ref.find(vpn, true);
            ASSERT_EQ(a != nullptr, b != nullptr)
                << "lookup diverged at op " << i;
            if (a)
                expectSameSlots(a->slots, *b, i);
            break;
          }
          case 3: {
            const PrtEntry *a = std::as_const(opt).probe(vpn);
            const PrtSlotList *b = ref.find(vpn, false);
            ASSERT_EQ(a != nullptr, b != nullptr)
                << "probe diverged at op " << i;
            break;
          }
          case 4:
          case 5: {
            PrtSlotList slots;
            for (std::uint32_t n = rng.below(geom.slots + 1); n > 0; --n)
                slots.push_back(
                    {static_cast<PageDelta>(rng.below(64)) - 32,
                     static_cast<std::uint8_t>(rng.below(4)),
                     rng.chance(0.7)});
            Vpn ev_a = 0, ev_b = 0;
            bool ea = opt.install(vpn, slots, &ev_a);
            bool eb = ref.install(vpn, slots, &ev_b);
            ASSERT_EQ(ea, eb) << "install diverged at op " << i;
            if (ea) {
                ASSERT_EQ(ev_a, ev_b) << "victim diverged at op " << i;
            }
            break;
          }
          default:
            if (rng.chance(0.01)) {
                opt.flush();
                ref.flush();
            } else {
                ASSERT_EQ(opt.erase(vpn), ref.erase(vpn))
                    << "erase diverged at op " << i;
            }
        }
        ASSERT_EQ(opt.population(), ref.population());
    }
}

} // namespace

TEST(HotpathDiff, CacheModelMatchesAosReference)
{
    // L1-like: 64 sets x 8 ways (one full AVX2 row per set).
    driveCacheDiff(CacheParams{"l1", 32 * 1024, 8, 4}, 1, 200000);
    // LLC-like: 16 ways (two AVX2 rows per set).
    driveCacheDiff(CacheParams{"llc", 256 * 1024, 16, 10}, 2,
                   200000);
    // Ways not a multiple of the SIMD width exercise row padding and
    // the scalar victim choice.
    driveCacheDiff(CacheParams{"odd", 24 * 1024, 6, 4}, 3, 200000);
    // Multiples of four below and between the SIMD rows take the
    // vector victim choice with one and three recency vectors.
    driveCacheDiff(CacheParams{"quad", 16 * 1024, 4, 4}, 4, 200000);
    driveCacheDiff(CacheParams{"dozen", 48 * 1024, 12, 4}, 5,
                   200000);
}

TEST(HotpathDiff, AssocTableMatchesAosReference)
{
    // Multiples of four up to 64 take the kernel's vector victim
    // choice (one to sixteen recency vectors), others the scalar one.
    driveAssocDiff(64, 4, 1, 100000);    // iTLB-like
    driveAssocDiff(1536, 12, 2, 100000); // STLB-like
    driveAssocDiff(64, 64, 3, 100000);   // fully associative
    driveAssocDiff(96, 6, 4, 100000);    // scalar victim
    driveAssocDiff(128, 8, 5, 100000);
    driveAssocDiff(256, 16, 6, 100000);
}

TEST(HotpathDiff, SignedKeyAssocTableMatchesAosReference)
{
    // DP's distance table: 128 x 8 keyed by PageDelta.
    driveAssocDiff<PageDelta>(128, 8, 7, 100000);
    driveAssocDiff<PageDelta>(96, 6, 8, 100000);
}

TEST(HotpathDiff, LruPredictionTableMatchesAosReference)
{
    // IRIP's geometries: PRT-S1/S2/S4 (128 x 32) and PRT-S8 (64 x 16).
    drivePrtDiff({"prt_s1", 128, 32, 1}, 1, 100000);
    drivePrtDiff({"prt_s4", 128, 32, 4}, 2, 100000);
    drivePrtDiff({"prt_s8", 64, 16, 8}, 3, 100000);
}

TEST(HotpathDiff, ZipfGuidedSearchMatchesFullRange)
{
    // The workload factory's populations and skews: hot code pages
    // (32-240, theta 0.2-0.8), request types (6-63, 0.85-1.1), hot
    // data pages (256-512, 0.4-0.9) and lines per page (64, 0.9);
    // plus odd sizes, a singleton, and a population past the guide's
    // bucket cap, which keeps the bracketed search.
    const std::pair<std::size_t, double> cases[] = {
        {32, 0.8},    {140, 0.2},   {240, 0.45},  {6, 0.9},
        {36, 0.85},   {63, 1.1},    {256, 0.4},   {448, 0.9},
        {512, 0.65},  {64, 0.9},    {320, 0.98},  {777, 1.21},
        {1, 0.5},     {32768, 0.8}};
    for (auto [n, theta] : cases) {
        ZipfSampler z(n, theta);
        // Rebuild the CDF exactly as the sampler's constructor does
        // (same expression order, so identical doubles), then answer
        // every draw with the original full-range lower_bound.
        std::vector<double> cdf(n);
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            acc += 1.0 / std::pow(static_cast<double>(i + 1), theta);
            cdf[i] = acc;
        }
        for (std::size_t i = 0; i < n; ++i)
            cdf[i] /= acc;

        Rng a(7, 0x33), b(7, 0x33);
        for (int i = 0; i < 200000; ++i) {
            std::size_t got = z.sample(a);
            double u = b.uniform();
            auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
            std::size_t want = it == cdf.end()
                                   ? n - 1
                                   : static_cast<std::size_t>(
                                         it - cdf.begin());
            ASSERT_EQ(got, want)
                << "guided sample diverged at draw " << i << " (n="
                << n << ", theta=" << theta << ")";
        }
    }
}

TEST(HotpathDiff, RngUniformMatchesTwoDraws)
{
    // The original uniform(): two sequential next32() draws.
    auto twoDraws = [](Rng &r) {
        std::uint64_t hi = r.next32() >> 6;
        std::uint64_t lo = r.next32() >> 5;
        return ((hi << 27) | lo) * (1.0 / 9007199254740992.0);
    };
    const std::pair<std::uint64_t, std::uint64_t> streams[] = {
        {0x853c49e6748fea9bULL, 0xda3e39cb94b95bdbULL},
        {0, 0},
        {7, 0x33},
        {~std::uint64_t{0}, ~std::uint64_t{0}},
        {0x9000, 0x51}};
    for (auto [seed, stream] : streams) {
        Rng opt(seed, stream), ref(seed, stream);
        Rng ops(seed ^ 0x5a5a, 0x66);
        for (int i = 0; i < 100000; ++i) {
            if (i == 50000) {
                // Resume from a mid-stream snapshot.
                SnapshotWriter w;
                opt.save(w);
                SnapshotReader r = SnapshotReader::fromPayload(w.payload());
                Rng resumed;
                resumed.restore(r);
                opt = resumed;
            }
            switch (ops.below(4)) {
              case 0:
              case 1:
                ASSERT_EQ(opt.uniform(), twoDraws(ref))
                    << "uniform diverged at op " << i;
                break;
              case 2: {
                std::uint32_t bound = ops.below(1000) + 1;
                ASSERT_EQ(opt.below(bound), ref.below(bound))
                    << "below diverged at op " << i;
                break;
              }
              default: {
                double p = ops.uniform();
                ASSERT_EQ(opt.chance(p), twoDraws(ref) < p)
                    << "chance diverged at op " << i;
              }
            }
        }
        SnapshotWriter a, b;
        opt.save(a);
        ref.save(b);
        EXPECT_EQ(a.payload(), b.payload());
    }
}

TEST(HotpathDiff, FrequencyStackMatchesMapReference)
{
    for (std::uint64_t interval : {std::uint64_t{0}, std::uint64_t{64},
                                   std::uint64_t{8192}}) {
        FrequencyStack opt(interval);
        std::unordered_map<Vpn, std::uint32_t> ref;
        std::uint64_t sinceReset = 0, resets = 0;
        Rng rng(interval + 5, 0x44);

        for (int i = 0; i < 100000; ++i) {
            Vpn vpn = rng.below(512);
            if (rng.chance(0.9)) {
                opt.recordMiss(vpn);
                ++ref[vpn];
                if (interval != 0 && ++sinceReset >= interval) {
                    ref.clear();
                    sinceReset = 0;
                    ++resets;
                }
            } else if (rng.chance(0.02)) {
                opt.clear();
                ref.clear();
                sinceReset = 0;
            } else {
                auto it = ref.find(vpn);
                std::uint32_t want =
                    it == ref.end() ? 0 : it->second;
                ASSERT_EQ(opt.frequency(vpn), want)
                    << "frequency diverged at op " << i;
            }
            ASSERT_EQ(opt.trackedPages(), ref.size());
        }
        EXPECT_EQ(opt.resets(), resets);
    }
}

namespace
{

/** Mirrors mapping creation into plain maps for cross-checking
 * translate(). */
class MirrorObserver : public PageTableObserver
{
  public:
    void onMap4K(Vpn vpn, Pfn pfn) override { map4k[vpn] = pfn; }
    void onMap2M(Vpn base_vpn, Pfn base_pfn) override
    {
        map2m[base_vpn] = base_pfn;
    }

    std::unordered_map<Vpn, Pfn> map4k;
    std::unordered_map<Vpn, Pfn> map2m;
};

} // namespace

TEST(HotpathDiff, PageTableTranslateMatchesMirror)
{
    PhysMem phys{1 << 20, 1};
    PageTable pt{phys};
    MirrorObserver mirror;
    pt.setObserver(&mirror);

    pt.mapRange(0x10000, 700);
    pt.mapLargePage(0x8000000);
    pt.mapLargePage(0x8000000 + pagesPerLargePage);
    Rng rng(9, 0x55);
    for (int i = 0; i < 300; ++i)
        pt.mapPage(0x20000 + rng.below(4096));

    auto check = [&](Vpn vpn) {
        TranslateResult got = pt.translate(vpn);
        auto it4 = mirror.map4k.find(vpn);
        if (it4 != mirror.map4k.end()) {
            EXPECT_TRUE(got.mapped);
            EXPECT_FALSE(got.large);
            EXPECT_EQ(got.pfn, it4->second);
            return;
        }
        auto it2 = mirror.map2m.find(largePageBase(vpn));
        if (it2 != mirror.map2m.end()) {
            EXPECT_TRUE(got.mapped);
            EXPECT_TRUE(got.large);
            EXPECT_EQ(got.pfn,
                      it2->second + (vpn & (pagesPerLargePage - 1)));
            return;
        }
        EXPECT_FALSE(got.mapped);
    };

    for (Vpn vpn = 0x10000 - 8; vpn < 0x10000 + 708; ++vpn)
        check(vpn);
    for (Vpn vpn = 0x8000000 - 8;
         vpn < 0x8000000 + 2 * pagesPerLargePage + 8; ++vpn)
        check(vpn);
    for (int i = 0; i < 5000; ++i)
        check(0x20000 + rng.below(8192));
}
