#include "prediction_table.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/set_kernel.hh"

namespace morrigan
{

namespace
{

constexpr std::uint32_t noIdx = ~std::uint32_t{0};

} // anonymous namespace

const char *
replacementPolicyName(ReplacementPolicy p)
{
    switch (p) {
      case ReplacementPolicy::Lru:
        return "LRU";
      case ReplacementPolicy::Random:
        return "Random";
      case ReplacementPolicy::Lfu:
        return "LFU";
      case ReplacementPolicy::Rlfu:
        return "RLFU";
    }
    return "?";
}

PredictionTable::PredictionTable(const PrtGeometry &geom,
                                 ReplacementPolicy policy,
                                 FrequencyStack &freq, Rng &rng)
    : geom_(geom), policy_(policy), freq_(freq), rng_(rng)
{
    fatal_if(geom_.ways == 0 || geom_.entries == 0 ||
             geom_.entries % geom_.ways != 0,
             "%s: bad geometry %u entries / %u ways",
             geom_.name.c_str(), geom_.entries, geom_.ways);
    numSets_ = geom_.entries / geom_.ways;
    fatal_if((numSets_ & (numSets_ - 1)) != 0,
             "%s: %u sets is not a power of two",
             geom_.name.c_str(), numSets_);
    fatal_if(geom_.slots == 0, "%s: zero prediction slots",
             geom_.name.c_str());
    fatal_if(geom_.slots > PrtSlotList::maxSlots,
             "%s: %u slots exceeds the inline capacity of %zu",
             geom_.name.c_str(), geom_.slots, PrtSlotList::maxSlots);
    setShift_ = 0;
    while ((1u << setShift_) < numSets_)
        ++setShift_;
    entries_.assign(geom_.entries, PrtEntry{});
    tags_.assign(geom_.entries, 0);
    rec_.assign(geom_.entries, 0);
    for (PrtEntry &e : entries_)
        e.slots.resize(geom_.slots);
    freqScratch_.assign(geom_.ways, 0);
    orderScratch_.assign(geom_.ways, 0);
}

std::uint32_t
PredictionTable::baseOf(Vpn vpn) const
{
    return (static_cast<std::uint32_t>(vpn) & (numSets_ - 1)) *
           geom_.ways;
}

std::uint16_t
PredictionTable::tagOf(Vpn vpn) const
{
    // XOR-folded partial tag: cheap in hardware and far more robust
    // against regularly spaced code segments than plain truncation.
    std::uint64_t v = vpn >> setShift_;
    return static_cast<std::uint16_t>(v ^ (v >> 16) ^ (v >> 32));
}

std::uint32_t
PredictionTable::findIdx(std::uint32_t base, std::uint16_t tag) const
{
    int w = set_kernel::findKey(tags_.data() + base, rec_.data() + base,
                                geom_.ways, tag);
    return w < 0 ? noIdx : base + static_cast<std::uint32_t>(w);
}

PrtEntry *
PredictionTable::lookup(Vpn vpn)
{
    std::uint32_t i = findIdx(baseOf(vpn), tagOf(vpn));
    if (i == noIdx)
        return nullptr;
    rec_[i] = ++useClock_;
    return &entries_[i];
}

PrtEntry *
PredictionTable::probe(Vpn vpn)
{
    std::uint32_t i = findIdx(baseOf(vpn), tagOf(vpn));
    return i == noIdx ? nullptr : &entries_[i];
}

const PrtEntry *
PredictionTable::probe(Vpn vpn) const
{
    std::uint32_t i = findIdx(baseOf(vpn), tagOf(vpn));
    return i == noIdx ? nullptr : &entries_[i];
}

std::uint32_t
PredictionTable::selectVictim(std::uint32_t base)
{
    const std::uint32_t ways = geom_.ways;

    // Invalid ways first, under every policy.
    const std::uint32_t lru =
        base + set_kernel::victimWay(rec_.data() + base, ways);
    if (rec_[lru] == 0)
        return lru;

    switch (policy_) {
      case ReplacementPolicy::Lru:
        return lru;
      case ReplacementPolicy::Random:
        return base + rng_.below(ways);
      case ReplacementPolicy::Lfu: {
        // Gather the per-way frequencies once, then reduce; this
        // replaces a hash probe per comparison with one per way.
        std::uint32_t *f = freqScratch_.data();
        for (std::uint32_t w = 0; w < ways; ++w)
            f[w] = freq_.frequency(entries_[base + w].vpn);
        std::uint32_t victim = 0;
        std::uint32_t best = f[0];
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (f[w] < best ||
                (f[w] == best &&
                 rec_[base + w] < rec_[base + victim])) {
                victim = w;
                best = f[w];
            }
        }
        return base + victim;
      }
      case ReplacementPolicy::Rlfu: {
        // Order ways by frequency and pick uniformly among the
        // least-frequent quartile (at least two candidates). A
        // recently installed entry with a low count can thereby
        // survive a conflict it would always lose under pure LFU.
        // Sorting way indices over a pre-gathered frequency array
        // produces the exact permutation the pointer sort over live
        // frequency() calls did (same initial order, same comparator
        // outcomes), so the victim choice -- and the RNG draw that
        // follows -- is bit-identical.
        std::uint32_t *f = freqScratch_.data();
        std::uint32_t *order = orderScratch_.data();
        for (std::uint32_t w = 0; w < ways; ++w) {
            f[w] = freq_.frequency(entries_[base + w].vpn);
            order[w] = w;
        }
        std::sort(order, order + ways,
                  [f](std::uint32_t a, std::uint32_t b) {
                      return f[a] < f[b];
                  });
        std::uint32_t candidates = std::max<std::uint32_t>(2, ways / 4);
        candidates = std::min(candidates, ways);
        return base + order[rng_.below(candidates)];
      }
    }
    return base;
}

bool
PredictionTable::install(Vpn vpn, PrtSlotList slots, Vpn *evicted_vpn)
{
    const std::uint32_t base = baseOf(vpn);
    const std::uint16_t tag = tagOf(vpn);

    slots.resize(geom_.slots);

    std::uint32_t i = findIdx(base, tag);
    if (i != noIdx) {
        PrtEntry &e = entries_[i];
        e.vpn = vpn;
        e.slots = slots;
        rec_[i] = ++useClock_;
        return false;
    }

    const std::uint32_t v = selectVictim(base);
    PrtEntry &victim = entries_[v];
    bool evicted = rec_[v] != 0;
    if (evicted && evicted_vpn)
        *evicted_vpn = victim.vpn;
    if (!evicted)
        ++population_;

    victim.vpn = vpn;
    victim.slots = slots;
    tags_[v] = tag;
    rec_[v] = ++useClock_;
    return evicted;
}

bool
PredictionTable::erase(Vpn vpn)
{
    std::uint32_t i = findIdx(baseOf(vpn), tagOf(vpn));
    if (i == noIdx)
        return false;
    for (PrtSlot &s : entries_[i].slots)
        s = PrtSlot{};
    rec_[i] = 0;
    --population_;
    return true;
}

void
PredictionTable::flush()
{
    for (PrtEntry &e : entries_)
        for (PrtSlot &s : e.slots)
            s = PrtSlot{};
    std::fill(rec_.begin(), rec_.end(), std::uint64_t{0});
    population_ = 0;
}

bool
PredictionTable::addDistance(Vpn vpn, PageDelta dist)
{
    PrtEntry *e = probe(vpn);
    if (!e)
        return false;
    for (PrtSlot &s : e->slots)
        if (s.valid && s.distance == dist)
            return true;  // already predicted
    for (PrtSlot &s : e->slots) {
        if (!s.valid) {
            s.valid = true;
            s.distance = dist;
            s.confidence = 0;
            return true;
        }
    }
    return false;  // full: caller transfers or victimises a slot
}

bool
PredictionTable::replaceMinConfidenceSlot(Vpn vpn, PageDelta dist)
{
    PrtEntry *e = probe(vpn);
    if (!e)
        return false;
    PrtSlot *victim = &e->slots[0];
    for (PrtSlot &s : e->slots)
        if (s.confidence < victim->confidence)
            victim = &s;
    victim->valid = true;
    victim->distance = dist;
    victim->confidence = 0;
    return true;
}

bool
PredictionTable::creditSlot(Vpn vpn, PageDelta dist)
{
    PrtEntry *e = probe(vpn);
    if (!e)
        return false;
    for (PrtSlot &s : e->slots) {
        if (s.valid && s.distance == dist) {
            if (s.confidence < confidenceMax)
                ++s.confidence;
            return true;
        }
    }
    return false;
}

std::size_t
PredictionTable::storageBits() const
{
    return static_cast<std::size_t>(geom_.entries) *
           (tagBits + geom_.slots * (distanceBits + confidenceBits));
}

template <class Self, class Ar>
void
PredictionTable::transfer(Self &self, Ar &ar)
{
    const std::string &name = self.geom_.name;
    ar.section("prt");
    ar.expect(name, "prediction table");
    ar.expect(self.geom_.entries, "prediction table '" + name + "' entries");
    ar.expect(self.geom_.ways, "prediction table '" + name + "' ways");
    ar.expect(self.geom_.slots, "prediction table '" + name + "' slots");
    ar.io(self.useClock_);
    if constexpr (Ar::loading)
        self.population_ = 0;
    for (std::uint32_t i = 0; i < self.geom_.entries; ++i) {
        auto &e = self.entries_[i];
        bool live = self.rec_[i] != 0;
        ar.io(live);
        if (!live) {
            if constexpr (Ar::loading) {
                e = PrtEntry{};
                self.tags_[i] = 0;
                self.rec_[i] = 0;
            }
            continue;
        }
        ioAs<std::uint32_t>(ar, self.tags_[i]);
        ar.io(e.vpn);
        ar.io(self.rec_[i]);
        std::uint64_t nslots = e.slots.size();
        ar.io(nslots);
        if constexpr (Ar::loading) {
            if (!set_kernel::validRecency(self.rec_[i]))
                throw SnapshotError("prediction table '" + name +
                                    "': valid entry with recency " +
                                    std::to_string(self.rec_[i]));
            if (nslots > PrtSlotList::maxSlots)
                throw SnapshotError("prediction table '" + name +
                                    "': slot count out of range");
            e.slots.resize(static_cast<std::size_t>(nslots));
            ++self.population_;
        }
        for (auto &s : e.slots) {
            ar.io(s.valid);
            ar.io(s.distance);
            ar.io(s.confidence);
        }
    }
}

void PredictionTable::save(SnapshotWriter &w) const { transfer(*this, w); }
void PredictionTable::restore(SnapshotReader &r) { transfer(*this, r); }

} // namespace morrigan
