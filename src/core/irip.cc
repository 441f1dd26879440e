#include "irip.hh"

#include <algorithm>
#include <cmath>

#include "check/invariants.hh"
#include "common/logging.hh"

namespace morrigan
{

namespace
{

/**
 * A PRT promotion must carry the whole successor set: every valid
 * distance the source entry held must be present in the destination
 * entry after install.
 */
bool
promotionPreservedSuccessors(PredictionTable &dst, Vpn vpn,
                             const PrtSlotList &expect)
{
    PrtEntry *e = dst.probe(vpn);
    if (!e || e->vpn != vpn)
        return false;
    for (const PrtSlot &s : expect) {
        if (!s.valid)
            continue;
        bool found = false;
        for (const PrtSlot &d : e->slots) {
            if (d.valid && d.distance == s.distance) {
                found = true;
                break;
            }
        }
        if (!found)
            return false;
    }
    return true;
}

} // namespace

IripParams
IripParams::scaled(double factor) const
{
    IripParams p = *this;
    for (PrtGeometry &g : p.tables) {
        double scaled_entries = std::round(g.entries * factor);
        std::uint32_t e = 1;
        while (e < scaled_entries)
            e <<= 1;
        // Round to the nearest power of two so set counts stay valid.
        if (e > 1 &&
            (scaled_entries - e / 2.0) < (e - scaled_entries))
            e >>= 1;
        g.entries = std::max<std::uint32_t>(e, g.ways);
        if (g.entries < g.ways)
            g.ways = g.entries;
    }
    return p;
}

IripParams
IripParams::fullyAssociative() const
{
    IripParams p = *this;
    for (PrtGeometry &g : p.tables)
        g.ways = g.entries;
    return p;
}

Irip::Irip(const IripParams &params)
    : params_(params),
      freq_(params.freqResetInterval),
      rng_(iripRngSeed)
{
    fatal_if(params_.tables.empty(), "IRIP needs at least one table");
    fatal_if(params_.tables.size() > 8, "IRIP supports up to 8 tables");
    std::uint32_t prev_slots = 0;
    for (const PrtGeometry &g : params_.tables) {
        fatal_if(g.slots <= prev_slots && prev_slots != 0,
                 "IRIP tables must have ascending slot counts");
        prev_slots = g.slots;
        tables_.push_back(std::make_unique<PredictionTable>(
            g, params_.policy, freq_, rng_));
    }
}

int
Irip::findTable(Vpn vpn) const
{
    for (std::size_t i = 0; i < tables_.size(); ++i)
        if (tables_[i]->probe(vpn))
            return static_cast<int>(i);
    return -1;
}

bool
Irip::entryResidesInMultipleTables(Vpn vpn) const
{
    unsigned count = 0;
    for (const auto &t : tables_)
        if (t->probe(vpn))
            ++count;
    return count > 1;
}

void
Irip::updatePreviousEntry(Vpn prev_vpn, int prev_table, PageDelta dist)
{
    panic_if(prev_table < 0 ||
             prev_table >= static_cast<int>(tables_.size()),
             "bad previous-table register %d", prev_table);

    PredictionTable &table = *tables_[prev_table];
    PrtEntry *entry = table.probe(prev_vpn);
    if (!entry || entry->vpn != prev_vpn) {
        // The entry was evicted (or aliased away) since the register
        // was written; drop the update.
        return;
    }

    if (table.addDistance(prev_vpn, dist))
        return;

    // All slots occupied by other distances.
    bool terminal =
        prev_table == static_cast<int>(tables_.size()) - 1;
    if (terminal) {
        // Figure 12 steps 24-25: victimise the lowest-confidence slot.
        table.replaceMinConfidenceSlot(prev_vpn, dist);
        return;
    }

    // Figure 12 steps 19-23: transfer the entry, with the new
    // distance appended, into the next larger table.
    PrtSlotList slots = entry->slots;
    PrtSlot fresh;
    fresh.valid = true;
    fresh.distance = dist;
    fresh.confidence = 0;
    slots.push_back(fresh);

    PrtSlotList expect;
    if (check::invariantCheckLevel() >= 2)
        expect = slots;
    table.erase(prev_vpn);
    tables_[prev_table + 1]->install(prev_vpn, slots);
    MORRIGAN_CHECK_INVARIANT(
        2,
        promotionPreservedSuccessors(*tables_[prev_table + 1],
                                     prev_vpn, expect),
        "IRIP promotion of vpn %#llx from table %d dropped part of "
        "its successor set",
        static_cast<unsigned long long>(prev_vpn), prev_table);
}

void
Irip::onInstrStlbMiss(Vpn vpn, Addr pc, unsigned tid,
                      std::vector<PrefetchRequest> &out)
{
    (void)pc;
    panic_if(tid >= 2, "IRIP shares tables between up to 2 threads");
    History &h = hist_[tid];

    freq_.recordMiss(vpn);

    // 1. Parallel lookup in all tables; at most one can hit.
    int hit_table = -1;
    PrtEntry *entry = nullptr;
    for (std::size_t i = 0; i < tables_.size(); ++i) {
        if (PrtEntry *e = tables_[i]->lookup(vpn)) {
            hit_table = static_cast<int>(i);
            entry = e;
            break;
        }
    }

    // 2. Generate one prefetch per valid slot; the highest-confidence
    //    slot gets the free spatial prefetch.
    if (entry) {
        const PrtSlot *best = nullptr;
        for (const PrtSlot &s : entry->slots)
            if (s.valid && (!best || s.confidence > best->confidence))
                best = &s;
        for (const PrtSlot &s : entry->slots) {
            if (!s.valid)
                continue;
            PrefetchRequest req;
            req.vpn = static_cast<Vpn>(
                static_cast<PageDelta>(vpn) + s.distance);
            req.spatial = params_.spatialAllSlots || (&s == best);
            req.tag.producer = PrefetchProducer::Irip;
            req.tag.table = static_cast<std::uint8_t>(hit_table);
            req.tag.sourcePage = vpn;
            req.tag.distance = s.distance;
            out.push_back(req);
        }
    }

    // 3. Train: append the observed transition prev -> vpn.
    if (h.valid && h.prevVpn != vpn) {
        PageDelta dist = static_cast<PageDelta>(vpn) -
                         static_cast<PageDelta>(h.prevVpn);
        // A distance too wide for a slot trains nothing.
        if (dist <= PredictionTable::maxDistance &&
            dist >= -PredictionTable::maxDistance)
            updatePreviousEntry(h.prevVpn, h.prevTable, dist);
    }

    // 4. A missing page is always installed in the smallest table;
    //    future misses may promote it (Figure 12 step 15).
    int current_table = hit_table;
    if (current_table < 0) {
        current_table = findTable(vpn);  // training may have moved it
        if (current_table < 0) {
            tables_[0]->install(vpn, {});
            current_table = 0;
        }
    } else if (!tables_[current_table]->probe(vpn) ||
               tables_[current_table]->probe(vpn)->vpn != vpn) {
        // Training transferred or evicted the entry we hit.
        current_table = findTable(vpn);
        if (current_table < 0) {
            tables_[0]->install(vpn, {});
            current_table = 0;
        }
    }

    // 5. Latch the registers used by the next miss.
    h.prevVpn = vpn;
    h.prevTable = current_table;
    h.valid = true;
}

void
Irip::creditPbHit(const PrefetchTag &tag)
{
    if (tag.producer != PrefetchProducer::Irip)
        return;
    for (auto &t : tables_) {
        if (PrtEntry *e = t->probe(tag.sourcePage)) {
            if (e->vpn == tag.sourcePage) {
                t->creditSlot(tag.sourcePage, tag.distance);
                return;
            }
        }
    }
}

void
Irip::onContextSwitch()
{
    for (auto &t : tables_)
        t->flush();
    freq_.clear();
    hist_[0] = History{};
    hist_[1] = History{};
}

std::size_t
Irip::storageBits() const
{
    std::size_t bits = 0;
    for (const auto &t : tables_)
        bits += t->storageBits();
    return bits;
}

} // namespace morrigan
