#include "prefetch_buffer.hh"

#include "check/invariants.hh"

namespace morrigan
{

PrefetchBuffer::PrefetchBuffer(std::uint32_t entries, Cycle latency)
    : table_(entries, entries),  // fully associative
      latency_(latency)
{
}

PbLookupResult
PrefetchBuffer::lookupAndConsume(Vpn vpn, Cycle now)
{
    PbLookupResult res;
    PbEntry *entry = table_.probe(vpn);
    if (!entry) {
        ++stats_.misses;
        return res;
    }
    res.hit = true;
    res.pending = entry->readyAt > now;
    res.entry = *entry;
    res.entry.usedOnce = true;
    if (res.pending)
        ++stats_.pendingHits;
    ++stats_.hits;
    if (obs_)
        obs_->pbEvent(res.pending ? PbObserver::Event::HitPending
                                  : PbObserver::Event::HitReady,
                      *entry, now);
    // The translation moves to the STLB; free the PB slot.
    table_.erase(vpn);
    return res;
}

bool
PrefetchBuffer::contains(Vpn vpn) const
{
    return table_.probe(vpn) != nullptr;
}

const PbEntry *
PrefetchBuffer::peek(Vpn vpn) const
{
    return table_.probe(vpn);
}

bool
PrefetchBuffer::insert(Vpn vpn, const PbEntry &entry,
                       Vpn *evicted_unused)
{
    if (table_.probe(vpn)) {
        ++stats_.duplicateInserts;
        if (obs_)
            obs_->pbEvent(PbObserver::Event::DuplicateInsert, entry, 0);
        return false;
    }
    ++stats_.inserts;
    if (obs_)
        obs_->pbEvent(PbObserver::Event::Installed, entry, 0);
    PbEntry victim;
    Vpn victim_vpn = 0;
    bool evicted = table_.insert(vpn, entry, &victim_vpn, &victim);
    MORRIGAN_CHECK_INVARIANT(1, population() <= capacity(),
                             "prefetch buffer population %u exceeds "
                             "capacity %u after insert of vpn %#llx",
                             population(), capacity(),
                             static_cast<unsigned long long>(vpn));
    if (evicted && !victim.usedOnce) {
        ++stats_.uselessEvictions;
        if (obs_)
            obs_->pbEvent(PbObserver::Event::EvictedUnused, victim, 0);
        if (evicted_unused)
            *evicted_unused = victim_vpn;
        return true;
    }
    return false;
}

void
PrefetchBuffer::insertOpportunistic(Vpn vpn, const PbEntry &entry)
{
    if (table_.probe(vpn)) {
        ++stats_.duplicateInserts;
        if (obs_)
            obs_->pbEvent(PbObserver::Event::DuplicateInsert, entry, 0);
        return;
    }
    if (table_.insertNoEvict(vpn, entry)) {
        ++stats_.inserts;
        MORRIGAN_CHECK_INVARIANT(1, population() <= capacity(),
                                 "prefetch buffer population %u "
                                 "exceeds capacity %u after "
                                 "opportunistic insert of vpn %#llx",
                                 population(), capacity(),
                                 static_cast<unsigned long long>(vpn));
        if (obs_)
            obs_->pbEvent(PbObserver::Event::Installed, entry, 0);
    } else if (obs_) {
        obs_->pbEvent(PbObserver::Event::RejectedNoSlot, entry, 0);
    }
}

void
PrefetchBuffer::flush()
{
    if (obs_) {
        table_.forEach([&](Vpn, const PbEntry &e) {
            obs_->pbEvent(PbObserver::Event::Flushed, e, 0);
        });
    }
    table_.flush();
}

} // namespace morrigan
