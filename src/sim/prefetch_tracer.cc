#include "prefetch_tracer.hh"

#include "common/json.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"

namespace morrigan
{

double
PrefetchTracer::Outcomes::accuracy() const
{
    return issued ? static_cast<double>(hits()) /
                        static_cast<double>(issued)
                  : 0.0;
}

double
PrefetchTracer::Outcomes::timeliness() const
{
    return hits() ? static_cast<double>(hitsReady) /
                        static_cast<double>(hits())
                  : 0.0;
}

PrefetchTracer::Outcomes &
PrefetchTracer::Outcomes::operator+=(const Outcomes &o)
{
    visitFieldPairs(*this, o, [](const char *, auto &a, const auto &b) {
        a += b;
    });
    return *this;
}

unsigned
PrefetchTracer::componentOf(const PrefetchTag &tag)
{
    switch (tag.producer) {
      case PrefetchProducer::Irip:
        return tag.table < kMaxIripTables ? tag.table : kOther;
      case PrefetchProducer::IripSpatial:
        return kIripSpatial;
      case PrefetchProducer::Sdp:
        return kSdp;
      case PrefetchProducer::SdpSpatial:
        return kSdpSpatial;
      case PrefetchProducer::ICache:
        return kICache;
      case PrefetchProducer::Other:
        break;
    }
    return kOther;
}

const char *
PrefetchTracer::componentName(unsigned comp)
{
    static const char *names[numComponents] = {
        "irip_t0", "irip_t1", "irip_t2", "irip_t3",
        "irip_t4", "irip_t5", "irip_t6", "irip_t7",
        "irip_spatial", "sdp", "sdp_spatial", "icache", "other",
    };
    panic_if(comp >= numComponents, "bad component index %u", comp);
    return names[comp];
}

void
PrefetchTracer::beginMeasurement(Cycle now)
{
    measuring_ = true;
    firstMeasuredId_ = nextId_;
    if (sink_) {
        json::Writer w(*sink_);
        w.beginObject();
        w.kv("ev", "meta");
        w.kv("schema", json::traceSchemaVersion);
        w.kv("cycle", now);
        w.kv("first_id", firstMeasuredId_);
        w.endObject();
        *sink_ << '\n';
    }
}

void
PrefetchTracer::emitIssue(const PrefetchTag &tag, std::uint64_t id,
                          Vpn vpn, Cycle now)
{
    json::Writer w(*sink_);
    w.beginObject();
    w.kv("ev", "issue");
    w.kv("id", id);
    w.kv("comp", componentName(componentOf(tag)));
    w.kv("vpn", vpn);
    w.kv("src", tag.sourcePage);
    w.kv("dist", static_cast<std::int64_t>(tag.distance));
    w.kv("cycle", now);
    w.endObject();
    *sink_ << '\n';
}

std::uint64_t
PrefetchTracer::onIssued(const PrefetchTag &tag, Vpn vpn, Cycle now)
{
    std::uint64_t id = nextId_++;
    if (!measuring_)
        return id;
    ++comps_[componentOf(tag)].issued;
    if (sink_)
        emitIssue(tag, id, vpn, now);
    return id;
}

void
PrefetchTracer::onDropped(const PrefetchTag &tag, std::uint64_t id,
                          PrefetchDropReason reason, Cycle now)
{
    if (!measured(id))
        return;
    ++comps_[componentOf(tag)].dropped;
    if (sink_) {
        json::Writer w(*sink_);
        w.beginObject();
        w.kv("ev", "drop");
        w.kv("id", id);
        w.kv("why", reason == PrefetchDropReason::Duplicate
                        ? "duplicate"
                        : "unmapped");
        w.kv("cycle", now);
        w.endObject();
        *sink_ << '\n';
    }
}

void
PrefetchTracer::onWalkComplete(const PrefetchTag &tag,
                               std::uint64_t id, Cycle latency,
                               unsigned memRefs, Cycle readyAt)
{
    if (!measured(id))
        return;
    comps_[componentOf(tag)].walkLatency.sample(
        static_cast<double>(latency));
    if (sink_) {
        json::Writer w(*sink_);
        w.beginObject();
        w.kv("ev", "walk");
        w.kv("id", id);
        w.kv("lat", latency);
        w.kv("refs", memRefs);
        w.kv("ready", readyAt);
        w.endObject();
        *sink_ << '\n';
    }
}

void
PrefetchTracer::onStlbFill(const PrefetchTag &tag, std::uint64_t id,
                           Cycle now)
{
    if (!measured(id))
        return;
    ++comps_[componentOf(tag)].stlbFills;
    if (sink_) {
        json::Writer w(*sink_);
        w.beginObject();
        w.kv("ev", "stlb_fill");
        w.kv("id", id);
        w.kv("cycle", now);
        w.endObject();
        *sink_ << '\n';
    }
}

void
PrefetchTracer::pbEvent(PbObserver::Event ev, const PbEntry &entry,
                        Cycle now)
{
    if (!measured(entry.traceId))
        return;
    Outcomes &cs = comps_[componentOf(entry.tag)];
    const char *name = nullptr;
    switch (ev) {
      case Event::Installed:
        ++cs.installed;
        name = "install";
        break;
      case Event::HitReady:
        ++cs.hitsReady;
        name = "hit";
        break;
      case Event::HitPending:
        cs.lateWait.sample(static_cast<double>(
            entry.readyAt > now ? entry.readyAt - now : 0));
        name = "hit";
        break;
      case Event::EvictedUnused:
        ++cs.evictedUnused;
        name = "evict";
        break;
      case Event::DuplicateInsert:
      case Event::RejectedNoSlot:
        // The prefetch was issued and walked but never got a PB
        // slot: a drop for lifecycle purposes.
        ++cs.dropped;
        name = "drop";
        break;
      case Event::Flushed:
        ++cs.flushed;
        name = "flush";
        break;
    }
    if (sink_) {
        json::Writer w(*sink_);
        w.beginObject();
        w.kv("ev", name);
        w.kv("id", entry.traceId);
        if (ev == Event::HitReady || ev == Event::HitPending) {
            w.kv("late", ev == Event::HitPending);
            w.kv("wait",
                 entry.readyAt > now ? entry.readyAt - now : 0);
        } else if (ev == Event::DuplicateInsert) {
            w.kv("why", "dup_insert");
        } else if (ev == Event::RejectedNoSlot) {
            w.kv("why", "no_slot");
        }
        w.kv("cycle", now);
        w.endObject();
        *sink_ << '\n';
    }
}

void
PrefetchTracer::finalize(const PrefetchBuffer &pb, Cycle now)
{
    pb.forEach([&](Vpn, const PbEntry &e) {
        if (!measured(e.traceId))
            return;
        ++comps_[componentOf(e.tag)].residual;
        if (sink_) {
            json::Writer w(*sink_);
            w.beginObject();
            w.kv("ev", "residual");
            w.kv("id", e.traceId);
            w.kv("cycle", now);
            w.endObject();
            *sink_ << '\n';
        }
    });
    if (sink_)
        sink_->flush();
    measuring_ = false;
}

const PrefetchTracer::Outcomes &
PrefetchTracer::outcomes(unsigned comp) const
{
    panic_if(comp >= numComponents, "bad component index %u", comp);
    return comps_[comp];
}

PrefetchTracer::Outcomes &
PrefetchTracer::outcomes(unsigned comp)
{
    panic_if(comp >= numComponents, "bad component index %u", comp);
    return comps_[comp];
}

PrefetchTracer::Outcomes
PrefetchTracer::totals() const
{
    Outcomes t;
    for (const Outcomes &c : comps_)
        t += c;
    return t;
}

bool
PrefetchTracer::reconciles() const
{
    for (const Outcomes &c : comps_)
        if (!c.reconciles())
            return false;
    return true;
}

void
PrefetchTracer::writeSummaryJson(std::ostream &os) const
{
    json::Writer w(os);
    auto emit = [&](const Outcomes &o) {
        w.beginObject();
        json::writeFields(w, o);
        w.kv("accuracy", o.accuracy());
        w.kv("timeliness", o.timeliness());
        w.kv("reconciles", o.reconciles());
        w.endObject();
    };
    w.beginObject();
    w.kv("schema", json::statsSchemaVersion);
    w.key("components").beginObject();
    for (unsigned c = 0; c < numComponents; ++c) {
        const Outcomes &o = comps_[c];
        if (o.issued == 0 && o.installed == 0)
            continue;  // keep the summary to active components
        w.key(componentName(c));
        emit(o);
    }
    w.endObject();
    w.key("totals");
    emit(totals());
    w.endObject();
}

} // namespace morrigan
