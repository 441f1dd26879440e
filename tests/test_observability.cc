/**
 * @file
 * Unit tests for the observability layer: the JSON writer, the
 * interval time-series sampler, and the prefetch lifecycle tracer's
 * outcome classification.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <variant>

#include "common/json.hh"
#include "common/json_reader.hh"
#include "core/morrigan.hh"
#include "sim/interval_sampler.hh"
#include "sim/prefetch_tracer.hh"
#include "sim/simulator.hh"
#include "workload/workload_factory.hh"

#include "epoch_fields.hh"

using namespace morrigan;

namespace
{

bool
contains(const std::string &haystack, const std::string &needle)
{
    return haystack.find(needle) != std::string::npos;
}

/** Check JSON well-formedness the cheap way: balanced braces and
 * brackets outside of strings. */
bool
balancedJson(const std::string &s)
{
    int depth = 0;
    bool in_string = false, escaped = false;
    for (char c : s) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            if (--depth < 0)
                return false;
    }
    return depth == 0 && !in_string;
}

} // namespace

TEST(JsonWriter, EscapesAndNestsCorrectly)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject();
    w.kv("a", std::string_view("x\"y\\z\n"));
    w.key("arr").beginArray().value(1).value(2.5).value(true)
        .endArray();
    w.key("nested").beginObject().kv("b", std::uint64_t{7})
        .endObject();
    w.endObject();
    EXPECT_EQ(os.str(),
              "{\"a\":\"x\\\"y\\\\z\\n\",\"arr\":[1,2.5,true],"
              "\"nested\":{\"b\":7}}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginArray().value(0.0 / 0.0).value(1.5).endArray();
    EXPECT_EQ(os.str(), "[null,1.5]");
}

TEST(IntervalSampler, ComputesDeltasAcrossEpochs)
{
    IntervalSampler s(1000);
    s.beginMeasurement();

    EpochCounters in;
    in.records.list = {{"sim.tlb.stlb", Tlb::Stats{}},
                       {"sim.walker", PageTableWalker::Stats{}}};
    auto &stlb = std::get<Tlb::Stats>(in.records.list[0].second);
    auto &walker =
        std::get<PageTableWalker::Stats>(in.records.list[1].second);
    in.counters.instructions = 1000;
    in.cycles = 2000.0;
    stlb.instrMisses = 10;
    in.freqResets = 1;
    walker.prefetch.latency.sample(30.0);
    const IntervalSample &e0 = s.record(in);
    EXPECT_EQ(e0.epoch, 0u);
    EXPECT_EQ(e0.delta.counters.instructions, 1000u);
    EXPECT_EQ(
        test::recordAt<Tlb::Stats>(e0.delta.records, "sim.tlb.stlb")
            .instrMisses,
        10u);

    in.counters.instructions = 2000;
    in.cycles = 3000.0;
    stlb.instrMisses = 30;   // +20
    in.freqResets = 1;       // unchanged
    walker.prefetch.latency.sample(10.0);
    const IntervalSample &e1 = s.record(in);
    EXPECT_EQ(e1.epoch, 1u);
    EXPECT_EQ(e1.instructions, 2000u);
    EXPECT_EQ(
        test::recordAt<Tlb::Stats>(e1.delta.records, "sim.tlb.stlb")
            .instrMisses,
        20u);
    EXPECT_DOUBLE_EQ(e1.delta.cycles, 1000.0);
    EXPECT_EQ(e1.delta.freqResets, 0u);
    // A distribution's count and sum difference; its extremes are
    // the ones at the epoch's end.
    const Distribution &lat =
        test::recordAt<PageTableWalker::Stats>(e1.delta.records,
                                               "sim.walker")
            .prefetch.latency;
    EXPECT_EQ(lat.count, 1u);
    EXPECT_DOUBLE_EQ(lat.sum, 10.0);
    EXPECT_DOUBLE_EQ(lat.min, 10.0);
    EXPECT_DOUBLE_EQ(lat.max, 30.0);

    EXPECT_EQ(s.epochsRecorded(), 2u);
    EXPECT_EQ(s.samples().size(), 2u);
}

TEST(IntervalSampler, FinalPartialEpochAndRingBound)
{
    IntervalSampler s(100, /*ring_capacity=*/3);
    s.beginMeasurement();
    EpochCounters in;
    for (int i = 1; i <= 4; ++i) {
        in.counters.instructions = 100u * i;
        in.cycles = 100.0 * i;
        s.record(in);
    }
    // Final partial epoch: 30 instructions past the last boundary.
    in.counters.instructions = 430;
    in.cycles = 430.0;
    const IntervalSample &last = s.record(in);
    EXPECT_EQ(last.delta.counters.instructions, 30u);
    EXPECT_EQ(last.epoch, 4u);

    // Ring keeps only the newest 3 of the 5 epochs.
    EXPECT_EQ(s.epochsRecorded(), 5u);
    ASSERT_EQ(s.samples().size(), 3u);
    EXPECT_EQ(s.samples().front().epoch, 2u);
    EXPECT_EQ(s.samples().back().epoch, 4u);
}

TEST(IntervalSampler, EpochDeltasAddUpToTheRunCounters)
{
    // 230k measured instructions at 50k per epoch: four full epochs
    // and a final partial one; 200k: a run that ends on an epoch
    // boundary. On one thread and on two. Every count adds up, the
    // tracer's end-of-run residual counts included.
    for (std::uint64_t measured : {230'000u, 200'000u})
    for (bool smt : {false, true}) {
        SCOPED_TRACE(smt ? "smt" : "1t");
        SCOPED_TRACE(measured);
        SimConfig cfg;
        cfg.warmupInstructions = 50'000;
        cfg.simInstructions = measured;
        test::EpochRig rig(cfg, smt);
        IntervalSampler &sampler = rig.sim.enableIntervalSampler(50'000);
        SimResult r = rig.sim.run();
        ASSERT_EQ(sampler.epochsRecorded(), (measured + 49'999) / 50'000);
        EXPECT_EQ(sampler.samples().back().delta.counters.instructions,
                  measured % 50'000 ? measured % 50'000 : 50'000u);
        std::uint64_t residual = 0;
        for (unsigned c = 0; c < PrefetchTracer::numComponents; ++c)
            residual += rig.sim.tracer()->outcomes(c).residual;
        EXPECT_GT(residual, 0u);  // the PB holds prefetches at the end

        const EpochCounters start = test::measurementStart(cfg, smt);
        EXPECT_GT(start.freqResets, 0u);  // warmup left resets behind
        const EpochCounters end = rig.sim.epochCounters();
        EXPECT_EQ(end.cycles, r.cycles);
        test::expectEpochsAddUp(sampler.samples(), start, end);
    }
}

TEST(IntervalSampler, StreamsJsonlAndCsv)
{
    std::ostringstream jsonl;
    IntervalSampler s(10);
    s.setSink(&jsonl, IntervalFormat::Jsonl);
    s.beginMeasurement();
    EpochCounters in;
    PrefetchBuffer::Stats pb;
    pb.hits = 2;
    in.records.list = {{"sim.pb", pb}};
    in.counters.instructions = 10;
    in.cycles = 20.0;
    in.counters.baseCycles = 2.5;
    s.record(in);
    EXPECT_TRUE(contains(jsonl.str(), "\"epoch\":0"));
    EXPECT_TRUE(contains(jsonl.str(), "\"sim.pb\":{\"hits\":2,"));
    EXPECT_TRUE(contains(jsonl.str(), "\"baseCycles\":2.5"));
    EXPECT_TRUE(contains(jsonl.str(), "\"wall_ms\":"));
    EXPECT_EQ(jsonl.str().back(), '\n');
    EXPECT_TRUE(balancedJson(jsonl.str()));

    std::ostringstream csv;
    IntervalSampler s2(10);
    s2.setSink(&csv, IntervalFormat::Csv);
    s2.beginMeasurement();
    s2.record(in);
    // Header line + one data row, with a value under every column.
    std::string text = csv.str();
    EXPECT_TRUE(contains(text, "epoch,"));
    EXPECT_TRUE(contains(text, ",delta.counters.instructions,"));
    EXPECT_TRUE(contains(text, ",delta.counters.baseCycles,"));
    EXPECT_TRUE(contains(text, ",delta.records.sim.pb.hits,"));
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
    const std::string header = text.substr(0, text.find('\n'));
    const std::string row = text.substr(header.size() + 1);
    EXPECT_EQ(std::count(header.begin(), header.end(), ','),
              std::count(row.begin(), row.end(), ','));
}

TEST(IntervalSampler, EveryArtifactNamesItsSchema)
{
    EpochCounters in;
    in.counters.instructions = 10;
    in.cycles = 20.0;
    std::ostringstream jsonl, csv, ring;
    IntervalSampler streamed(10), tabled(10);
    streamed.setSink(&jsonl, IntervalFormat::Jsonl);
    tabled.setSink(&csv, IntervalFormat::Csv);
    for (IntervalSampler *s : {&streamed, &tabled}) {
        s->beginMeasurement();
        s->record(in);
        in.counters.instructions += 10;
        s->record(in);
    }
    streamed.writeRingJson(ring);
    const std::string version =
        std::to_string(json::intervalSchemaVersion);

    // The --stats-json "intervals" array: every row leads with it.
    const std::string ring_text = ring.str();
    json::Value rows;
    ASSERT_TRUE(json::Reader(ring_text).parse(rows)) << ring_text;
    ASSERT_EQ(rows.array.size(), 2u);
    for (const json::Value &row : rows.array) {
        ASSERT_FALSE(row.object.empty());
        EXPECT_EQ(row.object.front().first, "schema");
        EXPECT_EQ(row.object.front().second.token, version);
    }

    // --interval-out JSONL: every line.
    std::istringstream lines(jsonl.str());
    std::string line;
    unsigned count = 0;
    while (std::getline(lines, line)) {
        json::Value row;
        ASSERT_TRUE(json::Reader(line).parse(row)) << line;
        ASSERT_NE(row.find("schema"), nullptr);
        EXPECT_EQ(row.find("schema")->token, version);
        ++count;
    }
    EXPECT_EQ(count, 2u);

    // CSV: a leading `schema` column, filled on every row.
    std::istringstream table(csv.str());
    ASSERT_TRUE(std::getline(table, line));
    EXPECT_EQ(line.substr(0, line.find(',')), "schema");
    count = 0;
    while (std::getline(table, line)) {
        EXPECT_EQ(line.substr(0, line.find(',')), version);
        ++count;
    }
    EXPECT_EQ(count, 2u);
}

TEST(IntervalSampler, WriteRingJsonIsBalanced)
{
    IntervalSampler s(10);
    s.beginMeasurement();
    EpochCounters in;
    in.counters.instructions = 10;
    in.cycles = 10.0;
    PrefetchTracer::Outcomes sdp;
    sdp.issued = 5;
    sdp.hitsReady = 2;
    in.records.list = {{"sim.prefetch_trace.sdp", sdp}};
    s.record(in);
    std::ostringstream os;
    s.writeRingJson(os);
    EXPECT_TRUE(balancedJson(os.str())) << os.str();
    EXPECT_TRUE(contains(os.str(), "\"records\":{"));
    EXPECT_TRUE(contains(os.str(),
                         "\"sim.prefetch_trace.sdp\":{\"issued\":5,"));
    // The ring mirror carries no host wall-clock keys.
    EXPECT_FALSE(contains(os.str(), "wall_ms"));
}

namespace
{

/** Drive a PB + tracer pair through a scripted lifecycle. */
struct TracerHarness
{
    PrefetchBuffer pb{4, 2};
    PrefetchTracer tracer;

    TracerHarness()
    {
        pb.setObserver(&tracer);
        tracer.beginMeasurement(0);
    }

    /** Issue + walk + install one traced SDP prefetch. */
    std::uint64_t
    install(Vpn vpn, Cycle ready_at)
    {
        PrefetchTag tag;
        tag.producer = PrefetchProducer::Sdp;
        std::uint64_t id = tracer.onIssued(tag, vpn, 0);
        tracer.onWalkComplete(tag, id, ready_at, 1, ready_at);
        PbEntry e;
        e.pfn = vpn + 100;
        e.readyAt = ready_at;
        e.tag = tag;
        e.traceId = id;
        pb.insert(vpn, e);
        return id;
    }
};

} // namespace

TEST(PrefetchTracer, ClassifiesHitReadyVsLate)
{
    TracerHarness h;
    h.install(10, /*ready_at=*/5);
    h.install(11, /*ready_at=*/100);

    // Demand at cycle 50: vpn 10's walk is done (timely hit), vpn
    // 11's is still in flight (late hit).
    EXPECT_TRUE(h.pb.lookupAndConsume(10, 50).hit);
    auto late = h.pb.lookupAndConsume(11, 50);
    EXPECT_TRUE(late.hit);
    EXPECT_TRUE(late.pending);

    h.tracer.finalize(h.pb, 200);
    auto o = h.tracer.outcomes(PrefetchTracer::kSdp);
    EXPECT_EQ(o.issued, 2u);
    EXPECT_EQ(o.installed, 2u);
    EXPECT_EQ(o.hitsReady, 1u);
    EXPECT_EQ(o.lateWait.count, 1u);
    EXPECT_EQ(o.evictedUnused, 0u);
    EXPECT_TRUE(o.reconciles());
    EXPECT_DOUBLE_EQ(o.accuracy(), 1.0);
    EXPECT_DOUBLE_EQ(o.timeliness(), 0.5);
}

TEST(PrefetchTracer, ClassifiesEvictionResidualAndDrop)
{
    TracerHarness h;
    // Fill the 4-entry PB, then insert a 5th to force an unused
    // eviction.
    for (Vpn v = 0; v < 5; ++v)
        h.install(v, 1);

    PrefetchTag tag;
    tag.producer = PrefetchProducer::Sdp;
    std::uint64_t dup = h.tracer.onIssued(tag, 3, 0);
    h.tracer.onDropped(tag, dup, PrefetchDropReason::Duplicate, 0);

    h.tracer.finalize(h.pb, 10);
    auto o = h.tracer.outcomes(PrefetchTracer::kSdp);
    EXPECT_EQ(o.issued, 6u);
    EXPECT_EQ(o.evictedUnused, 1u);
    EXPECT_EQ(o.residual, 4u);
    EXPECT_EQ(o.dropped, 1u);
    EXPECT_EQ(o.hits(), 0u);
    EXPECT_TRUE(o.reconciles());
    EXPECT_TRUE(h.tracer.reconciles());
}

TEST(PrefetchTracer, FlushCountsAsUnused)
{
    TracerHarness h;
    h.install(1, 1);
    h.install(2, 1);
    h.pb.flush();
    h.tracer.finalize(h.pb, 10);
    auto o = h.tracer.outcomes(PrefetchTracer::kSdp);
    EXPECT_EQ(o.flushed, 2u);
    EXPECT_TRUE(o.reconciles());
}

TEST(PrefetchTracer, PreMeasurementPrefetchesAreExcluded)
{
    PrefetchBuffer pb{4, 2};
    PrefetchTracer tracer;
    pb.setObserver(&tracer);

    // Issued before beginMeasurement: id assigned, nothing counted.
    PrefetchTag tag;
    tag.producer = PrefetchProducer::Sdp;
    std::uint64_t warm_id = tracer.onIssued(tag, 7, 0);
    PbEntry e;
    e.tag = tag;
    e.traceId = warm_id;
    pb.insert(7, e);

    tracer.beginMeasurement(100);
    // The warmup entry's later events must not be classified either.
    EXPECT_TRUE(pb.lookupAndConsume(7, 150).hit);
    tracer.finalize(pb, 200);
    auto o = tracer.totals();
    EXPECT_EQ(o.issued, 0u);
    EXPECT_EQ(o.hits(), 0u);
    EXPECT_TRUE(o.reconciles());
}

TEST(PrefetchTracer, PerTableAttributionAndJsonl)
{
    std::ostringstream sink;
    PrefetchBuffer pb{4, 2};
    PrefetchTracer tracer;
    pb.setObserver(&tracer);
    tracer.setEventSink(&sink);
    tracer.beginMeasurement(0);

    PrefetchTag tag;
    tag.producer = PrefetchProducer::Irip;
    tag.table = 2;
    std::uint64_t id = tracer.onIssued(tag, 42, 1);
    tracer.onWalkComplete(tag, id, 30, 2, 31);
    PbEntry e;
    e.tag = tag;
    e.traceId = id;
    e.readyAt = 31;
    pb.insert(42, e);
    EXPECT_TRUE(pb.lookupAndConsume(42, 40).hit);
    tracer.finalize(pb, 50);

    EXPECT_EQ(tracer.outcomes(2).issued, 1u);
    EXPECT_EQ(tracer.outcomes(2).hitsReady, 1u);
    EXPECT_EQ(tracer.outcomes(0).issued, 0u);

    const std::string log = sink.str();
    EXPECT_TRUE(contains(log, "\"ev\":\"meta\""));
    EXPECT_TRUE(contains(log, "\"comp\":\"irip_t2\""));
    EXPECT_TRUE(contains(log, "\"ev\":\"walk\""));
    EXPECT_TRUE(contains(log, "\"ev\":\"install\""));
    EXPECT_TRUE(contains(log, "\"ev\":\"hit\""));

    std::ostringstream summary;
    tracer.writeSummaryJson(summary);
    EXPECT_TRUE(balancedJson(summary.str())) << summary.str();
    EXPECT_TRUE(contains(summary.str(), "\"irip_t2\""));
    EXPECT_TRUE(contains(summary.str(), "\"reconciles\":true"));
    EXPECT_TRUE(contains(summary.str(),
                         "\"walk_latency\":{\"count\":1,\"sum\":30"));
}

TEST(Observability, EndToEndSimulatorRunReconciles)
{
    SimConfig cfg;
    cfg.warmupInstructions = 100'000;
    cfg.simInstructions = 400'000;
    MorriganPrefetcher morrigan{MorriganParams{}};
    ServerWorkload trace(qmmWorkloadParams(0));

    Simulator sim(cfg);
    sim.attachWorkload(&trace, 0);
    sim.attachPrefetcher(&morrigan);
    std::ostringstream events;
    sim.enableTracer(&events);
    IntervalSampler &sampler = sim.enableIntervalSampler(100'000);
    SimResult r = sim.run();

    PrefetchTracer &tracer = *sim.tracer();
    EXPECT_TRUE(tracer.reconciles());
    auto totals = tracer.totals();
    EXPECT_GT(totals.issued, 0u);
    // Every traced hit is a PB hit the simulator counted; the
    // converse can differ by the few hits on entries installed
    // during warmup, which are excluded from the lifecycle accounts.
    EXPECT_GT(totals.hits(), 0u);
    EXPECT_LE(totals.hits(), r.pbHits);
    EXPECT_GE(totals.hits() + 32, r.pbHits);

    // 400k measured instructions at 100k per epoch: four epochs, no
    // partial-epoch duplicate.
    EXPECT_EQ(sampler.epochsRecorded(), 4u);
    std::uint64_t issued_in_epochs = 0;
    for (const IntervalSample &s : sampler.samples())
        for (unsigned c = 0; c < PrefetchTracer::numComponents; ++c)
            issued_in_epochs +=
                test::recordAt<PrefetchTracer::Outcomes>(
                    s.delta.records,
                    std::string("sim.prefetch_trace.") +
                        PrefetchTracer::componentName(c))
                    .issued;
    EXPECT_EQ(issued_in_epochs, totals.issued);

    EXPECT_TRUE(contains(events.str(), "\"ev\":\"meta\""));
    EXPECT_TRUE(contains(events.str(), "\"ev\":\"issue\""));
}

TEST(Observability, DisabledTracerChangesNothing)
{
    SimConfig cfg;
    cfg.warmupInstructions = 50'000;
    cfg.simInstructions = 200'000;
    ServerWorkloadParams wl = qmmWorkloadParams(0);

    MorriganPrefetcher p1{MorriganParams{}};
    ServerWorkload t1(wl);
    Simulator plain(cfg);
    plain.attachWorkload(&t1, 0);
    plain.attachPrefetcher(&p1);
    SimResult a = plain.run();

    MorriganPrefetcher p2{MorriganParams{}};
    ServerWorkload t2(wl);
    Simulator traced(cfg);
    traced.attachWorkload(&t2, 0);
    traced.attachPrefetcher(&p2);
    traced.enableTracer();
    traced.enableIntervalSampler(50'000);
    SimResult b = traced.run();

    // Observability must not perturb the simulation.
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.istlbMisses, b.istlbMisses);
    EXPECT_EQ(a.pbHits, b.pbHits);
}
