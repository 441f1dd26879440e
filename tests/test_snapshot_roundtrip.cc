/**
 * @file
 * Snapshot round trips across the configuration space (DESIGN.md
 * §12).
 *
 * For every registered prefetcher, a composite, 1T and SMT, the
 * page-table variants, context switches, P2TLB, FNL+MMA and the
 * observability attachments: a mid-measurement checkpoint restored
 * into a fresh simulator re-saves byte for byte, restoring consumes
 * the whole payload, and the resumed run finishes with every
 * SimResult field equal to the uninterrupted run's. Two payload
 * CRCs are pinned so an encoding change cannot slip in unnoticed.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/snapshot.hh"
#include "core/prefetcher_registry.hh"
#include "sim/simulator.hh"
#include "workload/server_workload.hh"
#include "workload/workload_factory.hh"

#include "sim_result_fields.hh"

using namespace morrigan;

namespace
{

/** One case. gtest prints a parameter as "N-byte object <...>" and
 * ctest names each case by that text, so the alignment pins N at 640
 * while SimConfig changes size within 513-640 bytes, keeping the
 * names. */
struct alignas(128) Config
{
    std::string name;
    std::string spec = "morrigan";
    bool smt = false;
    bool observe = false;  //!< tracer and interval sampler attached
    SimConfig cfg = base();

    static SimConfig
    base()
    {
        SimConfig cfg;
        cfg.warmupInstructions = 20'000;
        cfg.simInstructions = 60'000;
        return cfg;
    }
};

/** A simulator assembled for @p c: qmm_00 (+ qmm_01 on thread 1). */
struct Rig
{
    explicit Rig(const Config &c)
        : pf(makePrefetcher(c.spec)), sim(c.cfg)
    {
        sim.attachWorkload(&a, 0);
        if (c.smt)
            sim.attachWorkload(&b, 1);
        if (pf)
            sim.attachPrefetcher(pf.get());
        if (c.observe)
            sim.enableIntervalSampler(25'000);
    }

    ServerWorkload a{qmmWorkloadParams(0)};
    ServerWorkload b{qmmWorkloadParams(1)};
    std::unique_ptr<TlbPrefetcher> pf;
    Simulator sim;
};

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "morrigan-roundtrip-" +
           std::to_string(::getpid()) + "-" + name;
}

std::string
alnum(std::string s)
{
    for (char &ch : s)
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    return s;
}

std::vector<Config>
configs()
{
    std::vector<Config> out;
    std::vector<std::string> specs = {"none", "morrigan+fdip"};
    for (const PrefetcherPlugin &p :
         PrefetcherRegistry::global().plugins())
        specs.push_back(p.name);
    for (const std::string &spec : specs) {
        for (bool smt : {false, true}) {
            Config c;
            c.name = alnum(spec) + (smt ? "_smt" : "_1t");
            c.spec = spec;
            c.smt = smt;
            out.push_back(c);
        }
    }
    Config c;
    c.name = "pt_depth_5";
    c.cfg.pageTableDepth = 5;
    out.push_back(c);
    c = Config{};
    c.name = "hashed_page_table";
    c.cfg.pageTableFormat = PageTableFormat::Hashed;
    out.push_back(c);
    c = Config{};
    c.name = "context_switch";
    c.cfg.contextSwitchInterval = 15'000;
    out.push_back(c);
    c = Config{};
    c.name = "p2tlb";
    c.cfg.prefetchIntoStlb = true;
    out.push_back(c);
    c = Config{};
    c.name = "fnl_mma_icache";
    c.cfg.icachePref = ICachePrefKind::FnlMma;
    out.push_back(c);
    for (bool smt : {false, true}) {
        c = Config{};
        c.name = smt ? "tracer_sampler_smt" : "tracer_sampler_1t";
        c.smt = smt;
        c.observe = true;
        out.push_back(c);
    }
    return out;
}

/** The payload of the snapshot file at @p path (past its 44-byte
 * header). */
std::string
filePayload(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string image((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return image.size() < 44 ? std::string() : image.substr(44);
}

class SnapshotRoundTrip : public ::testing::TestWithParam<Config>
{
};

} // namespace

TEST_P(SnapshotRoundTrip, ResavesByteEqualAndResumesIdentically)
{
    const Config &c = GetParam();
    const std::string path = tempPath(c.name + ".snap");

    // Autosaves every 50k executed instructions: the last lands
    // mid-measurement.
    Rig straight(c);
    straight.sim.setCheckpointing(path, 50'000);
    const SimResult want = straight.sim.run();
    SnapshotHeader hdr;
    ASSERT_TRUE(readSnapshotHeader(path, hdr));
    ASSERT_GT(hdr.progressInstructions, c.cfg.warmupInstructions);

    Rig first(c);
    first.sim.restoreCheckpoint(path);
    ::unlink(path.c_str());
    SnapshotWriter w1;
    first.sim.save(w1);

    Rig second(c);
    SnapshotReader r = SnapshotReader::fromPayload(w1.payload());
    second.sim.restore(r);
    EXPECT_NO_THROW(r.finish());
    SnapshotWriter w2;
    second.sim.save(w2);
    EXPECT_TRUE(w1.payload() == w2.payload())
        << "re-saved payload differs (" << w1.payload().size() << " vs "
        << w2.payload().size() << " bytes)";

    test::expectSameResult(second.sim.run(), want);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SnapshotRoundTrip, ::testing::ValuesIn(configs()),
    [](const ::testing::TestParamInfo<Config> &info) {
        return info.param.name;
    });

TEST(SnapshotPayload, CrcsArePinned)
{
    struct Case
    {
        bool smt;
        std::uint32_t crc;
    };
    // Warmup images of Morrigan on qmm_00, alone and with qmm_01.
    // Schema v8 appended the (empty) miss-stream length.
    for (const Case &k :
         {Case{false, 0xad4b74a6u}, Case{true, 0xdf4cc095u}}) {
        SCOPED_TRACE(k.smt ? "smt" : "1t");
        Config c;
        c.smt = k.smt;
        const std::string path = tempPath("pinned.snap");
        Rig rig(c);
        rig.sim.setWarmupImagePath(path);
        (void)rig.sim.run();
        const std::string payload = filePayload(path);
        ::unlink(path.c_str());
        ASSERT_FALSE(payload.empty());
        EXPECT_EQ(crc32(payload.data(), payload.size()), k.crc)
            << std::hex << "0x" << crc32(payload.data(), payload.size());
    }
}
