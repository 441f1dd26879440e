/** @file Unit + property tests for the synthetic server workload. */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "workload/server_workload.hh"
#include "workload/workload_factory.hh"

using namespace morrigan;

TEST(ServerWorkload, DeterministicForSameParams)
{
    ServerWorkloadParams p = qmmWorkloadParams(1);
    ServerWorkload a(p), b(p);
    for (int i = 0; i < 5000; ++i) {
        TraceRecord ra = a.next(), rb = b.next();
        EXPECT_EQ(ra.pc, rb.pc);
        EXPECT_EQ(ra.hasData, rb.hasData);
        EXPECT_EQ(ra.dataAddr, rb.dataAddr);
    }
}

TEST(ServerWorkload, DifferentSeedsDiffer)
{
    ServerWorkloadParams p = qmmWorkloadParams(1);
    ServerWorkload a(p);
    p.seed += 1;
    ServerWorkload b(p);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next().pc == b.next().pc;
    EXPECT_LT(same, 500);
}

TEST(ServerWorkload, PcsStayInMappedCodeRegions)
{
    ServerWorkloadParams p = qmmWorkloadParams(2);
    ServerWorkload w(p);
    auto regions = w.mappedRegions();
    for (int i = 0; i < 20000; ++i) {
        Vpn vpn = pageOf(w.next().pc);
        bool in_region = false;
        for (const auto &[base, count] : regions)
            in_region |= vpn >= base && vpn < base + count;
        EXPECT_TRUE(in_region) << "pc page " << vpn << " unmapped";
    }
}

TEST(ServerWorkload, DataAccessRateMatchesParam)
{
    ServerWorkloadParams p = qmmWorkloadParams(3);
    ServerWorkload w(p);
    int with_data = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        with_data += w.next().hasData;
    EXPECT_NEAR(with_data / static_cast<double>(n),
                p.dataAccessProb, 0.02);
}

TEST(ServerWorkload, CodeAndDataRegionsDisjoint)
{
    ServerWorkloadParams p = qmmWorkloadParams(4);
    ServerWorkload w(p);
    auto regions = w.mappedRegions();
    for (std::size_t i = 0; i < regions.size(); ++i) {
        for (std::size_t j = i + 1; j < regions.size(); ++j) {
            auto [a, ca] = regions[i];
            auto [b, cb] = regions[j];
            EXPECT_TRUE(a + ca <= b || b + cb <= a)
                << "regions overlap";
        }
    }
}

TEST(ServerWorkload, SuccessorFanOutIsSmall)
{
    // Finding 3: pages have only a few likely successors.
    ServerWorkloadParams p = qmmWorkloadParams(5);
    ServerWorkload w(p);
    unsigned small = 0, total = 0;
    for (std::uint32_t i = 0; i < p.codePages; i += 7) {
        std::uint32_t k = w.successorCount(i);
        if (k == 0)
            continue;
        ++total;
        small += k <= 8;
    }
    ASSERT_GT(total, 20u);
    EXPECT_GT(small / static_cast<double>(total), 0.6);
}

TEST(ServerWorkload, TierClassificationConsistent)
{
    ServerWorkloadParams p = qmmWorkloadParams(6);
    ServerWorkload w(p);
    int hot = 0, warm = 0, cold = 0;
    for (std::uint32_t i = 0; i < p.codePages; ++i) {
        switch (w.tierOfVpn(w.pageVpn(i))) {
          case 0: ++hot; break;
          case 1: ++warm; break;
          case 2: ++cold; break;
          default: FAIL() << "code page without tier";
        }
    }
    EXPECT_EQ(hot, static_cast<int>(p.hotCodePages));
    EXPECT_EQ(warm, static_cast<int>(p.warmCodePages));
    EXPECT_EQ(hot + warm + cold, static_cast<int>(p.codePages));
    EXPECT_EQ(w.tierOfVpn(0xdeadbeef), -1);
}

TEST(ServerWorkload, PhaseChangesHappenOnSchedule)
{
    ServerWorkloadParams p = qmmWorkloadParams(7);
    p.phaseInterval = 10000;
    ServerWorkload w(p);
    for (int i = 0; i < 45000; ++i)
        w.next();
    EXPECT_GE(w.phaseChanges(), 3u);
    EXPECT_LE(w.phaseChanges(), 5u);
}

TEST(ServerWorkload, ZeroPhaseIntervalDisablesPhases)
{
    ServerWorkloadParams p = qmmWorkloadParams(8);
    p.phaseInterval = 0;
    ServerWorkload w(p);
    for (int i = 0; i < 50000; ++i)
        w.next();
    EXPECT_EQ(w.phaseChanges(), 0u);
}

TEST(ServerWorkload, VisitsConcentrateOnHotTier)
{
    ServerWorkloadParams p = qmmWorkloadParams(9);
    ServerWorkload w(p);
    std::uint64_t hot = 0, total = 0;
    Vpn last = 0;
    for (int i = 0; i < 200000; ++i) {
        Vpn vpn = pageOf(w.next().pc);
        if (vpn == last)
            continue;  // count page visits, not instructions
        last = vpn;
        ++total;
        hot += w.tierOfVpn(vpn) == 0;
    }
    EXPECT_GT(hot / static_cast<double>(total), 0.5);
}

TEST(WorkloadFactory, AllQmmPresetsConstruct)
{
    for (unsigned i = 0; i < numQmmWorkloads; ++i) {
        ServerWorkloadParams p = qmmWorkloadParams(i);
        EXPECT_EQ(p.name, csprintf("qmm_%02u", i));
        EXPECT_GE(p.codePages, 1500u);
        EXPECT_LE(p.codePages, 6000u);
        EXPECT_GT(p.hotShare + p.warmShare, 0.9);
        EXPECT_LT(p.hotShare + p.warmShare, 1.0);
        ServerWorkload w(p);
        for (int k = 0; k < 100; ++k)
            w.next();
    }
}

TEST(WorkloadFactory, SpecPresetsAreSmallFootprint)
{
    for (unsigned i = 0; i < numSpecWorkloads; ++i) {
        ServerWorkloadParams p = specWorkloadParams(i);
        EXPECT_LE(p.codePages, 100u);
        ServerWorkload w(p);
        for (int k = 0; k < 100; ++k)
            w.next();
    }
}

TEST(ServerWorkload, NextBlockChunksMatchNext)
{
    // The simulator's trace feed fills its ring with nextBlock() calls
    // of whatever size fits; any chunking must give the n x next()
    // stream, across phase changes too.
    ServerWorkloadParams p = qmmWorkloadParams(2);
    p.phaseInterval = 4000;
    ServerWorkload chunked(p), serial(p);
    const unsigned sizes[] = {1, 7, 8, 128, 1000};
    std::vector<TraceRecord> out(1000);
    std::uint64_t produced = 0;
    for (unsigned round = 0; produced < 20'000; ++round) {
        const unsigned n = sizes[round % std::size(sizes)];
        chunked.nextBlock(out.data(), n);
        for (unsigned i = 0; i < n; ++i, ++produced) {
            const TraceRecord want = serial.next();
            ASSERT_EQ(out[i].pc, want.pc) << "record " << produced;
            ASSERT_EQ(out[i].hasData, want.hasData);
            ASSERT_EQ(out[i].dataAddr, want.dataAddr);
        }
    }
    EXPECT_GE(chunked.phaseChanges(), 4u);
    EXPECT_EQ(chunked.phaseChanges(), serial.phaseChanges());
}

namespace
{

/**
 * @p w's snapshot with the u64 run-state field @p back_bytes from the
 * end of the payload replaced by @p value. The payload ends with
 * currentOffset_, runRemaining_, instrCount_, nextPhaseAt_,
 * phaseChanges_ (u64 each), deviating_ (one byte), streamPos_ (u64).
 */
std::string
patchedSnapshot(const ServerWorkload &w, std::size_t back_bytes,
                std::uint64_t value)
{
    SnapshotWriter writer;
    w.save(writer);
    std::string payload = writer.payload();
    const std::size_t at = payload.size() - back_bytes;
    for (unsigned i = 0; i < 8; ++i)
        payload[at + i] = static_cast<char>(value >> (8 * i));
    return payload;
}

constexpr std::size_t currentOffsetBack = 49;
constexpr std::size_t streamPosBack = 8;

} // namespace

TEST(ServerWorkload, RestoreRejectsOutOfRangeRunState)
{
    const ServerWorkloadParams p = qmmWorkloadParams(0);
    ServerWorkload w(p);
    for (int i = 0; i < 1000; ++i)
        w.next();
    const std::uint64_t stream_end =
        std::uint64_t{p.dataColdPages} * (pageBytes / lineBytes);

    // The patch offsets are right: in-range values restore.
    for (auto [back, value] :
         {std::pair{currentOffsetBack, pageBytes - 4},
          std::pair{streamPosBack, stream_end - 1}}) {
        ServerWorkload fresh(p);
        SnapshotReader r = SnapshotReader::fromPayload(
            patchedSnapshot(w, back, value));
        EXPECT_NO_THROW(fresh.restore(r));
        EXPECT_NO_THROW(r.finish());
    }
    for (auto [back, value] :
         {std::pair{currentOffsetBack, pageBytes},
          std::pair{currentOffsetBack, Addr{6}},
          std::pair{streamPosBack, stream_end}}) {
        ServerWorkload fresh(p);
        SnapshotReader r = SnapshotReader::fromPayload(
            patchedSnapshot(w, back, value));
        EXPECT_THROW(fresh.restore(r), SnapshotError)
            << "field at -" << back << " = " << value;
    }
}

TEST(WorkloadFactory, JavaPresetsNamed)
{
    const auto &names = javaWorkloadNames();
    EXPECT_EQ(names.size(), 7u);
    EXPECT_EQ(names[0], "cassandra");
    for (unsigned i = 0; i < names.size(); ++i) {
        ServerWorkloadParams p = javaWorkloadParams(i);
        EXPECT_EQ(p.name, names[i]);
    }
}

TEST(WorkloadFactoryDeathTest, OutOfRangeIndexIsFatal)
{
    EXPECT_EXIT(qmmWorkloadParams(numQmmWorkloads),
                ::testing::ExitedWithCode(1), "out of range");
}

/** Every QMM preset is constructible and deterministic (sweep). */
class QmmSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(QmmSweep, DeterministicFirstThousand)
{
    ServerWorkloadParams p = qmmWorkloadParams(GetParam());
    ServerWorkload a(p), b(p);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next().pc, b.next().pc);
}

INSTANTIATE_TEST_SUITE_P(Suite, QmmSweep,
                         ::testing::Values(0u, 7u, 13u, 22u, 31u,
                                           40u, 44u));
