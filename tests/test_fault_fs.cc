/**
 * @file
 * Filesystem fault-injection tests: every MORRIGAN_FAULT_FS mode
 * (enospc, shortwrite, fsyncfail) driven through each durability
 * path -- journal append, snapshot atomic publish -- proving each
 * failure is either cleanly reported or invisible after recovery:
 * no torn journal record replays, and no half-published snapshot is
 * ever accepted.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/fault_fs.hh"
#include "common/snapshot.hh"
#include "sim/supervisor.hh"

using namespace morrigan;

namespace
{

/** Minimal but journal-round-trippable Ok outcome. */
RunOutcome
sampleOutcome()
{
    RunOutcome o;
    o.status = RunStatus::Ok;
    o.attempts = 1;
    o.durationMs = 42;
    SimResult &r = o.output.result;
    r.workload = "qmm_00";
    r.prefetcher = "morrigan";
    r.instructions = 1'000'000;
    r.cycles = 1'234'567.5;
    r.ipc = 0.81;
    r.istlbMisses = 4242;
    return o;
}

std::string
tempPath(const char *stem)
{
    return testing::TempDir() + stem;
}

/** Lines currently in @p path (journal observability). */
std::size_t
lineCount(const std::string &path)
{
    std::ifstream f(path);
    std::size_t n = 0;
    std::string line;
    while (std::getline(f, line))
        ++n;
    return n;
}

/** RAII disarm so a failing test never leaks faults into the next. */
struct FaultGuard
{
    ~FaultGuard() { faultfs::setSpec(nullptr); }
};

} // namespace

// ---------------------------------------------------------------
// Shim mechanics
// ---------------------------------------------------------------

TEST(FaultFs, UnarmedByDefaultAndDisarmable)
{
    FaultGuard guard;
    faultfs::setSpec(nullptr);
    EXPECT_FALSE(faultfs::armed());
    faultfs::setSpec("enospc:2");
    EXPECT_TRUE(faultfs::armed());
    faultfs::setSpec("");
    EXPECT_FALSE(faultfs::armed());
}

TEST(FaultFs, FaultsAreConsumedOncePerMatchingOp)
{
    FaultGuard guard;
    const std::string path = tempPath("faultfs-consume.bin");
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                    0644);
    ASSERT_GE(fd, 0);

    const std::size_t before = faultfs::injectedCount();
    faultfs::setSpec("enospc:1");
    errno = 0;
    EXPECT_LT(faultfs::write(fd, "abcd", 4), 0);
    EXPECT_EQ(errno, ENOSPC);
    // The single fault is spent: the next write goes through.
    EXPECT_EQ(faultfs::write(fd, "abcd", 4), 4);
    EXPECT_FALSE(faultfs::armed());
    EXPECT_EQ(faultfs::injectedCount(), before + 1);
    ::close(fd);
    std::remove(path.c_str());
}

TEST(FaultFs, ShortWriteLeavesTornPrefix)
{
    FaultGuard guard;
    const std::string path = tempPath("faultfs-torn.bin");
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                    0644);
    ASSERT_GE(fd, 0);
    faultfs::setSpec("shortwrite:1");
    // The torn half really lands on disk -- that is the point.
    EXPECT_EQ(faultfs::write(fd, "abcdefgh", 8), 4);
    ::close(fd);
    std::ifstream f(path);
    std::string content((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "abcd");
    std::remove(path.c_str());
}

TEST(FaultFs, FsyncFailReportsEio)
{
    FaultGuard guard;
    const std::string path = tempPath("faultfs-fsync.bin");
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                    0644);
    ASSERT_GE(fd, 0);
    faultfs::setSpec("fsyncfail:1");
    errno = 0;
    EXPECT_NE(faultfs::fsync(fd), 0);
    EXPECT_EQ(errno, EIO);
    EXPECT_EQ(faultfs::fsync(fd), 0);
    ::close(fd);
    std::remove(path.c_str());
}

TEST(FaultFsDeathTest, JunkSpecIsFatal)
{
    EXPECT_EXIT(faultfs::setSpec("enospc:1,typo:3"),
                ::testing::ExitedWithCode(1), "MORRIGAN_FAULT_FS");
    EXPECT_EXIT(faultfs::setSpec("enospc"),
                ::testing::ExitedWithCode(1), "MORRIGAN_FAULT_FS");
}

// ---------------------------------------------------------------
// Journal append under faults
// ---------------------------------------------------------------

TEST(FaultFsJournal, EnospcDropsRecordCleanly)
{
    FaultGuard guard;
    const std::string path = tempPath("faultfs-journal-enospc.jsonl");
    std::remove(path.c_str());
    {
        CampaignJournal j(path);
        faultfs::setSpec("enospc:2"); // both append attempts fail
        j.record("k1", sampleOutcome());
        faultfs::setSpec(nullptr);
        j.record("k2", sampleOutcome());
    }
    // The dropped record is invisible; the later one replays.
    CampaignJournal reloaded(path);
    EXPECT_EQ(reloaded.loadedRecords(), 1u);
    RunOutcome out;
    EXPECT_FALSE(reloaded.lookup("k1", out));
    EXPECT_TRUE(reloaded.lookup("k2", out));
    EXPECT_TRUE(out.fromJournal);
    std::remove(path.c_str());
}

TEST(FaultFsJournal, ShortWriteSealsTornLineAndRetries)
{
    FaultGuard guard;
    const std::string path = tempPath("faultfs-journal-torn.jsonl");
    std::remove(path.c_str());
    {
        CampaignJournal j(path);
        faultfs::setSpec("shortwrite:1");
        // First try tears mid-record; the appender seals the
        // fragment with a newline and rewrites the whole record as a
        // fresh line.
        j.record("k1", sampleOutcome());
    }
    EXPECT_EQ(lineCount(path), 2u) << "torn fragment + clean retry";
    CampaignJournal reloaded(path);
    EXPECT_EQ(reloaded.loadedRecords(), 1u);
    RunOutcome out;
    ASSERT_TRUE(reloaded.lookup("k1", out));
    EXPECT_EQ(out.durationMs, 42u);
    std::remove(path.c_str());
}

TEST(FaultFsJournal, PersistentShortWriteDropsRecordCleanly)
{
    FaultGuard guard;
    const std::string path =
        tempPath("faultfs-journal-torn2.jsonl");
    std::remove(path.c_str());
    {
        CampaignJournal j(path);
        faultfs::setSpec("shortwrite:2"); // retry tears too
        j.record("k1", sampleOutcome());
    }
    // Only sealed fragments remain; reload skips them all.
    CampaignJournal reloaded(path);
    EXPECT_EQ(reloaded.loadedRecords(), 0u);
    std::remove(path.c_str());
}

TEST(FaultFsJournal, FsyncFailureKeepsInProcessRecord)
{
    FaultGuard guard;
    const std::string path =
        tempPath("faultfs-journal-fsync.jsonl");
    std::remove(path.c_str());
    {
        CampaignJournal j(path);
        faultfs::setSpec("fsyncfail:1");
        // fsync failure means "may not survive a power cut", not
        // "gone": the bytes were appended, so a clean close still
        // yields a replayable record (and the warning told the
        // operator the job may rerun after a crash).
        j.record("k1", sampleOutcome());
    }
    CampaignJournal reloaded(path);
    EXPECT_EQ(reloaded.loadedRecords(), 1u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Snapshot atomic publish under faults
// ---------------------------------------------------------------

namespace
{

SnapshotWriter
sampleSnapshot()
{
    SnapshotWriter w;
    w.section("faultfs-test");
    w.u64(0xdeadbeefULL);
    w.str("payload");
    return w;
}

} // namespace

TEST(FaultFsSnapshot, EveryModeAbortsThePublish)
{
    FaultGuard guard;
    for (const char *spec :
         {"enospc:1", "shortwrite:1", "fsyncfail:1"}) {
        SCOPED_TRACE(spec);
        const std::string path =
            tempPath("faultfs-snapshot.image");
        std::remove(path.c_str());

        SnapshotWriter w = sampleSnapshot();
        faultfs::setSpec(spec);
        EXPECT_THROW(w.writeToFile(path, 1, 2), SnapshotError);
        faultfs::setSpec(nullptr);

        // Cleanly reported (the throw) AND invisible: no file, no
        // half-published temp accepted later.
        SnapshotHeader h;
        EXPECT_FALSE(readSnapshotHeader(path, h))
            << "half-published snapshot became visible";

        // Recovery: the same writer publishes fine once the fault
        // clears, and the image validates.
        w.writeToFile(path, 1, 2);
        EXPECT_TRUE(readSnapshotHeader(path, h));
        SnapshotReader r(path);
        r.section("faultfs-test");
        EXPECT_EQ(r.u64(), 0xdeadbeefULL);
        EXPECT_EQ(r.str(), "payload");
        std::remove(path.c_str());
    }
}
