/**
 * @file
 * Exit-code contract of tools/compare_bench_json.py: 0 on a clean
 * match, 1 on a measured regression (a changed paper_note included),
 * 2 on an unusable input -- a
 * missing file, or a *degraded* candidate (failure manifest present
 * or NaN/null measured rows from a campaign that lost jobs). The
 * degraded path must exit 2 without a traceback: CI tells "the
 * figure moved" apart from "the campaign died" by this code alone.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <string>

namespace
{

std::string
writeArtifact(const char *stem, const std::string &rows_json,
              const std::string &manifest_json = "")
{
    const std::string path = testing::TempDir() + stem;
    std::ofstream f(path);
    f << "{\"schema\":\"morrigan-bench\",";
    if (!manifest_json.empty())
        f << "\"failures\":" << manifest_json << ",";
    f << "\"sections\":[{\"figure\":\"fig-test\",\"rows\":["
      << rows_json << "]}]}";
    return path;
}

std::string
row(const char *label, const char *measured, const char *note = nullptr)
{
    std::string r = std::string("{\"label\":\"") + label +
                    "\",\"measured\":" + measured + ",\"unit\":\"pct\"";
    if (note)
        r += std::string(",\"paper_note\":\"") + note + "\"";
    return r + "}";
}

/** Script exit code, or -1 when it did not exit normally. */
int
runCompare(const std::string &candidate, const std::string &golden,
           const std::string &options = "")
{
    const std::string cmd = "python3 " MORRIGAN_COMPARE_BENCH " " +
                            options + " '" + candidate + "' '" +
                            golden + "' > /dev/null 2>&1";
    int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

bool
havePython()
{
    return std::system("python3 -c '' > /dev/null 2>&1") == 0;
}

} // namespace

TEST(CompareBench, CleanMatchExitsZero)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    const std::string golden = writeArtifact(
        "cb-golden.json", row("a", "1.5") + "," + row("b", "2.5"));
    const std::string cand = writeArtifact(
        "cb-clean.json", row("a", "1.5") + "," + row("b", "2.5"));
    EXPECT_EQ(runCompare(cand, golden), 0);
}

TEST(CompareBench, NoteChangeExitsOneInBothModes)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    const std::string golden = writeArtifact(
        "cb-golden-note.json", row("a", "1.5", "radix-tree translate"));
    const std::string same = writeArtifact(
        "cb-same-note.json", row("a", "1.5", "radix-tree translate"));
    const std::string moved = writeArtifact(
        "cb-moved-note.json", row("a", "1.5", "flat-map translate"));
    const std::string none =
        writeArtifact("cb-no-note.json", row("a", "1.5"));
    for (const char *mode : {"--rtol 0.0", "--min-ratio 0.7"}) {
        SCOPED_TRACE(mode);
        EXPECT_EQ(runCompare(same, golden, mode), 0);
        EXPECT_EQ(runCompare(moved, golden, mode), 1);
        EXPECT_EQ(runCompare(none, golden, mode), 1);
    }
}

TEST(CompareBench, MeasuredRegressionExitsOne)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    const std::string golden =
        writeArtifact("cb-golden1.json", row("a", "1.5"));
    const std::string cand =
        writeArtifact("cb-moved.json", row("a", "9.5"));
    EXPECT_EQ(runCompare(cand, golden), 1);
}

TEST(CompareBench, MissingFileExitsTwo)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    const std::string golden =
        writeArtifact("cb-golden2.json", row("a", "1.5"));
    EXPECT_EQ(
        runCompare(testing::TempDir() + "cb-does-not-exist.json",
                   golden),
        2);
}

TEST(CompareBench, NanRowsExitTwoNotCrash)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    // A degraded campaign serializes NaN speedups as null
    // (json::Writer); the comparator must classify, not traceback.
    const std::string golden = writeArtifact(
        "cb-golden3.json", row("a", "1.5") + "," + row("b", "2.5"));
    const std::string cand = writeArtifact(
        "cb-nan.json", row("a", "null") + "," + row("b", "2.5"));
    EXPECT_EQ(runCompare(cand, golden), 2);
}

TEST(CompareBench, FailureManifestExitsTwoEvenWhenRowsMatch)
{
    if (!havePython())
        GTEST_SKIP() << "python3 unavailable";
    const std::string golden =
        writeArtifact("cb-golden4.json", row("a", "1.5"));
    const std::string cand = writeArtifact(
        "cb-manifest.json", row("a", "1.5"),
        "[{\"label\":\"qmm_03/morrigan\",\"status\":\"Crashed\","
        "\"attempts\":2,\"what\":\"signal 9\"}]");
    EXPECT_EQ(runCompare(cand, golden), 2);
}
