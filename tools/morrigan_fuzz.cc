/**
 * @file
 * Deterministic config/workload fuzz campaign driver.
 *
 * Samples random-but-valid simulator configurations from seeded
 * RNG streams, runs each seed's simulation family through the
 * worker pool under the differential checker, evaluates the
 * metamorphic invariants (see check/fuzz.hh), and exits non-zero if
 * any seed fails. The campaign is fully reproducible: rerunning
 * with the same --seed-base/--seeds/--instructions/--warmup
 * replays exactly the same simulations.
 *
 * Examples:
 *   morrigan-fuzz --seeds 25 --instructions 200000 --check
 *   morrigan-fuzz --seeds 1 --seed-base 17 --check-level 2
 *   morrigan-fuzz --seeds 5 --inject 50      # validate the checker
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "check/fuzz.hh"
#include "check/invariants.hh"
#include "common/logging.hh"
#include "sim/config_flags.hh"
#include "sim/supervisor.hh"

using namespace morrigan;

namespace
{

void
usage()
{
    std::printf(
        "morrigan-fuzz -- differential config/workload fuzzer\n"
        "\n"
        "  --seeds N             seeds to fuzz (default 25)\n"
        "  --seed-base N         first seed (default 1)\n"
        "  --instructions N      measured instructions per run "
        "(default 200000)\n"
        "  --warmup N            warmup instructions per run "
        "(default 50000)\n"
        "  --check               differential checking (always on; "
        "accepted for symmetry with morrigan-sim)\n"
        "  --check-level N       check level 1|2 (default 1; 2 adds "
        "heavyweight structural invariants)\n"
        "  --inject N            corrupt every Nth instruction demand "
        "walk of each base run; seeds then PASS only when the "
        "checker catches the corruption\n"
        "  --artifact-dir DIR    write failing-seed repro artifacts "
        "into DIR\n"
        "\n"
        "campaign options (a crashing or hanging seed is "
        "quarantined under --isolate, not fatal):\n");
    SupervisorOptions::printFlagUsage();
}

} // namespace

int
main(int argc, char **argv)
{
    check::FuzzOptions opt;
    SupervisorOptions sup = Supervisor::defaultOptions();

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--seeds") {
            opt.seeds = parseU64OrDie(arg, next(), 1, 1u << 20);
        } else if (arg == "--seed-base") {
            opt.seedBase =
                parseU64OrDie(arg, next(), 0, std::uint64_t{1} << 62);
        } else if (arg == "--instructions") {
            opt.instructions =
                parseU64OrDie(arg, next(), 1, std::uint64_t{1} << 32);
        } else if (arg == "--warmup") {
            opt.warmupInstructions =
                parseU64OrDie(arg, next(), 0, std::uint64_t{1} << 32);
        } else if (arg == "--check") {
            opt.checkLevel = std::max(opt.checkLevel, 1);
        } else if (arg == "--check-level") {
            opt.checkLevel =
                static_cast<int>(parseU64OrDie(arg, next(), 1, 2));
        } else if (arg == "--inject") {
            opt.injectPeriod =
                parseU64OrDie(arg, next(), 1, std::uint64_t{1} << 40);
        } else if (arg == "--artifact-dir") {
            opt.artifactDir = next();
        } else if (!sup.applyFlag(arg, next)) {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage();
            return 1;
        }
    }

    Supervisor::setDefaultOptions(sup);

    // Arm the structural invariant hooks at the requested level
    // (unless the user pinned MORRIGAN_CHECK_LEVEL themselves); the
    // env is read lazily on first use, which is after this point.
    setenv("MORRIGAN_CHECK_LEVEL",
           std::to_string(std::max(1, opt.checkLevel)).c_str(),
           /*overwrite=*/0);

    check::FuzzCampaignOutcome out =
        check::runCampaign(opt, &std::cout);
    return out.passed() ? 0 : 1;
}
