#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
the simulator libraries and the perfbench program under .bench_build/
(or $CARGO_TARGET_DIR when set); later calls rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the
program's JSON result. The exit status is the program's: 0 only when
every correctness check passed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A whole run, build excluded, must end well inside three minutes.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    cmake = ["cmake", "-S", HERE, "-B", out_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(cmake, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    out_dir = build_dir()
    try:
        build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--self-test" in args:
        args += ["--scratch-dir", out_dir]
    proc = subprocess.Popen([os.path.join(out_dir, "perfbench")] + args)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
