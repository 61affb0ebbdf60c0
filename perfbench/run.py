#!/usr/bin/env python3
"""End-to-end benchmark of the Galois engine: build, self-test, run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cold_llm|warm_tail|served_mixed \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which builds the engine library through the
repository's own CMake rules) in Release mode under $CARGO_TARGET_DIR
(default .bench_build), runs the benchmark's self-tests, then runs one
workload. Everything the benchmark prints goes to standard output; its
last line is the JSON result. Build output goes to standard error. Exits
non-zero when the build, a self-test or an output check fails.
"""

import os
import pathlib
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
SELFTEST_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(map(str, cmd))}")


def main():
    bench_dir = pathlib.Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} is not a Galois source checkout (no CMakeLists.txt/src)")

    build_root = pathlib.Path(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    cache = build_dir / "CMakeCache.txt"
    if cache.is_file() and f"={bench_dir}\n" not in cache.read_text():
        shutil.rmtree(build_dir)  # configured for another source tree
    if not cache.is_file():
        run_quiet(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", str(build_dir), "--target",
               "galois_perfbench", "perfbench_selftest", "-j", jobs],
              BUILD_TIMEOUT_S)
    run_quiet([str(build_dir / "perfbench_selftest")], SELFTEST_TIMEOUT_S)

    cmd = [str(build_dir / "galois_perfbench"), *sys.argv[1:],
           "--work-dir", str(build_root / "perfbench-run")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        sys.exit(done.returncode)
    if not lines or not lines[-1].startswith("{"):
        fail("benchmark printed no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
