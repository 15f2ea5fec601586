#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program (perfbench/CMakeLists.txt) and
the repository libraries it links are compiled into .bench_build/perfbench on
first use; later runs only re-check the build.  Each run gets a scratch
directory under .bench_build for its epoch store, removed when the run ends.
A traced run (--trace 1) keeps its spans in .bench_build/traces/.  Build
output goes to stderr, so the program's JSON result is the last stdout line.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BUILD_TIMEOUT_S = 840


def run_timeout_s(seconds):
    # Set-up (~9 s), the window, the fixed rounds a slow host still has to
    # finish, the tail batches and a traced run's replays all add to it.
    return seconds * 2 + 120


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no library sources under %s/src; run from a full checkout" % ROOT)
    # Keep the compiler's temporary files inside the checkout too.
    (BUILD_ROOT / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(BUILD_ROOT / "tmp"))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S, env=env)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S, env=env)
    return BUILD_DIR / "vcbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit("run.py: build failed: %s" % e)

    workdir = BUILD_ROOT / ("run-%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--workdir", str(workdir)]
    timeout = run_timeout_s(args.seconds)
    try:
        code = subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("run.py: %s did not finish within %ds" % (args.workload, timeout),
              file=sys.stderr)
        code = 3
    finally:
        for spans in workdir.glob("spans-*.json"):
            traces = BUILD_ROOT / "traces"
            traces.mkdir(exist_ok=True)
            shutil.move(str(spans), traces / ("%s-seed%d.json" % (args.workload, args.seed)))
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
