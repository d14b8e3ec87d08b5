#!/usr/bin/env python3
"""Builds the repository from source and runs one benchmark workload.

Run from the root of a checkout:

    python3 uwbench/run.py --workload offline_table2 --seed 1 --seconds 8 --trace 0
    python3 uwbench/run.py --selftest      # the benchmark's own unit tests

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; the artifact cache, span files and per-run results go beside it.
The last line of stdout is the run's JSON result; build output and
diagnostics go to stderr. Exits non-zero, printing no result, when the
repository sources are missing or the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def fail(message):
    print("uwbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(REPO_ROOT, target)


def build(target):
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to the benchmark; nothing to build")
    build_dir = os.path.join(build_root(), "uwbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, target)


def source_digest():
    """A digest of every source file the benchmark binary is built from.

    It keys the warm artifact cache, so a cache is only ever read by the
    code that filled it. It hashes the files themselves, never a commit
    id, so uncommitted edits get a key of their own too.
    """
    digest = hashlib.sha256()
    for base in ("CMakeLists.txt", "src", os.path.join("uwbench", "CMakeLists.txt"),
                 os.path.join("uwbench", "src")):
        path = os.path.join(REPO_ROOT, base)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs]
        for name in sorted(files):
            digest.update(os.path.relpath(name, REPO_ROOT).encode() + b"\0")
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def run(binary, argv):
    try:
        proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, cwd=REPO_ROOT)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds", default="8")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--record-digests")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(run(build("uwbench_test"), ["--gtest_brief=1"]))
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")

    binary = build("uwbench")
    out = build_root()
    argv = ["--workload", args.workload, "--seed", args.seed,
            "--seconds", args.seconds, "--trace", args.trace,
            "--cache-dir", os.path.join(out, "cache"),
            "--out-dir", os.path.join(out, "out"),
            "--digests", os.path.join(BENCH_DIR, "digests", "offline_table2.txt"),
            "--source", source_digest()]
    if args.record_digests:
        argv += ["--record-digests", os.path.abspath(args.record_digests)]
    sys.exit(run(binary, argv))


if __name__ == "__main__":
    main()
