#!/usr/bin/env python3
"""Build the IPDS end-to-end benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_stream --seed 1 \
        --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build). The last
line of standard output is the run's JSON result; build logs go to
standard error. ``--self-test`` builds and runs the tests of the
benchmark's output checks instead. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_stream", "protect_timed", "corpus_campaign")
# A run must finish within 180 s; the binary's own windows are far
# shorter, so this only stops a hung run.
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir, target):
    """Configure once, then build @target (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the output-check tests")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no IPDS sources next to perfbench/ (expected src/); "
            "run from a full checkout")
        return 2

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        if args.self_test:
            return subprocess.call([build(build_dir, "perfbench_tests")])
        binary = build(build_dir, "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 2

    # Scratch space for captures and the socket, inside the checkout.
    # Relative, so the AF_UNIX path stays short.
    workdir = os.path.relpath(
        os.path.join(build_dir, "run-%d" % os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--trace-dir",
           os.path.relpath(trace_dir)]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        code = 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
