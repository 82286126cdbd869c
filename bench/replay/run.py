#!/usr/bin/env python3
"""Builds and runs the replay benchmark (bench/replay/replay_bench.cc).

Usage, from the repository root:

    python3 bench/replay/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The benchmark is compiled from this checkout's sources into the build
directory named by $CARGO_TARGET_DIR (default .bench_build, relative to the
repository root), with a Release CMake build of bench/replay. Build output
goes to stderr; the benchmark's own stdout, whose last line is the JSON
result, passes through unchanged. Traced runs (--trace 1) also write their
span records to <build dir>/spans/. The exit code is the benchmark's, or 1
when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TARGET = "replay_bench"


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_quiet(cmd, env):
    """Runs a build step with its output on stderr; True on success."""
    result = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr
    )
    return result.returncode == 0


def build(out_dir):
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not run_quiet(
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"], env
    ):
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(
        ["cmake", "--build", out_dir, "--target", TARGET, "-j", jobs], env
    ):
        return None
    binary = os.path.join(out_dir, TARGET)
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        spans = os.path.join(out_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += [
            "--spans",
            os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl"),
        ]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
