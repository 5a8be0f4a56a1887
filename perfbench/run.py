#!/usr/bin/env python3
"""Builds the specmine benchmark from source and runs one workload.

    python3 perfbench/run.py --workload quest_dense --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the workload's generated inputs go to a
scratch directory beside it. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; build and progress output go
to stderr. Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the specmine sources (CMakeLists.txt, src/) are not beside perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr,
            check=True,
        )
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "specbench", "-j", jobs],
        stdout=sys.stderr,
        check=True,
    )


def expected_metrics(trace):
    """The metric names BENCHMARK.json lists for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    binary = os.path.join(build_dir, "specbench")
    work = os.path.join(build_dir, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    # glibc's mmap threshold is fixed, so large result buffers go back to
    # the system when freed and peak RSS follows live data, not heap
    # fragmentation (which otherwise moves it by 10-25% between identical
    # runs). specmined inherits the setting.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="1048576")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        subprocess.run(
            [binary, "gen"] + common,
            stdout=sys.stderr,
            check=True,
            timeout=RUN_TIMEOUT_S,
            env=env,
        )
        run = subprocess.run(
            [binary, "run"]
            + common
            + [
                "--seconds",
                str(args.seconds),
                "--trace",
                str(args.trace),
                "--server",
                os.path.join(build_dir, "specmine", "specmined"),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
            timeout=max(1.0, deadline - time.monotonic()),
            env=env,
        )
    except (OSError, subprocess.SubprocessError) as err:
        fail(f"workload failed: {err}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    expected = expected_metrics(args.trace)
    if expected is not None and set(result.get("metrics", {})) != expected:
        fail("printed metrics differ from BENCHMARK.json")
    print(run.stdout, end="")


if __name__ == "__main__":
    main()
