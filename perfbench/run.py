#!/usr/bin/env python3
"""Build the rlgraph act / learn / serve benchmark from source and run it once.

Run from the repository root:

    python3 perfbench/run.py --workload act --seed 1 --seconds 25 --trace 0

The first run configures and compiles the rlgraph libraries and the
`perfbench` binary (CMake, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs only rebuild what changed.
The binary's last stdout line is the result object; the line before it
holds the run's context (seed, nproc, RLGRAPH_NUM_THREADS, build type,
sample counts, output-check details). Both are also saved under
<build dir>/results/, and traced runs write their spans to <build dir>/out/.
See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, stdout):
    """Run `cmd` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return out


def build(build_dir):
    for need in ("src/CMakeLists.txt", "bench/bench_common.h"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"rlgraph sources ({need}) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, sys.stderr)
    run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "3"],
        BUILD_TIMEOUT_S, sys.stderr)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json lists for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["act", "learn", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)

    stdout = run([binary, "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace),
                  "--out-dir", out_dir], RUN_TIMEOUT_S, subprocess.PIPE)
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        fail("perfbench printed no result")
    context, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}, units "
             f"{sorted(n for n in got if n in want and got[n] != want[n])}")

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump({"context": context, "result": result}, f, indent=1)
    print(json.dumps(context))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
