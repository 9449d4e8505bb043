#!/usr/bin/env python3
"""Same-host benchmark of Cupid: builds the benchmark and runs one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cold_match --seed 1 --seconds 30 \
        --trace 0

The first run configures and builds libcupid (Release) and the benchmark
binary (cupid_perfbench) into .bench_build/perfbench; later runs only
check the build is current. The binary's stdout is passed through:
descriptive JSON lines (host, inputs, checks) and, last, one result line
with the keys correct, attempted, failed and metrics. BENCHMARK.json is the one list of
metrics: --trace 0 reports its end-to-end metrics, --trace 1 its per-layer
metrics, in its order and with its units. A metric the binary reports that
the list lacks, or an end-to-end metric it leaves out, refuses the result;
a layer the workload does not exercise reads 0.
See perfbench/CATALOGUE.md for workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark package; False on error."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return True


def catalogue(trace):
    """(name, unit) of every metric the run's mode reports, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def with_units(values, trace):
    """Orders the binary's metric values by BENCHMARK.json and adds units;
    None if a name is unknown or an end-to-end metric is missing."""
    names = catalogue(trace)
    unknown = set(values) - {name for name, _ in names}
    missing = [name for name, _ in names if name not in values]
    if unknown or (missing and not trace):
        print("perfbench: unknown metrics %s, missing %s"
              % (sorted(unknown), missing), file=sys.stderr)
        return None
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    span_dir = os.path.join(BUILD, "spans")
    os.makedirs(span_dir, exist_ok=True)
    command = [
        os.path.join(BUILD, "cupid_perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", span_dir,
    ]
    # A session of its own, so a timeout also stops every thread of it.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        print("perfbench: cupid_perfbench exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    result["metrics"] = with_units(result["metrics"], args.trace)
    if result["metrics"] is None:
        return 1
    lines[-1] = json.dumps(result)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
