#!/usr/bin/env python3
"""vaobench: build the benchmark from source, run one workload, print metrics.

    python3 vaobench/run.py --workload <book|wide|storm> --seed <n> \
        --seconds <s> --trace <0|1> [--plant-fault]

The first run configures and compiles this directory (the vaolib libraries
from ../src plus the driver) into $CARGO_TARGET_DIR/vaobench, default
.bench_build/vaobench under the repository root; later runs only check the
build is current. The driver's last stdout line is the result JSON. With
--trace 1 the driver also writes a Chrome trace, which this script feeds to
the unchanged tools/trace_inspect; a trace it cannot read makes the run
incorrect. --plant-fault serves deliberately wrong answers (self-test: the
run must come out incorrect with failed > 0).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    command = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--plant-fault", action="store_true")
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/trace_inspect.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"vaobench: {needed} not found next to {HERE}; "
                "run from a full vaolib checkout")
            return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "vaobench")
    if not build(build_dir):
        log("vaobench: build failed")
        return 1

    command = [os.path.join(build_dir, "vaobench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    trace_path = None
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, f"{args.workload}-{args.seed}.json")
        command += ["--trace-out", trace_path]
    if args.plant_fault:
        command.append("--plant-fault")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"vaobench: driver exceeded {DRIVER_TIMEOUT_S} s")
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        log(f"vaobench: driver exited with {run.returncode}")
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    if trace_path is not None:
        inspect = subprocess.run(
            [os.path.join(build_dir, "vaobench_trace_inspect"), trace_path,
             "--top", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=DRIVER_TIMEOUT_S)
        print(f"trace_inspect (exit {inspect.returncode}):")
        for line in inspect.stdout.splitlines()[:14]:
            print("  " + line)
        if inspect.returncode != 0:
            result["correct"] = False

    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
