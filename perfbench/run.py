#!/usr/bin/env python3
"""The pipeline benchmark's command.

    python3 perfbench/run.py --workload <study|ingest|serve>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds perfbench/ (which compiles ../src)
into .bench_build/, generates the workload's inputs for the seed in a
separate process (cached in .bench_build/inputs/, so generation never shows
in any metric), runs the measurement in a fresh process, and prints that
process's report. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json;
with --trace 1 they are its per_layer metrics (a layer the workload does not
exercise reports 0). The exit code is 0 only when every operation and
correctness check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("study", "ingest", "serve")
BUILD_DIR = ".bench_build"
INPUTS_KEPT = 2        # cached input sets per workload (they are large)
RUN_TIMEOUT_S = 170    # the whole command must end within 180 s
BUILD_TIMEOUT_S = 700  # with the measurement budget, under 900 s


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_bounded(argv, timeout, **kwargs):
    """Runs argv in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(argv, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{argv[0]} {argv[1] if len(argv) > 1 else ''} timed out")
    return proc.returncode, out


def build(deadline):
    """Configures once, then (re)builds the perfbench binary. Returns its path."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code, _ = run_bounded(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            deadline - time.monotonic(), stdout=sys.stderr)
        if code != 0:
            fail("cmake configure failed")
    code, _ = run_bounded(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"],
        deadline - time.monotonic(), stdout=sys.stderr)
    if code != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def binary_hash(binary):
    """Content hash of the built binary: the code that generates inputs."""
    digest = hashlib.sha256()
    with open(binary, "rb") as image:
        for chunk in iter(lambda: image.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def ensure_inputs(binary, workload, seed, deadline):
    """Returns the input directory for (workload, seed), generating it once.

    Several inputs (stores, expected checksums, reference answers) are
    written by the code under test, so the cache is keyed on the binary's
    content hash too: another build never reuses them."""
    inputs = os.path.join(BUILD_DIR, "inputs")
    code_key = binary_hash(binary)
    if os.path.isdir(inputs):
        for name in os.listdir(inputs):
            if name != code_key:
                shutil.rmtree(os.path.join(inputs, name), ignore_errors=True)
    root = os.path.join(inputs, code_key)
    path = os.path.join(root, f"{workload}-{seed}")
    if not os.path.exists(os.path.join(path, "INPUT")):
        os.makedirs(root, exist_ok=True)
        # Bound the cache: drop the least recently used sets of this workload.
        cached = sorted(
            (os.path.getmtime(os.path.join(root, name)), name)
            for name in os.listdir(root) if name.startswith(workload + "-"))
        for _, name in cached[:max(0, len(cached) - INPUTS_KEPT + 1)]:
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)
        partial = path + ".partial"
        shutil.rmtree(partial, ignore_errors=True)
        code, _ = run_bounded([binary, "gen", workload, str(seed), partial],
                              deadline - time.monotonic(), stdout=sys.stderr)
        if code != 0:
            shutil.rmtree(partial, ignore_errors=True)
            fail(f"generating {workload} inputs for seed {seed} failed")
        shutil.rmtree(path, ignore_errors=True)
        os.rename(partial, path)
    os.utime(path)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root: no src/CMakeLists.txt here")
    try:
        with open("BENCHMARK.json") as spec_file:
            spec = json.load(spec_file)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")

    binary = build(started + BUILD_TIMEOUT_S)
    # Measurement gets its own budget once the (possibly long) build is done.
    deadline = time.monotonic() + RUN_TIMEOUT_S
    inputs = ensure_inputs(binary, args.workload, args.seed, deadline)
    work = os.path.join(BUILD_DIR, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    code, out = run_bounded(
        [binary, "run", args.workload, str(args.seed), str(args.seconds),
         str(args.trace), inputs, work],
        deadline - time.monotonic(), stdout=subprocess.PIPE, text=True)
    shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"measurement exited {code} without a result")

    # The metric set must be exactly the one BENCHMARK.json declares.
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics.setdefault(
            "fail_ratio", {"value": failed / attempted, "unit": "ratio"})
        for metric in declared:
            metrics.setdefault(metric["name"],
                               {"value": 0, "unit": metric["unit"]})
    names = {metric["name"]: metric["unit"] for metric in declared}
    for name, value in metrics.items():
        if names.get(name) != value["unit"]:
            fail(f"metric {name} ({value['unit']}) is not declared as such")
    for name in names:
        if name not in metrics:
            fail(f"metric {name} was not measured")
        if not args.trace and metrics[name]["value"] <= 0:
            fail(f"end-to-end metric {name} is not positive")
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": {name: metrics[name] for name in names}}))
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
