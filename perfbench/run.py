#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is built from the checkout's
own sources into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
the first run builds, later runs only check that the build is current. The
last line of standard output is the result as one JSON object; build output
goes to standard error. See perfbench/README.md for the workloads and metrics.

Besides the checks the benchmark binary makes inside one process, this script
keeps the virtual-time digest of every (workload, seed) it has run in the build
directory and fails a run whose digest differs from an earlier run's: virtual
time is a function of the inputs only, in any process, traced or not.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; run from a repository checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def check_digest(build_dir, workload, seed, lines):
    digests = [line.split()[1] for line in lines if line.startswith("vt-digest ")]
    if not digests:
        return None
    store = os.path.join(build_dir, "vt")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{workload}-{seed}.txt")
    if os.path.isfile(path):
        with open(path) as f:
            known = f.read().strip()
        if known != digests[0]:
            return (f"virtual-time digest {digests[0]} differs from {known} "
                    f"of an earlier run with the same workload and seed")
    else:
        with open(path, "w") as f:
            f.write(digests[0] + "\n")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines or proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail("benchmark printed no result")

    error = check_digest(build_dir, args.workload, args.seed, lines)
    for line in lines[:-1]:
        print(line)
    if error:
        print(f"CHECK FAILED: {error}")
        result["correct"] = False
        result["failed"] = max(result["failed"], 1)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
