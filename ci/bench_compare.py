#!/usr/bin/env python3
"""Compare a freshly generated BENCH_*.json against a committed baseline.

Three input formats are understood, detected per file:

icc-bench/v1 (virtual-time harness benches — machine-independent):

    {"schema": "icc-bench/v1", "bench": "...", "config": {...},
     "results": [{"name": "...", "value": 1.234, "unit": "ms"}, ...]}

Values are compared directly by name.

google-benchmark JSON (wall-clock kernel benches, e.g. BENCH_kernels.json
from bench_crypto): the file has a top-level "benchmarks" array. Only the
"*_mean" aggregates are used (run with --benchmark_repetitions). Because
wall-clock µs depend on the host, absolute times are NOT compared; instead
each mean is normalised by the geometric mean of all means and the
comparison runs on those dimensionless ratios — the *shape* of the profile.
A kernel that regresses relative to its peers still trips the gate, a
uniformly slower CI machine does not.

icc-series/v1 JSONL (windowed telemetry from examples/icc --series, soak
runs with --rounds included): the first line is a meta object with
"schema": "icc-series/v1", followed by one "type":"w" window per line.
The stream is reduced to throughput aggregates — window count and the
geometric means of per-window committed blocks and rounds (decimated
windows are scaled by their res) — then gated exactly like icc-bench/v1.
The config is the meta line's (n, t, protocol, seed, window_us).

Relative deviation bands (defaults):
  warn  > ±10 %  -> reported, exit 0
  fail  > ±25 %  -> reported, exit 1

Missing or extra result names are failures: a renamed metric silently
dropping out of regression tracking is exactly the kind of drift this
gate exists to catch. Config mismatches (different window, n, seed)
are also failures — the numbers would not be comparable.

Usage:
  ci/bench_compare.py <baseline.json> <fresh.json> [--warn-pct 10] [--fail-pct 25]
"""

import argparse
import json
import math
import sys

_TIME_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_series(text, path):
    """Reduce an icc-series/v1 JSONL stream to icc-bench/v1 shape."""
    meta, windows = None, []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        d = json.loads(line)
        if d.get("type") == "meta":
            meta = d
        elif d.get("type") == "w":
            windows.append(d)
    if meta is None or meta.get("schema") != "icc-series/v1":
        sys.exit(f"{path}: not an icc-series/v1 stream")
    if not windows:
        sys.exit(f"{path}: icc-series/v1 stream has no windows")

    def per_window(values):
        positive = [v for v in values if v > 0]
        if not positive:
            return 0.0
        return math.exp(sum(math.log(v) for v in positive) / len(positive))

    committed = [
        w.get("counters", {}).get("consensus.blocks_committed", 0) / w.get("res", 1)
        for w in windows
    ]
    rounds = [w.get("rounds", 0) / w.get("res", 1) for w in windows]
    return {
        "schema": "icc-bench/v1",
        "bench": "soak-series",
        "config": {k: meta.get(k) for k in ("n", "t", "protocol", "seed", "window_us")},
        "results": [
            {"name": "series.windows", "value": float(len(windows)), "unit": "count"},
            {
                "name": "series.committed_per_window_geomean",
                "value": per_window(committed),
                "unit": "blocks",
            },
            {
                "name": "series.rounds_per_window_geomean",
                "value": per_window(rounds),
                "unit": "rounds",
            },
        ],
    }


def load(path):
    with open(path) as f:
        text = f.read()
    first = text.lstrip().splitlines()[0] if text.strip() else ""
    if '"icc-series/v1"' in first:
        return load_series(text, path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        # Tolerate human summary lines ahead of the document — e.g. a bench
        # invoked with --runtime prints its (non-deterministic) profiler
        # lines to stdout, and a pipeline that redirects stdout into the
        # artifact must still gate cleanly. The JSON document always starts
        # at the first line whose first character is '{'.
        start = text.find("\n{")
        if start < 0:
            raise
        doc = json.loads(text[start + 1 :])
    if "benchmarks" in doc:  # google-benchmark JSON
        return doc
    if doc.get("schema") != "icc-bench/v1":
        sys.exit(f"{path}: unsupported schema {doc.get('schema')!r}")
    return doc


def gbench_means(doc, path):
    """{run_name: cpu_time in ns} for the *_mean aggregates."""
    means = {}
    for b in doc["benchmarks"]:
        if b.get("aggregate_name") != "mean":
            continue
        unit = _TIME_NS.get(b.get("time_unit", "ns"))
        if unit is None:
            sys.exit(f"{path}: {b['name']}: unknown time_unit {b.get('time_unit')!r}")
        means[b["run_name"]] = b["cpu_time"] * unit
    if not means:
        sys.exit(
            f"{path}: no *_mean aggregates — run with --benchmark_repetitions=3"
        )
    return means


def normalized(means):
    """Each mean divided by the geometric mean of all means (shape profile)."""
    log_gm = sum(math.log(v) for v in means.values()) / len(means)
    gm = math.exp(log_gm)
    return {name: v / gm for name, v in means.items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--warn-pct", type=float, default=10.0)
    ap.add_argument("--fail-pct", type=float, default=25.0)
    args = ap.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)

    failures, warnings = [], []

    gbench = "benchmarks" in base
    if gbench != ("benchmarks" in fresh):
        sys.exit("cannot compare icc-bench/v1 against google-benchmark JSON")

    if gbench:
        # Wall-clock kernels: compare the shape of the profile, not µs.
        base_results = {
            n: {"name": n, "value": v}
            for n, v in normalized(gbench_means(base, args.baseline)).items()
        }
        fresh_results = {
            n: {"name": n, "value": v}
            for n, v in normalized(gbench_means(fresh, args.fresh)).items()
        }
        bench_label = "kernels (shape)"
    else:
        if base.get("bench") != fresh.get("bench"):
            failures.append(
                f"bench mismatch: baseline {base.get('bench')!r} vs fresh {fresh.get('bench')!r}"
            )
        if base.get("config") != fresh.get("config"):
            failures.append(
                f"config mismatch: baseline {base.get('config')} vs fresh {fresh.get('config')}"
            )
        base_results = {r["name"]: r for r in base.get("results", [])}
        fresh_results = {r["name"]: r for r in fresh.get("results", [])}
        bench_label = base.get("bench")

    for name in sorted(base_results.keys() - fresh_results.keys()):
        failures.append(f"{name}: present in baseline, missing from fresh run")
    for name in sorted(fresh_results.keys() - base_results.keys()):
        failures.append(f"{name}: new result not in baseline (re-commit the baseline)")

    for name in sorted(base_results.keys() & fresh_results.keys()):
        b, f = base_results[name]["value"], fresh_results[name]["value"]
        if b == 0.0 and f == 0.0:
            continue
        if b == 0.0:
            failures.append(f"{name}: baseline 0, fresh {f}")
            continue
        dev = (f - b) / abs(b) * 100.0
        line = f"{name}: baseline {b:g} -> fresh {f:g} ({dev:+.1f} %)"
        if abs(dev) > args.fail_pct:
            failures.append(line)
        elif abs(dev) > args.warn_pct:
            warnings.append(line)

    for w in warnings:
        print(f"WARN {w}")
    for f in failures:
        print(f"FAIL {f}")
    n = len(base_results)
    print(
        f"bench_compare: {bench_label}: {n} baseline results, "
        f"{len(warnings)} warnings (>{args.warn_pct:g} %), "
        f"{len(failures)} failures (>{args.fail_pct:g} %)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
