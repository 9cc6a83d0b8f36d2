#!/usr/bin/env python3
"""Check a Chrome trace written by examples/icc (--trace).

    python3 ci/check_trace.py <trace.json> <parties>

The trace must parse as JSON, hold exactly <parties> party tracks (pids),
and hold at least one virtual-time `round` span on each. Pass the number
of honest parties: crashed and Byzantine slots journal nothing, so they
have no track. Wall-clock runtime lanes (pid 1000000, present with
--runtime) are ignored.

Exit status: 0 when the trace passes, 1 when it does not, 2 on usage or
unreadable input.
"""
import json
import sys

RUNTIME_PID = 1_000_000


def main(argv):
    if len(argv) != 3 or not argv[2].isdigit():
        print("usage: check_trace.py <trace.json> <parties>", file=sys.stderr)
        return 2
    path, parties = argv[1], int(argv[2])
    try:
        with open(path, encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"check_trace: {path}: {e}", file=sys.stderr)
        return 2
    pids = {e["pid"] for e in events if e["pid"] != RUNTIME_PID}
    with_rounds = {e["pid"] for e in events
                   if e.get("name") == "round" and e.get("ph") == "X"}
    missing = sorted(pids - with_rounds)
    if len(pids) != parties or missing:
        print(f"check_trace: {path}: {len(pids)} party tracks (expected {parties}), "
              f"no round span for parties {missing}", file=sys.stderr)
        return 1
    print(f"check_trace: {path}: {len(events)} events, a round span for each of "
          f"{parties} parties")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
