#!/usr/bin/env python3
"""Performance-regression gate over committed BENCH_*.json baselines.

Compares a freshly produced bench report against the baseline checked
into bench/baselines/ and fails (exit 1) when any row's events/sec
regressed by more than the threshold (default 10%).

Rows are matched by their identity cells (section/app/nodes —
whichever the bench emits); the compared metric is events_per_sec.
Because CI runners and developer machines differ wildly in absolute
speed, the default mode normalizes: every baseline row is scaled by
the median current/baseline ratio across all matched rows, so the
gate triggers on *relative* regressions — one path getting slower
while the rest of the bench did not. A slowdown that hits every row
uniformly is indistinguishable from a slower host and passes; that is
the price of a host-portable gate (--absolute compares raw numbers
for same-host A/B runs). Rows present in the baseline but missing
from the current report fail the gate — silent coverage loss is a
regression too. Current rows absent from the baseline are a warning
by default (the gate still passes) and a failure under --strict, so
a bench that grows a new gated section cannot silently ship it
ungated — regenerating bench/baselines/ is part of the change.

Usage:
  ci/perf_gate.py BASELINE.json CURRENT.json [--threshold 0.10]
                  [--absolute] [--strict]
"""

import argparse
import json
import statistics
import sys

IDENTITY_KEYS = ("section", "app", "nodes")
METRIC = "events_per_sec"


def rows_by_identity(report):
    out = {}
    for row in report.get("rows", []):
        if METRIC not in row:
            continue  # e.g. bench_engine's trace-overhead gate row
        key = tuple((k, row[k]) for k in IDENTITY_KEYS if k in row)
        out[key] = row[METRIC]
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="allowed fractional regression (default 0.10)")
    ap.add_argument("--absolute", action="store_true",
                    help="skip host normalization (same-host A/B)")
    ap.add_argument("--strict", action="store_true",
                    help="fail (not warn) on current rows missing "
                         "from the baseline")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = rows_by_identity(json.load(f))
    with open(args.current) as f:
        cur = rows_by_identity(json.load(f))
    if not base:
        print(f"FAIL: no comparable rows in {args.baseline}")
        return 1

    matched = {k: (base[k], cur[k]) for k in base if k in cur}
    missing = sorted(k for k in base if k not in cur)
    for k in missing:
        print(f"FAIL: baseline row missing from current report: "
              f"{dict(k)}")

    extra = sorted(k for k in cur if k not in base)
    for k in extra:
        kind = "FAIL" if args.strict else "WARN"
        print(f"{kind}: current row not in baseline (not gated): "
              f"{dict(k)} — regenerate bench/baselines/ to cover it")

    scale = 1.0
    if not args.absolute and matched:
        scale = statistics.median(c / b for b, c in matched.values())
        print(f"host scale (median current/baseline): {scale:.3f}")

    failures = len(missing)
    if args.strict:
        failures += len(extra)
    for key, (b, c) in sorted(matched.items()):
        floor = (1.0 - args.threshold) * b * scale
        verdict = "ok" if c >= floor else "FAIL"
        print(f"{verdict}: {dict(key)}: {c:,.0f} events/sec vs "
              f"baseline {b:,.0f} (scaled floor {floor:,.0f})")
        if c < floor:
            failures += 1

    if failures:
        print(f"\n{failures} perf-gate failure(s); if intentional, "
              f"regenerate bench/baselines/ and commit the change")
        return 1
    print(f"\nperf gate passed ({len(matched)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
