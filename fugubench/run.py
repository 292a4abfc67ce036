#!/usr/bin/env python3
"""fugubench: the simulator's reference benchmark.

Run from the root of a checkout:

    python3 fugubench/run.py --workload paper_mix --seed 1 --seconds 30 \
        --trace 0

Builds fugubench/ (a CMake project over ../src) in Release into
$CARGO_TARGET_DIR/fugubench (default .bench_build/fugubench), then runs
the workload in a fresh process for --seconds and prints a report
followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
is the traced run: layer probes, alternating traced/untraced pairs,
the per-layer metrics, and spans + fugutrace files written to
$CARGO_TARGET_DIR/fugubench/traces/<workload>-seed<seed>/.

A cell is one machine run. It fails if it does not complete within
harness.max_cycles, reports invariant violations, or its simulated-output
fingerprint differs from the other iterations', from the traced run's,
or (at the default seed) from expected.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_mix", "synth_mesh512", "serving_kv")
DEFAULT_SEED = 1
THREADS = min(4, os.cpu_count() or 1)
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.run_s": "s",
    "sim.ns_per_event": "ns",
    "sim.cycles": "cycles",
    "sim.probe_schedule_fire_ns": "ns",
    "exec.user_cycles": "cycles",
    "exec.kernel_cycles": "cycles",
    "exec.contexts_spawned": "count",
    "exec.preemptions": "count",
    "exec.irqs": "count",
    "net.messages": "count",
    "net.words": "count",
    "net.hol_blocks": "count",
    "net.probe_send_ns": "ns",
    "net.probe_pairs": "count",
    "core.launches": "count",
    "core.received": "count",
    "core.mismatch_irqs": "count",
    "core.message_irqs": "count",
    "core.fast_latency_p50_cycles": "cycles",
    "core.fast_latency_p99_cycles": "cycles",
    "glaze.direct": "count",
    "glaze.buffered": "count",
    "glaze.fast_frac": "ratio",
    "glaze.buffer_inserts": "count",
    "glaze.upcalls": "count",
    "glaze.mode_entries": "count",
    "glaze.buf_latency_p99_cycles": "cycles",
    "glaze.vbuf_peak_pages": "pages",
    "glaze.vm_allocations": "count",
    "glaze.machine_build_s": "s",
    "glaze.teardown_s": "s",
    "check.deliveries_checked": "count",
    "crl.start_ops": "count",
    "crl.hits": "count",
    "crl.misses": "count",
    "crl.hit_frac": "ratio",
    "trace.events_recorded": "count",
    "trace.pairs": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.export_s": "s",
    "trace.summarize_s": "s",
    "harness.cells": "count",
    "harness.threads": "count",
    "harness.cell_max_s": "s",
    "harness.cell_mean_s": "s",
    "harness.cell_imbalance": "ratio",
}

# Printed and written to layers.json like PER_LAYER, but not part of the
# result: each reads 0 on some gated workload, and a benchmark metric
# must never be 0. serve.* runs only on serving_kv; serving_kv's shards
# are touched only by their home node, so CRL never invalidates or
# writes back there; serving_kv's handlers never time out; neither
# workload page-faults or overflows; a violation fails its cell instead
# of moving a metric.
PRINTED_ONLY = {
    "core.atomicity_timeouts": "count",
    "glaze.page_faults": "count",
    "glaze.overflow_events": "count",
    "check.violations": "count",
    "crl.invalidations": "count",
    "crl.writebacks": "count",
    "serve.completed": "count",
    "serve.slo_met": "count",
    "serve.slo_met_frac": "ratio",
    "serve.buffered_reqs": "count",
    "serve.buffered_req_frac": "ratio",
    "serve.p99_cycles": "cycles",
    "serve.goodput_per_kcycle_node": "req/kcycle/node",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "fugubench")


def build():
    """Configure (once) and build the benchmark; return the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("fugubench: simulator sources (src/) not found next to "
            "fugubench/; run from the root of a full checkout")
        sys.exit(2)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", str(THREADS)],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "fugubench")


def run_child(exe, args):
    """Run the fugubench binary in a fresh process; return its JSON lines."""
    env = dict(os.environ, FUGU_THREADS=str(THREADS))
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, env=env,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        log("fugubench: binary exited with", proc.returncode)
        sys.exit(1)
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def ratio(num, den):
    return num / den if den else 0.0


class Checker:
    """Counts failed cells against attempted ones."""

    def __init__(self, workload, seed, expected):
        self.expected = expected.get(workload, {}) \
            if seed == DEFAULT_SEED else {}
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def cell(self, name, ok, fp, traced):
        self.attempted += 1
        why = None
        ref = self.reference.setdefault(name, fp)
        if not ok:
            why = "did not complete or reported violations"
        elif name in self.expected and fp != self.expected[name]:
            why = "fingerprint %s != expected %s" % (fp, self.expected[name])
        elif fp != ref:
            why = "%sfingerprint %s != %s of the first untraced iteration" \
                % ("traced " if traced else "", fp, ref)
        if why:
            self.failed += 1
            self.reasons.append("%s: %s" % (name, why))

    def iteration(self, it):
        for name, fp in it["fp"].items():
            self.cell(name, it["ok"][name], fp, it["traced"])


def timing(name, values, unit="s"):
    """Print a timing's median, min, quartiles, n; return the median."""
    q1, med, q3 = quartiles(values)
    print("  %-34s %-12.6g %-5s [min %.6g, q1 %.6g, q3 %.6g, n=%d]"
          % (name, med, unit, min(values), q1, q3, len(values)))
    return med


def measure_e2e(exe, args, checker):
    lines = run_child(exe, ["--workload", args.workload, "--seed",
                            str(args.seed), "--seconds", str(args.seconds),
                            "--mode", "e2e"])
    iters = [d for d in lines if d["type"] == "iter"]
    for it in iters:
        checker.iteration(it)
    # A serial workload (one cell) repeats bit-identical work, so host
    # interference only adds time and the fastest iteration is its
    # cost. With several cells on the pool, the wall also depends on
    # which cells share a worker; its fastest iteration is a lucky
    # schedule, so the median is reported.
    serial = len(iters[0]["fp"]) == 1
    stat = min if serial else statistics.median
    print("end-to-end (untraced; value = %s over iterations):"
          % ("min" if serial else "median"))
    walls = [it["wall_s"] for it in iters]
    setups = [it["setup_s"] for it in iters]
    timing("wall_s", walls)
    timing("setup_s", setups)
    end = next(d for d in lines if d["type"] == "end")
    metrics = {
        "wall_s": stat(walls),
        "setup_s": stat(setups),
        "peak_rss_mb": end["peak_rss_kb"] / 1024.0,
    }
    print("  %-34s %-12.6g %-5s [one fresh process, VmHWM]"
          % ("peak_rss_mb", metrics["peak_rss_mb"], "MB"))
    return metrics, lines[0], None


def self_times(spans):
    """Per (layer, name): total and self seconds, span count."""
    events = spans["traceEvents"]
    child = [0.0] * len(events)
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            child[parent] += e["dur"]
    out = {}
    for e, c in zip(events, child):
        key = "%s/%s" % (e["cat"], e["name"])
        row = out.setdefault(key, {"count": 0, "total_s": 0.0,
                                   "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += e["dur"] / 1e6
        row["self_s"] += max(0.0, e["dur"] - c) / 1e6
    return out


def measure_layers(exe, args, checker, out_dir):
    lines = run_child(exe, ["--workload", args.workload, "--seed",
                            str(args.seed), "--seconds", str(args.seconds),
                            "--mode", "layers", "--out", out_dir])
    iters = [d for d in lines if d["type"] == "iter"]
    untraced = [it for it in iters if not it["traced"]]
    traced = [it for it in iters if it["traced"]]
    for it in untraced + traced:  # untraced fingerprints are the reference
        checker.iteration(it)
    counts = next(d for d in lines if d["type"] == "counts")
    probes = {}
    for d in lines:
        if d["type"] == "probe":
            probes.update(d)
    meta = lines[0]

    print("per-layer timings (median of the run's iterations):")
    m = {k: counts.get(k, 0.0) for k in {**PER_LAYER, **PRINTED_ONLY}}
    m["sim.run_s"] = timing("sim.run_s", [it["run_s"] for it in untraced])
    m["glaze.machine_build_s"] = timing("glaze.machine_build_s",
                                     [it["setup_s"] for it in untraced])
    m["glaze.teardown_s"] = timing("glaze.teardown_s",
                                [it["teardown_s"] for it in untraced])
    m["trace.untraced_wall_s"] = timing("trace.untraced_wall_s",
                                     [it["wall_s"] for it in untraced])
    m["trace.traced_wall_s"] = timing("trace.traced_wall_s",
                                   [it["wall_s"] for it in traced])
    m["trace.export_s"] = timing("trace.export_s",
                              [it["export_s"] for it in traced])
    m["trace.summarize_s"] = timing("trace.summarize_s",
                                 [it["summarize_s"] for it in traced])
    # Alternating pairs, emitted back to back; never a single A/B.
    pairs = [(iters[i], iters[i + 1]) for i in range(0, len(iters) - 1, 2)]
    overhead = []
    for a, b in pairs:
        t, u = (a, b) if a["traced"] else (b, a)
        overhead.append(ratio(t["wall_s"] - u["wall_s"], u["wall_s"]))
    m["trace.overhead_frac"] = timing("trace.overhead_frac", overhead, "ratio")
    m["trace.pairs"] = len(pairs)
    m["trace.events_recorded"] = traced[0]["trace_events"]

    m["sim.ns_per_event"] = ratio(m["sim.run_s"] * 1e9, m["sim.events"])
    m["sim.probe_schedule_fire_ns"] = probes["sim.probe_schedule_fire_ns"]
    m["net.probe_send_ns"] = probes["net.probe_send_ns"]
    m["net.probe_pairs"] = probes["net.probe_pairs"]
    m["glaze.fast_frac"] = ratio(m["glaze.direct"],
                                 m["glaze.direct"] + m["glaze.buffered"])
    m["crl.hit_frac"] = ratio(m["crl.hits"], m["crl.hits"] + m["crl.misses"])
    m["serve.slo_met_frac"] = ratio(m["serve.slo_met"], m["serve.completed"])
    m["serve.buffered_req_frac"] = ratio(m["serve.buffered_reqs"],
                                         m["serve.completed"])
    m["serve.goodput_per_kcycle_node"] = ratio(
        m["serve.completed"] * 1000.0,
        counts.get("serve.span_cycles", 0.0) * probes["net.probe_nodes"])

    cell_s = [statistics.median(c)
              for c in zip(*(it["cell_s"] for it in untraced))]
    m["harness.cells"] = len(cell_s)
    m["harness.threads"] = meta["threads"]
    m["harness.cell_max_s"] = max(cell_s)
    m["harness.cell_mean_s"] = statistics.mean(cell_s)
    m["harness.cell_imbalance"] = ratio(max(cell_s),
                                        statistics.mean(cell_s))

    print("per-layer (traced run; counts are deterministic per seed):")
    for k, unit in PER_LAYER.items():
        print("  %-34s %14.6g %s" % (k, m[k], unit))
    print("per-layer, printed only (0 on some workload):")
    for k, unit in PRINTED_ONLY.items():
        print("  %-34s %14.6g %s" % (k, m[k], unit))
    with open(os.path.join(out_dir, "spans.json")) as f:
        selfs = self_times(json.load(f))
    print("spans (traced iterations; self = total - children):")
    for key, row in sorted(selfs.items()):
        print("  %-20s n=%-5d total %10.4f s  self %10.4f s"
              % (key, row["count"], row["total_s"], row["self_s"]))
    return m, meta, selfs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", default=os.path.join(HERE,
                                                       "expected.json"),
                    help="expected fingerprints at the default seed")
    ap.add_argument("--write-expected", action="store_true",
                    help="record this run's fingerprints as expected "
                         "(default seed only)")
    args = ap.parse_args()

    exe = build()
    with open(args.expected) as f:
        expected = json.load(f)
    checker = Checker(args.workload, args.seed,
                      {} if args.write_expected else expected)

    if args.trace:
        out_dir = os.path.join(build_dir(), "traces", "%s-seed%d"
                               % (args.workload, args.seed))
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        values, meta, selfs = measure_layers(exe, args, checker, out_dir)
        units = PER_LAYER
    else:
        values, meta, selfs = measure_e2e(exe, args, checker)
        units = END_TO_END
    host = {k: meta[k] for k in ("nproc", "compiler", "build_type",
                                 "threads")}
    host.update(commit=git_commit(), seed=args.seed, workload=args.workload)
    if args.trace:
        with open(os.path.join(out_dir, "layers.json"), "w") as f:
            json.dump({"host": host, "metrics": values,
                       "span_self_times": selfs}, f, indent=1,
                      sort_keys=True)
        print("traced output (fugutrace, spans.json, layers.json) in",
              out_dir)

    if args.write_expected and args.seed == DEFAULT_SEED:
        expected[args.workload] = checker.reference
        with open(args.expected, "w") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")

    error_rate = ratio(checker.failed, checker.attempted)
    print("host:", " ".join("%s=%s" % kv for kv in host.items()))
    print("  %-34s %14.6g %-7s [failed %d of %d cells]"
          % ("error_rate", error_rate, "ratio", checker.failed,
             checker.attempted))
    for why in checker.reasons[:10]:
        print("  FAILED", why)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
