#!/usr/bin/env python3
"""Quick self-test of fugubench (under a minute on 4 cores).

Run from the root of a checkout:

    python3 fugubench/selftest.py

Checks that:

 1. on every workload, --trace 0 prints every end_to_end metric and
    --trace 1 every per_layer metric that BENCHMARK.json names, each
    with its unit and none of them 0, and the default seed runs correct
    with 0 failures;
 2. a deliberately wrong expected fingerprint raises error_rate:
    failed > 0 and correct is false;
 3. the benchmark's own stats collection equals harness::runJob's
    RunStats, field by field, on every workload;
 4. in a directory holding only BENCHMARK.json and fugubench/ (no
    simulator sources), run.py exits non-zero without a result line.

Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

import run

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def fail(msg):
    print("FAIL:", msg)
    sys.exit(1)


def bench(workload, trace, *extra, cwd=run.ROOT):
    """Run run.py for one second; return (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "fugubench", "run.py"),
         "--workload", workload, "--seed", str(run.DEFAULT_SEED),
         "--seconds", "1", "--trace", str(trace)] + list(extra),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=run.CHILD_TIMEOUT_S + 60)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(workload, trace, *extra):
    code, lines = bench(workload, trace, *extra)
    if code != 0 or not lines:
        fail("%s --trace %d exited %d" % (workload, trace, code))
    out = json.loads(lines[-1])
    if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(out)))
    return out, lines


def check_metrics(spec):
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out, _ = result(w["name"], trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want:
                fail("%s --trace %d: metrics %s, want %s"
                     % (w["name"], trace, got, want))
            zero = [k for k, v in out["metrics"].items() if v["value"] == 0]
            if zero:
                fail("%s --trace %d: metrics read 0: %s"
                     % (w["name"], trace, zero))
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                fail("%s --trace %d: %s" % (w["name"], trace,
                                            {k: out[k] for k in out
                                             if k != "metrics"}))
            print("ok   %-14s --trace %d: %d metrics, %d cells correct"
                  % (w["name"], trace, len(got), out["attempted"]))


def check_wrong_fingerprint():
    with open(os.path.join(run.HERE, "expected.json")) as f:
        expected = json.load(f)
    cell = sorted(expected["paper_mix"])[0]
    expected["paper_mix"][cell] = "0" * 16
    path = os.path.join(run.build_dir(), "selftest-expected.json")
    with open(path, "w") as f:
        json.dump(expected, f)
    out, lines = result("paper_mix", 0, "--expected", path)
    rate = [l for l in lines if l.split()[:1] == ["error_rate"]]
    if out["correct"] or out["failed"] < 1 or not rate \
            or float(rate[0].split()[1]) <= 0:
        fail("a wrong expected fingerprint was not counted: %s %s"
             % ({k: out[k] for k in out if k != "metrics"}, rate))
    print("ok   wrong fingerprint for %s: failed %d of %d, %s"
          % (cell, out["failed"], out["attempted"], rate[0].strip()))


def check_runjob():
    exe = run.build()
    for w in run.WORKLOADS:
        proc = subprocess.run([exe, "--workload", w, "--mode", "runjob"],
                              stdout=subprocess.PIPE, text=True,
                              timeout=run.CHILD_TIMEOUT_S)
        rows = [json.loads(l) for l in proc.stdout.splitlines()]
        cells = [r for r in rows if r["type"] == "runjob"]
        if proc.returncode != 0 or not cells \
                or not all(r["match"] for r in cells):
            fail("%s: collection differs from harness::runJob: %s"
                 % (w, cells))
        print("ok   %-14s collection == harness::runJob (%d cells)"
              % (w, len(cells)))


def check_bare_dir():
    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "fugubench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(SPEC, bare)
    code, lines = bench("paper_mix", 0, cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or any(l.startswith("{") for l in lines):
        fail("without simulator sources: exit %d, output %s"
             % (code, lines))
    print("ok   without simulator sources: exit %d, no result" % code)


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    check_metrics(spec)
    check_wrong_fingerprint()
    check_runjob()
    check_bare_dir()
    print("PASS")


if __name__ == "__main__":
    main()
