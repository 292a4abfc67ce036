#!/usr/bin/env python3
"""Same-host A/B perf gate: host wall-clock of fixed reference runs,
a parent checkout against a change checkout.

Usage:
  ci/perf_gate.py PARENT CHANGE

PARENT and CHANGE are source checkouts, each with a Release build in
its build/ directory (at least bench_engine and bench_sweep). Each
side runs its own binaries on its own scenario files, at
FUGU_THREADS=1, so both do the same simulated work on one core.
One reference, fig7_threads, passes --threads=2, which sets
FUGU_THREADS itself. It covers the threaded regime: once a process
has started a thread, libstdc++ makes every shared_ptr refcount
update atomic, a cost that no single-threaded run pays.

The gate runs ROUNDS rounds. A round runs every reference three times
back to back -- parent, change and parent again, starting at a
different one of the three each round -- so each invocation carries
its own A/A calibration. Each round gives two paired wall-clock
ratios per reference, change/parent and parent/parent (the second
parent run over the first), and the gate reads their medians.

It exits 1 when, for any reference:
  - the change/parent paired median exceeds 1 + LIMIT (a regression);
  - the parent/parent paired median is more than LIMIT from 1.0
    ("unresolved: host too noisy to gate", not a pass);
  - a change-side run exits non-zero.
A reference the parent cannot run (no binary or scenario file, or a
non-zero exit) is printed as `new` and not compared.
"""

import os
import re
import statistics
import subprocess
import sys
import time

ROUNDS = 7
LIMIT = 0.10

# (name, command run from the checkout's root). Together they cover
# the event kernel, large meshes, the serving tier, every NI backend
# under runTenants with tracing on, the paper apps gang-scheduled
# and at paper scale, and (fig7_threads) a process that has started
# threads. Every reference runs for seconds, because shorter runs
# spread too widely on a shared host to resolve LIMIT: bench_engine
# runs 10x its default events, and the isolation grid runs its victim
# at 48x (the shipped grid alone takes well under a second).
REFERENCES = [
    ("engine", "bench_engine --set engine.events=20000000"),
    ("scale1k_synth",
     "bench_sweep --scenario scenarios/scale1k.cfg"
     " --set sweep.workloads=synth"),
    ("serving", "bench_sweep --scenario scenarios/serving.cfg"),
    ("isolation",
     "bench_sweep --scenario scenarios/isolation.cfg"
     " --set apps.barrier.barriers=19200"),
    ("fig7", "bench_sweep --scenario scenarios/fig7_skew.cfg"),
    ("fig7_threads",
     "bench_sweep --scenario scenarios/fig7_skew.cfg --threads=2"),
    ("table6", "bench_sweep --scenario scenarios/table6_appchar.cfg"),
]


def die(msg):
    print(f"perf_gate: {msg}", file=sys.stderr)
    sys.exit(2)


def compiler(tree):
    """The build's compiler version line; exit 2 unless Release."""
    try:
        with open(os.path.join(tree, "build", "CMakeCache.txt")) as f:
            cache = dict(re.findall(r"^(\w+):\w+=(.*)$", f.read(), re.M))
    except OSError as e:
        die(f"{tree}: no CMake build in build/ ({e.strerror})")
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        die(f"{tree}/build is not a Release build")
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return version[0] if version else cxx


def run(tree, command, env):
    """Run one reference in @tree; return (wall seconds, rc, output)."""
    argv = command.split()
    argv[0] = os.path.join(tree, "build", "bench", argv[0])
    t0 = time.perf_counter()
    try:
        p = subprocess.run(argv, cwd=tree, env=env, text=True,
                           stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT)
    except OSError as e:
        return 0.0, 127, str(e)
    return time.perf_counter() - t0, p.returncode, p.stdout


def spread(xs):
    """'median [q1, q3]' of @xs seconds."""
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 \
        else (med, med, med)
    return f"{med:.3f} [{q1:.3f}, {q3:.3f}]"


def main():
    if len(sys.argv) != 3:
        die("usage: ci/perf_gate.py PARENT CHANGE")
    parent, change = (os.path.abspath(t) for t in sys.argv[1:])
    env = dict(os.environ, FUGU_THREADS="1")
    # The benches no longer read these, but a parent checkout may
    # predate their removal, and a stray one would shrink only its side.
    for knob in ("FUGU_QUICK", "FUGU_PAPER_SCALE", "FUGU_BENCH_N"):
        env.pop(knob, None)

    threaded = "".join(f", {name} {arg}" for name, command in REFERENCES
                       for arg in command.split()
                       if arg.startswith("--threads="))
    print(f"nproc {os.cpu_count()}, FUGU_THREADS=1{threaded}, "
          f"{ROUNDS} rounds, limit {LIMIT:.2f}")
    print(f"parent {parent}: {compiler(parent)}")
    print(f"change {change}: {compiler(change)}", flush=True)

    sides = (("parent", parent), ("change", change), ("parent2", parent))
    secs = {name: {s: [] for s, _ in sides} for name, _ in REFERENCES}
    new, failed = set(), {}
    for r in range(ROUNDS):
        order = sides[r % 3:] + sides[:r % 3]
        for name, command in REFERENCES:
            if name in failed:
                continue
            for side, tree in order:
                if side != "change" and name in new:
                    continue
                s, rc, out = run(tree, command, env)
                if rc == 0:
                    secs[name][side].append(s)
                elif side == "change":
                    failed[name] = rc
                    print(f"\n{name}: change run exited {rc}:\n"
                          + "\n".join(out.splitlines()[-5:]))
                    break
                else:
                    new.add(name)
        print(f"round {r + 1}/{ROUNDS} done", flush=True)

    print(f"\n{'reference':14} {'parent s: median [q1, q3]':28} "
          f"{'change s: median [q1, q3]':28} {'chg/par':>7} "
          f"{'par/par':>7}  verdict")
    failures = 0
    for name, command in REFERENCES:
        t = secs[name]
        par = t["parent"] + t["parent2"]
        cells = [spread(par) if par else "-",
                 spread(t["change"]) if t["change"] else "-", "-", "-"]
        if name in failed:
            verdict = f"FAIL: change run exited {failed[name]}"
        elif name in new:
            verdict = "new"
        else:
            pairs = len(t["change"])
            ab = statistics.median(t["change"][i] / t["parent"][i]
                                   for i in range(pairs))
            aa = statistics.median(t["parent2"][i] / t["parent"][i]
                                   for i in range(pairs))
            cells[2:] = f"{ab:.3f}", f"{aa:.3f}"
            if abs(aa - 1.0) > LIMIT:
                verdict = "unresolved: host too noisy to gate"
            elif ab > 1.0 + LIMIT:
                verdict = "FAIL: slower than parent"
            else:
                verdict = "ok"
        failures += verdict not in ("ok", "new")
        print(f"{name:14} {cells[0]:28} {cells[1]:28} {cells[2]:>7} "
              f"{cells[3]:>7}  {verdict}")
        print(f"{'':14} $ {command}")

    if failures:
        print(f"\nperf gate FAILED: {failures} reference(s)")
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
