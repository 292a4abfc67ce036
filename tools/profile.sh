#!/usr/bin/env bash
# Profile a bench binary with Linux perf and print the hottest stacks.
#
# Usage:
#   tools/profile.sh <bench-binary> [args...]
#
# Example:
#   tools/profile.sh build-profile/bench/bench_engine
#   tools/profile.sh build-profile/bench/bench_sweep \
#       --scenario scenarios/scale1k.cfg
#
# Build the tree with frame pointers first, or the report collapses
# into the outermost frames:
#   cmake -B build-profile -S . -DCMAKE_BUILD_TYPE=Release \
#         -DFUGU_PROFILE=ON
#   cmake --build build-profile -j
#
# Requires: perf (linux-tools). Falls back to a plain flat report when
# the kernel blocks call-graph sampling (perf_event_paranoid > 2).
#
# Without perf, use gprofng; it names each coroutine body by its
# `[clone .actor]` frame:
#   gprofng collect app -O run.er <bench-binary> [args...]
#   gprofng display text -functions run.er
# Do not use gprof (-pg) on coroutine code, even with -fno-ipa-icf:
# it misattributes the actors. In a barrier-cell profile it reported
# the barrier handler's actor, with UdmPort::dispose, UdmPort::read
# and CondVar::notifyAll as children, as
# `fugu::detail::concat<char const (&)[30], char const (&)[33]>`.

set -euo pipefail

if [ $# -lt 1 ]; then
    sed -n '2,29p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi

if ! command -v perf >/dev/null 2>&1; then
    echo "error: perf not found (install linux-tools for this kernel," \
         "or use gprofng as the usage text shows)" >&2
    exit 1
fi

BIN=$1
shift

OUT=$(mktemp -t fugu-perf.XXXXXX.data)
trap 'rm -f "$OUT"' EXIT

# Frame-pointer call graphs match -fno-omit-frame-pointer builds and
# avoid the giant DWARF-unwind sample sizes.
if perf record -o "$OUT" -g --call-graph fp -- "$BIN" "$@"; then
    echo
    echo "== hottest call stacks (self% then graph) =="
    perf report -i "$OUT" --stdio --no-children \
        --percent-limit 0.5 2>/dev/null | head -80
else
    echo "perf record with call graphs failed; flat samples:" >&2
    perf record -o "$OUT" -- "$BIN" "$@"
    perf report -i "$OUT" --stdio --no-children 2>/dev/null | head -40
fi
