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

set -euo pipefail

if [ $# -lt 1 ]; then
    sed -n '2,16p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi

if ! command -v perf >/dev/null 2>&1; then
    echo "error: perf not found (install linux-tools for this kernel)" >&2
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
