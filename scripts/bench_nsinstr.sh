#!/bin/sh
# Replay-throughput regression guard for the packed fast path.
#
# Runs the headline BenchmarkPackedReplay/packed sub-benchmark (the
# monomorphized cursor drain the front end rides) and
# fails if its ns/instr metric exceeds the checked-in ceiling in
# scripts/bench_nsinstr_ceiling.txt, or if the drain allocates at all.
#
# The ceiling is the acceptance bound from the fast-core PR (8
# ns/instr; measured ~2.2-2.4 on CI-class hardware, so there is
# generous headroom for machine noise). A breach means a change put
# interface dispatch, a non-SSA-able record shape, or an allocation
# back on the per-record path — see the trace.Rec and trace.Cursor doc
# comments for the invariants that keep it fast.
set -eu
cd "$(dirname "$0")/.."

ceiling=$(cat scripts/bench_nsinstr_ceiling.txt)
out=$(go test -run '^$' -bench '^BenchmarkPackedReplay$/^packed$' -benchmem -benchtime 2s .)
echo "$out"

nsinstr=$(echo "$out" | awk '
  /BenchmarkPackedReplay\/packed(-[0-9]+)?[[:space:]]/ {
    for (i = 2; i <= NF; i++)
      if ($i == "ns/instr") { v = $(i-1) + 0; if (v > m) m = v }
  }
  END { print m + 0 }')

allocs=$(echo "$out" | awk '
  /BenchmarkPackedReplay\/packed(-[0-9]+)?[[:space:]]/ {
    for (i = 2; i <= NF; i++)
      if ($i == "allocs/op" && $(i-1) + 0 > m) m = $(i-1) + 0
  }
  END { print m + 0 }')

if awk -v v="$nsinstr" 'BEGIN { exit !(v <= 0) }'; then
  echo "bench_nsinstr: failed to parse ns/instr from benchmark output" >&2
  exit 1
fi

echo "bench_nsinstr: packed replay = $nsinstr ns/instr (ceiling $ceiling), $allocs allocs/op"
if awk -v v="$nsinstr" -v c="$ceiling" 'BEGIN { exit !(v > c) }'; then
  echo "bench_nsinstr: FAIL — packed replay $nsinstr ns/instr exceeds ceiling $ceiling" >&2
  exit 1
fi
if [ "$allocs" -gt 0 ]; then
  echo "bench_nsinstr: FAIL — packed replay allocated ($allocs allocs/op, want 0)" >&2
  exit 1
fi
echo "bench_nsinstr: OK"
