#!/usr/bin/env bash
# perf_ab.sh — paired no-regression check of the working tree against
# an earlier revision, on the benchmark BENCHMARK.json declares.
#
#   bash scripts/perf_ab.sh REV [workload...]
#
# REV is checked out with `git worktree add --detach` under
# .bench_build/ab/ (gitignored) and must contain perfbench/run.sh. For
# each workload (default: every workload in BENCHMARK.json) and each
# seed 1..10, REV and the working tree each run once for
# BENCHMARK.json's run_seconds; which side runs first alternates from
# one pair to the next, so drift in the host's load favours neither.
#
# For each workload and end-to-end metric the report prints the parent
# (REV) and change medians, the delta relative to the parent median
# and signed so that positive is better, the parent's quartile spread
# (Q3-Q1)/median, the metric's bound, and a verdict:
#
#   worse       the change is worse than the parent by more than the bound
#   unresolved  not worse, but the parent's spread exceeds the bound
#   ok          otherwise
#
# and, per side, failed/attempted operations summed over the runs.
# Quartiles are statistics.quantiles(n=4), as in perfbench/spread.py.
# The exit status is nonzero on any run error (a run that exits
# nonzero or prints no result line) or any `worse` verdict. The
# worktree is removed on exit. Nothing under perfbench/ and no
# BENCHMARK.json is changed.
set -euo pipefail

if [ $# -lt 1 ]; then
	echo "usage: bash scripts/perf_ab.sh REV [workload...]" >&2
	exit 2
fi
rev="$1"
shift

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

sha="$(git rev-parse --verify --quiet "$rev^{commit}")" || {
	echo "perf_ab: $rev is not a commit" >&2
	exit 2
}
git cat-file -e "$sha:perfbench/run.sh" 2>/dev/null || {
	echo "perf_ab: $rev has no perfbench/run.sh; pick a revision that has the benchmark" >&2
	exit 2
}

readarray -t bench < <(python3 - <<'EOF'
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"])
print(" ".join(w["name"] for w in b["workloads"]))
EOF
)
seconds="${bench[0]}"
if [ $# -gt 0 ]; then
	workloads=("$@")
else
	read -ra workloads <<<"${bench[1]}"
fi

ab="$root/.bench_build/ab"
wt="$ab/$(git rev-parse --short "$sha")"
results="$ab/results.$$"
mkdir -p "$ab"
cleanup() {
	git worktree remove --force "$wt" 2>/dev/null || { chmod -R u+w "$wt" 2>/dev/null; rm -rf "$wt"; }
	git worktree prune
	rm -f "$results"
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git worktree add --detach --quiet "$wt" "$sha"
: >"$results"

# run SIDE DIR WORKLOAD SEED appends "SIDE WORKLOAD SEED EXIT RESULTLINE"
# to the results file.
run() {
	local side="$1" dir="$2" w="$3" seed="$4" out code=0
	out="$(cd "$dir" && bash perfbench/run.sh --workload "$w" --seed "$seed" \
		--seconds "$seconds" --trace 0 2>/dev/null)" || code=$?
	printf '%s %s %s %s %s\n' "$side" "$w" "$seed" "$code" "$(printf '%s\n' "$out" | tail -n 1)" >>"$results"
	echo "perf_ab: $w seed $seed $side exit $code" >&2
}

pair=0
for w in "${workloads[@]}"; do
	for seed in 1 2 3 4 5 6 7 8 9 10; do
		if [ $((pair % 2)) -eq 0 ]; then
			run parent "$wt" "$w" "$seed"
			run change "$root" "$w" "$seed"
		else
			run change "$root" "$w" "$seed"
			run parent "$wt" "$w" "$seed"
		fi
		pair=$((pair + 1))
	done
done

python3 - "$results" "$rev" "${workloads[@]}" <<'EOF'
import json
import statistics
import sys

results, rev, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
bench = json.load(open("BENCHMARK.json"))
metrics = bench["end_to_end"]

runs, errors = {}, 0
for line in open(results):
    side, w, seed, code, rest = (line.rstrip("\n").split(" ", 4) + [""])[:5]
    try:
        res = json.loads(rest)
    except ValueError:
        res = None
    if code != "0" or res is None:
        errors += 1
        print(f"run error: {w} seed {seed} {side} exited {code}")
    if res is not None:
        runs.setdefault((w, side), []).append(res)

worse = 0
for w in workloads:
    print(f"\n{w}: parent {rev}, change = working tree")
    for side in ("parent", "change"):
        rs = runs.get((w, side), [])
        print(f"  {side} failed/attempted: {sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)} over {len(rs)} runs")
    print(f"  {'metric':18s} {'parent':>12s} {'change':>12s} {'delta':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        p = [r["metrics"][name]["value"] for r in runs.get((w, "parent"), [])]
        c = [r["metrics"][name]["value"] for r in runs.get((w, "change"), [])]
        if len(p) < 2 or not c:
            print(f"  {name:18s} too few runs")
            continue
        q1, pm, q3 = statistics.quantiles(p, n=4)
        cm = statistics.median(c)
        spread = (q3 - q1) / pm if pm else float("inf")
        if pm == cm:
            delta = 0.0
        elif pm == 0:
            delta = float("inf")
        else:
            delta = (cm - pm) / pm
        if m["better"] == "lower":
            delta = -delta
        if delta < -bound:
            verdict = "worse"
            worse += 1
        elif spread > bound:
            verdict = "unresolved"
        else:
            verdict = "ok"
        print(f"  {name:18s} {pm:12.5g} {cm:12.5g} {delta:+8.3f} {spread:7.3f} {bound:6.2f}  {verdict}")

print(f"\nrun errors: {errors}, worse verdicts: {worse}")
sys.exit(1 if errors or worse else 0)
EOF
