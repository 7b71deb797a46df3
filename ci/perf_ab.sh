#!/usr/bin/env bash
# Interleaved parent/change A/B of the benchmark of record (perfbench).
#
# Usage (from anywhere inside the repository):
#
#   ci/perf_ab.sh [--pairs N] [--seconds S] [--seed K] [--base REV]
#                 [--work DIR] WORKLOAD
#
# The "change" is the checked-out working tree; the "parent" is the
# merge-base of HEAD and REV (default HEAD, i.e. the working tree against
# its last commit), exported with `git archive`. In CI, pass the pull
# request's base branch (`--base origin/main`). Both perfbench binaries
# are built with identical settings, then N pairs run one after the
# other, each pair one parent run and one change run, alternating which
# side goes first.
# Every run is `perfbench --workload WORKLOAD --seed K --seconds S
# --trace 0` from its own tree's root.
#
# Prints, for each end-to-end metric in BENCHMARK.json, the parent's and
# the change's q1 / median / q3, the median change, how many pairs the
# change won and the parent's IQR. Exits non-zero when any run fails
# (`failed` > 0 or `correct` false) or when a metric's median moves the
# worse way by more than its BENCHMARK.json bound.
#
# Defaults: 3 pairs, --seconds 1 (one pass per run), seed 1.
set -euo pipefail

pairs=3
seconds=1
seed=1
base_ref=HEAD
work=""
workload=""
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --base) base_ref="$2"; shift 2 ;;
        --work) work="$2"; shift 2 ;;
        -h|--help) sed -n '2,26p' "$0"; exit 0 ;;
        -*) echo "perf_ab: unknown option $1" >&2; exit 2 ;;
        *) workload="$1"; shift ;;
    esac
done
if [ -z "$workload" ]; then
    echo "perf_ab: WORKLOAD is required (mem-policies, compute-policies or replay-store)" >&2
    exit 2
fi
case "$pairs" in ''|*[!0-9]*|0) echo "perf_ab: --pairs must be a positive integer" >&2; exit 2 ;; esac

root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" merge-base HEAD "$base_ref")
if [ -z "$work" ]; then
    work=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
fi
mkdir -p "$work/runs"
echo "perf_ab: $workload, $pairs pairs, --seconds $seconds --seed $seed; parent $(git -C "$root" rev-parse --short "$base"), change = working tree; work dir $work" >&2

rm -rf "$work/parent"
mkdir -p "$work/parent"
git -C "$root" archive "$base" | tar -x -C "$work/parent"

build() { # side tree
    cargo build --release --quiet --manifest-path "$2/perfbench/Cargo.toml" \
        --target-dir "$work/target-$1"
}
build parent "$work/parent"
build change "$root"

run() { # side tree pair
    local out="$work/runs/$workload-seed$seed-$1-$3.json"
    (cd "$2" && "$work/target-$1/release/perfbench" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0) | tail -n 1 > "$out"
    echo "perf_ab: pair $3 $1 done" >&2
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$work/parent" "$i"
        run change "$root" "$i"
    else
        run change "$root" "$i"
        run parent "$work/parent" "$i"
    fi
done

python3 - "$root/BENCHMARK.json" "$work/runs" "$workload" "$seed" "$pairs" <<'EOF'
import json, statistics, sys

bench_path, runs, workload, seed, pairs = sys.argv[1:6]
pairs = int(pairs)
metrics = json.load(open(bench_path))["end_to_end"]

def load(side, i):
    with open(f"{runs}/{workload}-seed{seed}-{side}-{i}.json") as f:
        return json.loads(f.read())

sides = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

def fmt(x):
    return f"{x:.4g}"

ok = True
tally = {s: (sum(r["attempted"] for r in rs), sum(r["failed"] for r in rs)) for s, rs in sides.items()}
for s, rs in sides.items():
    if any(r["failed"] > 0 or not r["correct"] for r in rs):
        ok = False
        print(f"FAIL: a {s} run failed")
print(f"**`{workload}`** seed {seed}, {pairs} pairs (attempted/failed, "
      f"parent {tally['parent'][0]}/{tally['parent'][1]}, "
      f"change {tally['change'][0]}/{tally['change'][1]}):")
print()
print("| metric | parent q1 / median / q3 | change q1 / median / q3 | median change | change wins | parent IQR |")
print("|---|---|---|---|---|---|")
for m in metrics:
    name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    p = [r["metrics"][name]["value"] for r in sides["parent"]]
    c = [r["metrics"][name]["value"] for r in sides["change"]]
    pq, cq = quartiles(p), quartiles(c)
    rel = (cq[1] - pq[1]) / pq[1] if pq[1] != 0 else (0.0 if cq[1] == 0 else float("inf"))
    wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    won = f"{wins}/{pairs}" + (f" ({ties} ties)" if ties else "")
    worse = -rel if higher else rel
    flag = ""
    if worse > bound:
        ok = False
        flag = f" **over the {bound:.0%} bound**"
    print(f"| `{name}` | {' / '.join(map(fmt, pq))} | {' / '.join(map(fmt, cq))} "
          f"| {rel:+.1%}{flag} | {won} | {fmt(pq[2] - pq[0])} |")
sys.exit(0 if ok else 1)
EOF
