#!/usr/bin/env bash
# Alternating benchmark pairs of a git ref (base) and the working tree (change).
#
# Usage (from anywhere inside the repository):
#
#     scripts/bench_pairs.sh <base-ref> <workload> [pairs] [seed]
#
# Runs `perfbench/run.py --workload <workload> --seed <seed> --trace 0`
# <pairs> times (default 10) in each tree, at seed <seed> (default 1), for
# BENCHMARK.json's run_seconds; the side that runs first alternates from
# pair to pair.  Each tree runs its own perfbench/ on its own src/.  The
# base tree is extracted with `git archive` into a temporary directory, so
# nothing is left behind but the git-ignored run records under the working
# tree's perfbench/_runs/.  Prints, for every end-to-end metric of
# BENCHMARK.json, each side's median and quartiles and the number of pairs
# the change won (ties count for neither side).  Exits 0 when every run is
# "correct", 1 when one is not or fails, and 2 on a usage error.  PYTHON
# overrides the interpreter (default python3); BENCH_SECONDS overrides
# run_seconds, for a short smoke run only, never for a claim.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <base-ref> <workload> [pairs] [seed]" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "$1^{commit}")
workload=$2
pairs=${3:-10}
seed=${4:-1}
python=${PYTHON:-python3}
seconds=${BENCH_SECONDS:-$("$python" -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}
work=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base-tree"
git -C "$root" archive "$base" | tar -x -C "$work/base-tree"
if ! git -C "$root" diff --quiet "$base" -- perfbench BENCHMARK.json; then
    echo "warning: perfbench/ or BENCHMARK.json differ between the trees" >&2
fi

run_side() {  # run_side <base|change> <pair index>
    local tree=$root
    [ "$1" = base ] && tree=$work/base-tree
    # the last line of run.py's output is its result object
    if "$python" "$tree/perfbench/run.py" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 > "$work/$1-$2.log" 2>&1; then
        tail -n 1 "$work/$1-$2.log" > "$work/$1-$2.json"
    else
        echo "$1 run $2 failed:" >&2
        tail -n 5 "$work/$1-$2.log" >&2
        echo '{"correct": false, "metrics": {}}' > "$work/$1-$2.json"
    fi
}

cd "$work"  # so that no run can pick up a cuspext from the caller's directory
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        run_side base "$i"; run_side change "$i"
    else
        run_side change "$i"; run_side base "$i"
    fi
done

echo "$workload, seed $seed, $pairs pairs of $seconds s runs, side run first alternating"
echo "base $base against the working tree (change)"
"$python" - "$root/BENCHMARK.json" "$work" "$pairs" <<'EOF'
import json
import statistics
import sys

bench, work, pairs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
runs = {side: [json.load(open(f"{work}/{side}-{i}.json")) for i in range(pairs)]
        for side in ("base", "change")}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


ok = all(run["correct"] is True for side in runs.values() for run in side)
for metric in bench["end_to_end"]:
    name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
    try:
        base, change = ([run["metrics"][name]["value"] for run in runs[side]]
                        for side in ("base", "change"))
    except KeyError:
        print(f"{name}: missing from a run")
        continue
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    print(f"{name} ({metric['unit']}, median [quartiles]): base {spread(base)}"
          f"  change {spread(change)}  change won {wins}/{pairs}")
print("every run correct" if ok else "a run was not correct")
sys.exit(0 if ok else 1)
EOF
