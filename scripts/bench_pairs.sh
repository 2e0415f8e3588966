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
# base tree is extracted with `git archive` into a temporary directory, and
# the working tree's src/, perfbench/ and BENCHMARK.json are copied as they
# stand into a sibling directory whose path has the same length, since peak
# RSS moves with the length of the source path alone.  The copy's
# perfbench/_runs links to the working tree's, so nothing is left behind but
# the git-ignored run records there (their git_sha is null: the copy is not
# a checkout).  Prints, for every end-to-end metric of
# BENCHMARK.json, each side's median and quartiles, the number of pairs
# the change won (ties count for neither side) and a verdict: "gain holds"
# when the change won at least 9/10 of the pairs and the medians differ by
# more than the base's interquartile range, "worse than bound" when the
# change's median is worse than the base's by more than the metric's bound
# (a share of the base's median), else "no claim".  The last line is one
# JSON object, the record of the comparison: every pair's two result objects
# (run.py's last lines) and which side ran first, each metric's summary and
# verdict, both commits (the working tree's HEAD, and whether src/,
# perfbench/ or BENCHMARK.json differ from it), the interpreter's Python and
# numpy versions, nproc and PYTHONDONTWRITEBYTECODE.  Exits 0 when every run
# is "correct", 1 when one is not or fails, and 2 on a usage error.  PYTHON
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
mkdir -p "$work/base-tree" "$work/work-tree" "$root/perfbench/_runs"
git -C "$root" archive "$base" | tar -x -C "$work/base-tree"
tar -C "$root" --exclude=_runs --exclude=__pycache__ -cf - src perfbench BENCHMARK.json \
    | tar -x -C "$work/work-tree"
ln -s "$root/perfbench/_runs" "$work/work-tree/perfbench/_runs"
if ! git -C "$root" diff --quiet "$base" -- perfbench BENCHMARK.json; then
    echo "warning: perfbench/ or BENCHMARK.json differ between the trees" >&2
fi

run_side() {  # run_side <base|change> <pair index>
    local tree=$work/work-tree
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

head=$(git -C "$root" rev-parse HEAD)
dirty=$(git -C "$root" status --porcelain -- src perfbench BENCHMARK.json)
echo "$workload, seed $seed, $pairs pairs of $seconds s runs, side run first alternating"
echo "base $base against the working tree (change)"
"$python" - "$root/BENCHMARK.json" "$work" "$pairs" "$workload" "$seed" "$seconds" "$base" \
    "$head" "${dirty:+true}" <<'EOF'
import json
import os
import platform
import statistics
import sys

import numpy as np

bench, work, pairs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
runs = {side: [json.load(open(f"{work}/{side}-{i}.json")) for i in range(pairs)]
        for side in ("base", "change")}


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def spread(values):
    q1, _, q3 = quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(base, change, wins, sign, bound):
    """The claim rule: a gain needs 9/10 of the pairs won and the medians
    apart by more than the base's interquartile range; a regression is the
    change's median worse than the base's by more than the bound's share."""
    q1, _, q3 = quartiles(base)
    gain = sign * (statistics.median(base) - statistics.median(change))
    if 10 * wins >= 9 * len(base) and gain > q3 - q1:
        return "gain holds"
    if -gain > bound * statistics.median(base):
        return "worse than bound"
    return "no claim"


ok = all(run["correct"] is True for side in runs.values() for run in side)
summary = {}
for metric in bench["end_to_end"]:
    name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
    try:
        base, change = ([run["metrics"][name]["value"] for run in runs[side]]
                        for side in ("base", "change"))
    except KeyError:
        print(f"{name}: missing from a run")
        continue
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    summary[name] = {side: dict(zip(("q1", "median", "q3"), quartiles(values)))
                     for side, values in (("base", base), ("change", change))}
    summary[name].update(change_won=wins, verdict=verdict(base, change, wins, sign,
                                                          metric["bound"]))
    print(f"{name} ({metric['unit']}, median [quartiles]): base {spread(base)}"
          f"  change {spread(change)}  change won {wins}/{pairs}: {summary[name]['verdict']}")
print("every run correct" if ok else "a run was not correct")
workload, seed, seconds, base_sha, head, dirty = sys.argv[4:10]
print(json.dumps({
    "workload": workload, "seed": int(seed), "pairs": pairs, "seconds": float(seconds),
    "base_commit": base_sha, "change_commit": head, "change_dirty": dirty == "true",
    "python": platform.python_version(), "numpy": np.__version__,
    "nproc": len(os.sched_getaffinity(0)),
    "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    "every_run_correct": ok, "metrics": summary,
    "pair_results": [{"first": "base" if i % 2 == 0 else "change",
                      "base": runs["base"][i], "change": runs["change"][i]}
                     for i in range(pairs)],
}))
sys.exit(0 if ok else 1)
EOF
