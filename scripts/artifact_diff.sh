#!/usr/bin/env bash
# Compare the CLI artifacts of this checkout with those of a git ref.
#
# Usage (from anywhere inside the repository):
#
#     scripts/artifact_diff.sh <base-ref>
#
# Runs every perfbench/workloads config at seeds 1 and 1009, with and
# without --dump-points --dump-slices, once on <base-ref> and once on the
# working tree, and prints `diff -rq` of the two output trees (each run's
# exit code included).  The base tree is extracted with `git archive`
# into a temporary directory, so no worktree metadata is left behind.
# Exits 0 when every artifact is identical, 1 when one differs and 2 on
# a usage error.  PYTHON overrides the interpreter (default python3).
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <base-ref>" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "$1^{commit}")
python=${PYTHON:-python3}
work=$(mktemp -d "${TMPDIR:-/tmp}/artifact-diff.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base-tree" "$work/configs" "$work/logs"
git -C "$root" archive "$base" | tar -x -C "$work/base-tree"

for var in OMP_NUM_THREADS OPENBLAS_NUM_THREADS MKL_NUM_THREADS BLIS_NUM_THREADS \
           VECLIB_MAXIMUM_THREADS NUMEXPR_NUM_THREADS; do
    export "$var=1"
done

# the seed reaches the program only as the config's "seed", as in perfbench/run.py
for config in "$root"/perfbench/workloads/*.json; do
    for seed in 1 1009; do
        "$python" -c 'import json, sys
raw = json.load(open(sys.argv[1]))
raw["seed"] = int(sys.argv[2])
json.dump(raw, open(sys.argv[3], "w"))' \
            "$config" "$seed" "$work/configs/$(basename "$config" .json)-seed$seed.json"
    done
done

run_tree() {  # run_tree <source tree> <label>
    local config stem out code
    for config in "$work"/configs/*.json; do
        stem=$(basename "$config" .json)
        for dumps in "" "--dump-points --dump-slices"; do
            out="$work/$2/$stem${dumps:+-dumps}"
            mkdir -p "$out"
            # shellcheck disable=SC2086  # $dumps is zero or two flags
            PYTHONPATH="$1/src" "$python" -m cuspext.cli --config "$config" --out "$out" $dumps \
                > "$work/logs/$2-$stem${dumps:+-dumps}.log" 2>&1 && code=0 || code=$?
            echo "$code" > "$out.exit"
        done
    done
}

cd "$work"  # so that `python -m` cannot pick up a cuspext from the caller's directory
run_tree "$work/base-tree" base
run_tree "$root" change
failed=$(grep -Lx 0 "$work"/base/*.exit "$work"/change/*.exit || true)
if [ -n "$failed" ]; then
    echo "runs that exited non-zero (a crash on both sides still diffs as identical):"
    echo "$failed" | sed "s|^$work/||"
fi
echo "artifacts of $base (base) against the working tree (change):"
if diff -rq "$work/base" "$work/change"; then
    echo "identical: $(find "$work/change" -type f | wc -l) files"
else
    exit 1
fi
