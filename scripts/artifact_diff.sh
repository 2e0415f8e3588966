#!/usr/bin/env bash
# Compare the CLI artifacts of this checkout with those of a git ref.
#
# Usage (from anywhere inside the repository):
#
#     scripts/artifact_diff.sh <base-ref>
#
# Runs every perfbench/workloads config at seeds 1 and 1009, plus four
# admissibility sweeps off the workload's q = n-1 line, an extend-verify
# run outside the guaranteed region, lipschitzify and transform-verify on
# the two-step profile, lipschitzify on it with a declared doubling
# constant of 1e300, extend-verify on it with two q values (so that
# --dump-slices writes several tables per field on the straightened route),
# transform-verify at n = 2 and n = 4 with counts off
# the block size, an n = 4 extend-verify on Monte Carlo nodes, n = 2
# extend-verify on t^2 and on the two-step profile (the tensor rule's n = 2
# directions), lipschitzify
# on a power cusp with grids from 1e-12 and from 1e-100 (the hat solve's
# closing phase at the tip), lipschitzify on t^1.05 from 1e-300 (the only
# run whose hat values are subnormal, 2.07e-315 first), lipschitzify on a
# one-point grid [1.0] (no point the doubling check can test), nine edge configs
# that end in exit 3 (a sweep whose first row rounds to 1.0, a sweep whose
# grid would overflow, lipschitzify on t^2 from 1e-200, where the hat
# underflows, transform-verify and extend-verify on a table whose row 0
# underflows under the normalizing factor 1/(4 psi(1)), three runs with
# psi(1) = 1e308, where that factor underflows to 0, and extend-verify on
# the power cusp with psi(1) = 1e308, whose Lipschitz constant is inf), two tip
# tables (the two-step rows with psi = 1e-17 on the first, through
# lipschitzify and extend-verify, and the 61-row dyadic staircase, through
# lipschitzify and transform-verify), and small
# runs on the profile paths no workload reaches (a rescaled power and step
# profile, a linear profile, a csv table, the radial-sq field), with and
# without --dump-points --dump-slices, once on <base-ref> and once on the
# working tree, and prints `diff -rq` of the two output trees.  Each run
# leaves its exit code and its log (stdout and stderr, with the source
# tree's path written as <tree>) beside its output directory, so a changed
# message or a new warning differs as an artifact does.  The base tree is
# extracted with `git archive` into a temporary directory, so no worktree
# metadata is left behind.
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
mkdir -p "$work/base-tree" "$work/configs"
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

# (n, p, q, s_stop) of sweeps the tip-sweep workload, at (3, 4, 2), cannot
# see: the s2 frontier, the limit case, and n = 4 at q = n-1 and on the
# limit-case boundary p = (n-1)q/(n-1-q) = 6
for sweep in "3 1.5 1.0 6.0" "3 2.0 1.0 4.0" "4 6.0 3.0 4.0" "4 6.0 2.0 4.0"; do
    read -r n p q stop <<< "$sweep"
    printf '{"command": "admissibility-sweep", "n": %s, "seed": 0, "sweep": {"p": %s, "q": %s, "s_start": 1.1, "s_stop": %s, "s_step": 0.1}}\n' \
        "$n" "$p" "$q" "$stop" > "$work/configs/sweep-n$n-p$p-q$q.json"
done

# verdict branches the workloads cannot reach: (p, q) = (4, 1.9) lies outside
# the guaranteed region, so ratio_ok asserts finiteness alone and the report
# carries the warning, with tip-power's field_params; the two-step profile has
# no quotient hypothesis, so lipschitzify reports no monotone_quotient_ok
step='{"kind": "step", "breakpoints": [0.5, 1.0], "values": [0.1, 0.2], "doubling_constant": 2.0}'
cat > "$work/configs/extend-outside-region.json" <<'JSON'
{"command": "extend-verify", "profile": {"kind": "power", "exponent": 2.0, "coeff": 0.25},
 "n": 3, "seed": 1,
 "extend": {"pq": [[4.0, 1.9]], "functions": ["tip-power", "wave"],
            "field_params": {"gamma": 0.75},
            "quadrature": {"t_levels": 20, "gauss_t": 3, "gauss_r": 3, "angular": 6}}}
JSON
printf '{"command": "lipschitzify", "profile": %s, "n": 3, "seed": 1}\n' "$step" \
    > "$work/configs/lipschitzify-two-step.json"
# a declared doubling constant is a claim checked against the rows, never the
# bound: doubling_transfer.bound stays the rows' max(2, C) = 2.0
printf '{"command": "lipschitzify", "profile": %s, "n": 3, "seed": 1}\n' \
    '{"kind": "step", "breakpoints": [0.5, 1.0], "values": [0.1, 0.2], "doubling_constant": 1e300}' \
    > "$work/configs/lipschitzify-two-step-declared-1e300.json"
printf '{"command": "transform-verify", "profile": %s, "n": 3, "seed": 1}\n' "$step" \
    > "$work/configs/transform-two-step.json"

# every caller of geometry.sample_ball at n != 3: transform-verify at n = 2
# and n = 4, with counts that are not multiples of geometry.BLOCK_NODES, and
# an n = 4 extend-verify, whose Monte Carlo nodes (quadrature._slab_nodes_mc)
# are ball samples
for n in 2 4; do
    printf '{"command": "transform-verify", "profile": {"kind": "power", "exponent": 2.0, "coeff": 0.25}, "n": %s, "seed": 1, "transform": {"round_trip_samples": 40001, "image_samples": 3001, "distortion_pairs": 33333, "seam_samples": 77}}\n' \
        "$n" > "$work/configs/transform-n$n-blocks.json"
done
cat > "$work/configs/extend-n4-mc.json" <<'JSON'
{"command": "extend-verify", "profile": {"kind": "power", "exponent": 2.0, "coeff": 0.25},
 "n": 4, "seed": 1,
 "extend": {"pq": [[2.0, 1.0]], "functions": ["constant", "wave"],
            "quadrature": {"t_levels": 12, "gauss_t": 3, "gauss_r": 3, "angular": 6,
                           "mc_samples": 3000}}}
JSON

# profile paths the configs above do not reach, on small schemes: geometry.normalize
# rescales a power cusp with coeff 1 and the step profile with psi(1) = 0.6
# (PowerProfile.scaled, StepProfile.scaled), a linear profile, a csv table read by
# load_profile_csv, and the radial-sq field
small_transform='"transform": {"round_trip_samples": 5000, "image_samples": 2000, "distortion_pairs": 5000, "seam_samples": 50}'
small_extend='"trace_samples": 500, "decay_rays": 60, "quadrature": {"t_levels": 12, "gauss_t": 3, "gauss_r": 3, "angular": 6}'
# the closing phase of the hat solve at the tip of a power cusp: grid_start 1e-12, and
# 1e-100, where the tip brackets close only near halving 383 (t near 2^-331)
for start in 1e-12 1e-100; do
    printf '{"command": "lipschitzify", "profile": {"kind": "power", "exponent": 2.7, "coeff": 0.6}, "n": 3, "seed": 1, "lipschitzify": {"grid_start": %s}}\n' \
        "$start" > "$work/configs/lipschitzify-power-tip-$start.json"
done
# the bisection view's read of psi at the bracket floors in the subnormal range:
# t^1.05 from 1e-300, whose first hat value is 2.07e-315
printf '{"command": "lipschitzify", "profile": {"kind": "power", "exponent": 1.05, "coeff": 1.0}, "n": 3, "seed": 1, "lipschitzify": {"grid_start": 1e-300}}\n' \
    > "$work/configs/lipschitzify-power-subnormal-1e-300.json"
# a one-point grid [1.0]: no grid point is testable, so the report's
# doubling_transfer is null
printf '{"command": "lipschitzify", "profile": {"kind": "power", "exponent": 2.0}, "n": 3, "seed": 1, "lipschitzify": {"grid_count": 1}}\n' \
    > "$work/configs/lipschitzify-one-point-grid.json"
# edge configs whose exit code is compared: a sweep start that rounds to 1.0 at
# 12 decimals, a sweep grid past the power exponents' bound, a hat that
# underflows to 0 at the grid's first point, a table whose row 0 underflows
# under the normalizing factor, through transform-verify and extend-verify, and
# profiles with psi(1) = 1e308, whose factor 1/(4 psi(1)) underflows to 0: a
# table through both commands and a power cusp through transform-verify
printf '{"command": "admissibility-sweep", "n": 3, "seed": 0, "sweep": {"p": 4.0, "q": 2.0, "s_start": 1.0000000000004}}\n' \
    > "$work/configs/sweep-start-rounds-to-1.json"
printf '{"command": "admissibility-sweep", "n": 3, "seed": 0, "sweep": {"p": 4.0, "q": 2.0, "s_start": 1.1, "s_stop": 1e300, "s_step": 1e299}}\n' \
    > "$work/configs/sweep-stop-1e300.json"
printf '{"command": "lipschitzify", "profile": {"kind": "power", "exponent": 2.0}, "n": 3, "seed": 1, "lipschitzify": {"grid_start": 1e-200}}\n' \
    > "$work/configs/lipschitzify-power-underflow-1e-200.json"
underflowing='{"kind": "step", "breakpoints": [1e-300, 1.0], "values": [1e-300, 1e300]}'
overflowing='{"kind": "step", "breakpoints": [0.5, 1.0], "values": [1.0, 1e308]}'
for command in transform-verify extend-verify; do
    printf '{"command": "%s", "profile": %s, "n": 3, "seed": 1}\n' "$command" "$underflowing" \
        > "$work/configs/$command-normalization-underflow.json"
    printf '{"command": "%s", "profile": %s, "n": 3, "seed": 1}\n' "$command" "$overflowing" \
        > "$work/configs/$command-psi1-overflow-step.json"
done
printf '{"command": "transform-verify", "profile": {"kind": "power", "exponent": 2.0, "coeff": 1e308}, "n": 3, "seed": 1}\n' \
    > "$work/configs/transform-verify-psi1-overflow-power.json"
# the direct route with a Lipschitz constant of inf, on a small scheme
printf '{"command": "extend-verify", "profile": {"kind": "power", "exponent": 2.0, "coeff": 1e308}, "n": 3, "seed": 1, "extend": {%s}}\n' \
    "$small_extend" > "$work/configs/extend-verify-psi1-overflow-power.json"
# the two-step profile on the straightened route, at two q: one slice table per field and q
printf '{"command": "extend-verify", "profile": %s, "n": 3, "seed": 1, "extend": {"pq": [[2.0, 1.0], [4.0, 1.5]], "functions": ["constant", "wave"], %s}}\n' \
    "$step" "$small_extend" > "$work/configs/extend-two-step-two-q.json"
# the tensor rule at n = 2 (quadrature._slab_nodes' two directions), on the
# direct route (t^2) and on the straightened route (the two-step profile)
printf '{"command": "extend-verify", "profile": {"kind": "power", "exponent": 2.0, "coeff": 0.25}, "n": 2, "seed": 1, "extend": {%s}}\n' \
    "$small_extend" > "$work/configs/extend-n2-power.json"
printf '{"command": "extend-verify", "profile": %s, "n": 2, "seed": 1, "extend": {%s}}\n' \
    "$step" "$small_extend" > "$work/configs/extend-n2-two-step.json"
linear='{"kind": "linear", "slope": 0.25}'
printf '{"command": "transform-verify", "profile": {"kind": "power", "exponent": 2.0, "coeff": 1.0}, "n": 3, "seed": 1, %s}\n' \
    "$small_transform" > "$work/configs/transform-power-rescaled.json"
printf '{"command": "extend-verify", "profile": {"kind": "step", "breakpoints": [0.5, 1.0], "values": [0.3, 0.6]}, "n": 3, "seed": 1, "extend": {"pq": [[2.0, 1.0]], "functions": ["radial-sq", "wave"], %s}}\n' \
    "$small_extend" > "$work/configs/extend-step-rescaled.json"
printf '{"command": "lipschitzify", "profile": %s, "n": 3, "seed": 1}\n' "$linear" \
    > "$work/configs/lipschitzify-linear.json"
printf '{"command": "extend-verify", "profile": %s, "n": 3, "seed": 1, "extend": {"pq": [[2.0, 1.0]], "functions": ["axial"], %s}}\n' \
    "$linear" "$small_extend" > "$work/configs/extend-linear.json"
printf 'breakpoint,value\n0.25,0.05\n0.5,0.1\n1.0,0.2\n' > "$work/profile.csv"
printf '{"command": "lipschitzify", "profile": {"kind": "csv", "path": "%s"}, "n": 3, "seed": 1}\n' \
    "$work/profile.csv" > "$work/configs/lipschitzify-csv.json"

# tip tables, whose hat heights at the tip are rows far below the breaks: the
# two-step rows with 1e-17 on the first, and the dyadic staircase (breaks 2^-k,
# values 0.25 * 4^-k, k = 0 ... 60)
tip='{"kind": "step", "breakpoints": [0.5, 1.0], "values": [1e-17, 0.2]}'
printf '{"command": "lipschitzify", "profile": %s, "n": 3, "seed": 1}\n' "$tip" \
    > "$work/configs/lipschitzify-tip-1e-17.json"
printf '{"command": "extend-verify", "profile": %s, "n": 3, "seed": 1, "extend": {"pq": [[2.0, 1.0]], "functions": ["constant", "wave"], %s}}\n' \
    "$tip" "$small_extend" > "$work/configs/extend-tip-1e-17.json"
staircase=$("$python" -c 'import json
print(json.dumps({"kind": "step", "breakpoints": [2.0 ** -k for k in range(60, -1, -1)],
                  "values": [0.25 * 4.0 ** -k for k in range(60, -1, -1)]}))')
printf '{"command": "lipschitzify", "profile": %s, "n": 3, "seed": 1}\n' "$staircase" \
    > "$work/configs/lipschitzify-staircase.json"
printf '{"command": "transform-verify", "profile": %s, "n": 3, "seed": 1, %s}\n' \
    "$staircase" "$small_transform" > "$work/configs/transform-staircase.json"

run_tree() {  # run_tree <source tree> <label>
    local config stem out code
    for config in "$work"/configs/*.json; do
        stem=$(basename "$config" .json)
        for dumps in "" "--dump-points --dump-slices"; do
            out="$work/$2/$stem${dumps:+-dumps}"
            mkdir -p "$out"
            # shellcheck disable=SC2086  # $dumps is zero or two flags
            PYTHONPATH="$1/src" "$python" -m cuspext.cli --config "$config" --out "$out" $dumps \
                > "$out.log" 2>&1 && code=0 || code=$?
            echo "$code" > "$out.exit"
        done
    done
    # a traceback names the source tree, which differs between the two runs
    "$python" - "$work/$2" "$1" <<'EOF'
import pathlib
import sys

for log in pathlib.Path(sys.argv[1]).glob("*.log"):
    log.write_text(log.read_text().replace(sys.argv[2], "<tree>"))
EOF
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
