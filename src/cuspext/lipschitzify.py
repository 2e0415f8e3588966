"""Lipschitz re-profiling of a cusp profile by monotone boundary inversion.

For a profile psi the map g(t) = t + psi(t) is strictly increasing but
may jump.  Solving t + r = (1 + psi(1)) * t_hat for the boundary pair
(t, r) produces a new profile hat_psi(t_hat) = r that is Lipschitz with
constant 1 + psi(1): each jump of psi becomes a piece of slope exactly
1 + psi(1), and continuity stretches move slower.

``reprofile`` owns the jumps: a table's hat is piecewise linear, read off
its rows, and a linear profile is its own.  Only a continuous source gets
the bisection view, which solves g(t) = target for t and reads r = psi(t).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import Check, ConvergenceError, ProfileDomainError, ProfileFormatError
from .profiles import CuspProfile, LinearProfile, PiecewiseLinearProfile, StepProfile, _check_t

SOLVE_TOL = 1e-12  # the check slacks' allowance for solver error
LIPSCHITZ_SLACK_TOLS = 2.0  # each hat value carries up to SOLVE_TOL of solver error
QUOTIENT_REL_SLACK = 1e-9  # the share of a quotient that a later one may drop by
# Halving [0, 1] k times leaves brackets exactly 2^-k wide (every sum
# is exact for k <= 52), and floats in [0, 1) lie at most 2^-53 apart:
# no bracket can close before the 53rd halving.
FIRST_CLOSING_ITER = 53
# An open bracket stays exactly 2^-k wide (see _solve_bisect) and floats
# lie at least 2^-1074 apart, the least subnormal: every bracket has
# closed by halving 1074.
LAST_CLOSING_ITER = sys.float_info.mant_dig - sys.float_info.min_exp
# the bracket widths 2^-1 ... 2^-52 of the halvings before that one
_DYADIC_STEPS = np.ldexp(1.0, -np.arange(1, FIRST_CLOSING_ITER))


def _read_runs(psis, x: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """psis[i]._eval on profile i's own run of x, in place order.

    x[j] belongs to position at[j] of a flat stack of rows ``width``
    long; ``at`` ascends, so each row's entries form one contiguous run
    of x.  A single profile's run is x whole, read without a split; an
    empty run is not read.
    """
    if len(psis) == 1:
        return psis[0]._eval(x)
    cuts = np.searchsorted(at, np.arange(len(psis) + 1) * width).tolist()
    out = np.empty_like(x)
    for psi, lo, hi in zip(psis, cuts, cuts[1:]):
        if lo < hi:
            out[lo:hi] = psi._eval(x[lo:hi])
    return out


def _g(psis, mid: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """g = t + psi(t) at the midpoints; ConvergenceError at the first where it is not finite."""
    gm = mid + _read_runs(psis, mid, at, width)
    if not np.isfinite(gm).all():
        bad = mid[~np.isfinite(gm)][0]
        raise ConvergenceError(f"non-finite profile value near t={bad}",
                               bracket=(float(bad), float(bad)))
    return gm


def _solve_bisect(psis, t_hats: np.ndarray, psi1s) -> np.ndarray:
    """The boundary pair's t of each t_hat: the floor of its closed bracket of g on [0, 1].

    ``t_hats`` has one row per profile of ``psis``, and ``psi1s`` holds
    their psi(1), read once by the caller; row i solves g = t + psis[i](t).
    Bisection needs only that g is monotone.  An element stops once no
    float lies strictly inside its bracket; further halving could not
    move it, so each result is independent of the rest of the stack.

    Each halving runs once over the whole stack: the midpoint, the
    comparison, the update, the stop test and the compaction are
    elementwise, so stacking moves no bit.  Only the profile reads are
    per row: each profile reads its own row's run of live elements,
    which stays contiguous because compaction keeps the flat order.  No
    read spans two rows, so every power keeps its own scalar exponent:
    numpy's ``**`` takes the ``np.square`` path at exactly 2.0, and one
    array of exponents across rows would switch loops and move bits.

    The halvings run in two phases with the bits of plain bisection,
    mid = (lo + hi) / 2.  After k halvings every bracket is
    [lo, lo + 2^-k] with lo a multiple of 2^-k in [0, 1), so through
    halving 52 the dyadic phase keeps only lo: the midpoint lo + 2^-k
    and the update lo += 2^-k * (g(mid) <= target) are both exact, and
    no bracket can stop yet (FIRST_CLOSING_ITER).  The closing phase
    starts from the exact hi = lo + 2^-52 and carries only the live
    elements, compacted, writing lo back when its element stops.

    The closing halvings stay exact: while a float lies strictly inside
    [lo, lo + 2^-k], either lo = 0 or the bracket lies in one binade
    whose float spacing is below 2^-k, and either way the midpoint
    lo + 2^-(k+1) is a float.  As floats lie at least 2^-1074 apart,
    every bracket has closed by halving 1074 (LAST_CLOSING_ITER); one
    still open after it raises ConvergenceError with its bracket.

    The solve reads g at its midpoints through the unchecked
    ``psi._eval``, since every midpoint lies in (0, 1] whatever the
    targets: in the dyadic phase lo is a multiple of 2 * step below 1,
    so step <= mid <= 1 - step, and in the closing phase the bracket is
    open, so 0 <= lo < mid < hi <= 1.
    """
    targets = (1.0 + np.asarray(psi1s, dtype=float)[:, None]) * t_hats
    tg_flat = targets.reshape(-1)
    lo_flat = np.zeros(tg_flat.shape)
    width, at = targets.shape[1], np.arange(tg_flat.size)
    if tg_flat.size:
        for step in _DYADIC_STEPS:
            mid = lo_flat + step
            lo_flat += step * (_g(psis, mid, at, width) <= tg_flat)
    # the live elements: flat positions, brackets and targets
    lo_l, hi_l, tg_l = lo_flat.copy(), lo_flat + _DYADIC_STEPS[-1], tg_flat
    for _ in range(FIRST_CLOSING_ITER, LAST_CLOSING_ITER + 1):
        if not at.size:
            break
        mid = 0.5 * (lo_l + hi_l)
        below = _g(psis, mid, at, width) <= tg_l
        # in place; putmask is faster here than copyto(..., where=)
        np.putmask(lo_l, below, mid)
        np.putmask(hi_l, ~below, mid)
        stop = np.nextafter(lo_l, hi_l) >= hi_l
        if stop.any():
            lo_flat[at[stop]] = lo_l[stop]
            go = ~stop
            at, lo_l, hi_l, tg_l = at[go], lo_l[go], hi_l[go], tg_l[go]
    if at.size:
        raise ConvergenceError(f"bracket still open after halving {LAST_CLOSING_ITER}",
                               bracket=(float(lo_l[0]), float(hi_l[0])))
    return lo_flat.reshape(targets.shape)


def reprofile(psi: CuspProfile) -> CuspProfile:
    """The re-profiling hat_psi of psi, Lipschitz with constant c = 1 + psi(1).

    A linear profile is its own: t + a t = (1 + a) t_hat forces t = t_hat.
    A table's is piecewise linear on 2m+1 vertices for its m rows (breaks
    b_i, values v_i): slope c from (0, 0) to (v_0/c, v_0), then v_i held
    up to (b_i + v_i)/c and slope c across the jump at b_i up to
    ((b_i + v_(i+1))/c, v_(i+1)); a row's height is its value exactly.
    So the tables own every jump: any other profile gets the bisection
    view, which takes continuous sources only.
    """
    if isinstance(psi, LinearProfile):
        return psi
    if not isinstance(psi, StepProfile):
        return LipschitzizedProfile(psi)
    c = 1.0 + psi.value_at_1
    m = psi.breaks.size
    vertices, heights, slopes = np.zeros(2 * m + 1), np.zeros(2 * m + 1), np.zeros(2 * m)
    vertices[1::2] = (np.concatenate([[0.0], psi.breaks[:-1]]) + psi.values) / c
    vertices[2::2] = (psi.breaks + psi.values) / c  # the last is c / c = 1 exactly
    heights[1::2] = heights[2::2] = psi.values
    slopes[0::2] = c
    return PiecewiseLinearProfile(vertices, heights, slopes, max(2.0, psi.doubling_constant))


def hat_values(psi: CuspProfile, t_hats) -> np.ndarray:
    """The re-profiling hat_psi at an array of points in (0, 1]."""
    return reprofile(psi)._eval(_check_t(t_hats))


def _check_grid(grid) -> np.ndarray:
    """The grid as a float array, checked to ascend strictly and end at 1.0."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ProfileFormatError("grid must be a nonempty 1-d array")
    if not (np.diff(grid) > 0.0).all():  # NaN fails the comparison
        raise ProfileFormatError("grid must be strictly ascending")
    if grid[-1] != 1.0:
        raise ProfileFormatError(f"grid must end at 1.0, got {grid[-1]}")
    return grid


def hat_profile(grid: np.ndarray, hats: np.ndarray) -> StepProfile:
    """The re-profiling tabulated on a grid, from its hat values there.

    The grid ascends and ends at 1.0 (``verify_transfer`` checks it), so
    the table is total on (0, 1].  The table is a step sampling, so like
    any table it carries no Lipschitz constant, though the function it
    samples has 1 + psi(1), and its doubling constant is that of its own
    rows.
    """
    if not hats[0] > 0.0:  # the hat is positive on (0, 1] and ascends: only underflow reads 0
        raise ProfileDomainError(f"hat value {float(hats[0])!r} at t_hat = {float(grid[0])!r} "
                                 f"has underflowed, need > 0")
    return StepProfile(grid, np.maximum.accumulate(hats), kind="tabulated")


class LipschitzizedProfile(CuspProfile):
    """The bisection view of a continuous source's re-profiling: values only.

    Evaluation solves the boundary pair's t of every query point, repeats
    included, and reads r = psi(t); each solve is independent of the rest
    of the batch.  A batch is the one-row case of ``_stacked_values``,
    which solves many views' rows at once.  The function is Lipschitz
    with constant 1 + psi(1) and has no slope.  A source that jumps is
    rejected: tables, whose hats a command differentiates, get closed
    forms from ``reprofile``.
    """

    kind = "lipschitzized"

    def __init__(self, source: CuspProfile):
        if source.breakpoints().size:
            raise ProfileFormatError(f"the bisection view needs a continuous source, but this "
                                     f"{source.kind} profile jumps at t = "
                                     f"{float(source.breakpoints()[0])!r}")
        self.source = source
        self.doubling_constant = max(2.0, source.doubling_constant)

    def value(self, t):
        return self._eval(_check_t(t))

    def _eval(self, t):
        t = np.asarray(t, dtype=float)
        return _stacked_values([self], t.reshape(1, -1)).reshape(t.shape)

    @property
    def value_at_1(self) -> float:
        # the endpoint convention of _eval: bitwise value(1.0), no solve
        return self.source.value_at_1

    @property
    def lipschitz_constant(self):
        return 1.0 + self.source.value_at_1

    def __repr__(self):
        return f"LipschitzizedProfile({self.source!r})"


def _stacked_values(views, t_hats: np.ndarray) -> np.ndarray:
    """Row i of ``t_hats`` through bisection view i, all rows in one stacked solve.

    r = psi(t) at each point's bracket floor, read per row as the solve
    reads g, with the endpoint convention hat_psi(1) = psi(1); a bracket
    that closes at 0 leaves r = c t_hat, the target.
    """
    sources = [view.source for view in views]
    psi1s = np.array([psi.value_at_1 for psi in sources])
    t_sol = _solve_bisect(sources, t_hats, psi1s)
    at_0 = t_sol == 0.0
    reads = np.where(at_0, 1.0, t_sol).reshape(-1)  # every read inside (0, 1]
    r_sol = _read_runs(sources, reads, np.arange(reads.size), t_hats.shape[1])
    r_sol = r_sol.reshape(t_hats.shape)
    psi1s = psi1s[:, None]
    return np.where(t_hats == 1.0, psi1s, np.where(at_0, (1.0 + psi1s) * t_hats, r_sol))


def quotient_hypothesis_holds(psi: CuspProfile, grid) -> bool:
    """psi(t)/t nondecreasing along the grid, to 1e-12 relative.

    This is the hypothesis under which verify_monotone_quotient is
    meaningful.
    """
    grid = np.asarray(grid, dtype=float)
    quotient = np.asarray(psi.value(grid), dtype=float) / grid
    return bool(np.all(np.diff(quotient) >= -1e-12 * np.abs(quotient[:-1])))


@dataclass(frozen=True)
class MonotoneQuotientResult:
    ok: bool
    violation: tuple | None  # (t_hat_1, t_hat_2, q1, q2)


def verify_monotone_quotient(grid: np.ndarray, hats: np.ndarray) -> MonotoneQuotientResult:
    """Check hat_psi(t)/t is nondecreasing along an ascending grid, from the hat values there.

    Meaningful under the hypothesis that psi(t)/t is itself
    nondecreasing; on other inputs a False result documents the
    hypothesis dependence rather than a solver defect.
    """
    q, drop = _quotient_drops(hats, grid)
    if np.any(drop):
        i = int(np.argmax(drop))
        return MonotoneQuotientResult(
            False, (float(grid[i]), float(grid[i + 1]), float(q[i]), float(q[i + 1]))
        )
    return MonotoneQuotientResult(True, None)


def monotone_quotient_ok(psis, grid) -> np.ndarray:
    """``verify_monotone_quotient(psi, grid).ok`` of each profile, from one stacked solve.

    Each profile must be one that ``reprofile`` gives the bisection view,
    as the power cusps of an admissibility sweep are.
    """
    grid = np.sort(_check_t(grid))
    views = [LipschitzizedProfile(psi) for psi in psis]
    hats = _stacked_values(views, np.broadcast_to(grid, (len(views), grid.size)))
    return ~_quotient_drops(hats, grid)[1].any(axis=-1)


def _quotient_drops(hats: np.ndarray, grid: np.ndarray):
    """(q, drop): q = hat/t along the last axis, and where each next q drops past the slacks."""
    q = hats / grid
    return q, q[..., 1:] < q[..., :-1] * (1.0 - QUOTIENT_REL_SLACK) - SOLVE_TOL


@dataclass(frozen=True)
class DoublingTransferResult:
    ok: bool
    bound: float
    max_ratio: float


def verify_doubling_transfer(psi: CuspProfile, h1: np.ndarray,
                             h2: np.ndarray) -> DoublingTransferResult | None:
    """Check hat_psi(2t) <= max(2, C) * hat_psi(t) from h1 = hat_psi(t) and h2 = hat_psi(2t).

    C is the profile's doubling constant, which a table derives from its
    rows.  Only points with t <= 1 / (2 (1 + psi(1))) are testable, since
    the pair at 2t must exist; with none of them the result is None.
    """
    if h1.size == 0:
        return None
    bound = max(2.0, float(psi.doubling_constant))
    # additive slack: each hat value carries up to SOLVE_TOL of absolute solver
    # error, which dominates the ratio near the tip where values vanish
    ok = np.max(h2 - bound * h1) <= (1.0 + bound) * SOLVE_TOL
    return DoublingTransferResult(bool(ok), bound, float(np.max(h2 / h1)))


def verify_transfer(psi: CuspProfile, grid, pair_count: int, rng_seed: int):
    """The re-profiled cusp's table and checks: (table, hypothesis holds, quotient, checks).

    One hat solve, of the grid, both columns of the seeded pairs and the
    doubles of the grid's testable prefix, serves every check through
    its slice; a hat value does not depend on its batch (see
    ``_solve_bisect``), so each slice has the bits of a solve of its own.
    The grid is checked before the solve, and the table's row 0 for
    underflow before any check divides by a hat value.
    """
    grid, c = _check_grid(grid), 1.0 + psi.value_at_1
    pairs = np.random.default_rng(rng_seed).uniform(1e-9, 1.0, size=(pair_count, 2))
    doubled = 2.0 * grid[grid <= 1.0 / (2.0 * c)]
    hats = hat_values(psi, np.concatenate([grid, pairs[:, 0], pairs[:, 1], doubled]))
    on_grid, va, vb, h2 = np.split(hats, np.cumsum([grid.size, pair_count, pair_count]))
    table = hat_profile(grid, on_grid)
    slack = np.abs(va - vb) - c * np.abs(pairs[:, 0] - pairs[:, 1])
    checks = {"lipschitz_bound_ok": Check(float(np.max(slack)), LIPSCHITZ_SLACK_TOLS * SOLVE_TOL)}
    hypothesis = quotient_hypothesis_holds(psi, grid)
    mq = verify_monotone_quotient(grid, on_grid)
    if hypothesis:
        checks["monotone_quotient_ok"] = mq
    if dt := verify_doubling_transfer(psi, on_grid[:h2.size], h2):
        checks["doubling_transfer_ok"] = dt
    return table, hypothesis, mq, checks
