"""Lipschitz re-profiling of a cusp profile by monotone boundary inversion.

For a profile psi the map g(t) = t + psi(t) is strictly increasing but
may jump.  Solving t + r = (1 + psi(1)) * t_hat for the boundary pair
(t, r), with r filling the jump gap [psi(t), psi(t+)] when the target
lands inside one, produces a new profile hat_psi(t_hat) = r that is
Lipschitz with constant 1 + psi(1): the jump intervals are traversed
with slope exactly 1 + psi(1), and continuity stretches move slower.

psi is extended by zero for t <= 0, so targets below inf g resolve to a
jump pair at t = 0 and hat_psi stays positive all the way down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Check, ConvergenceError, ProfileDomainError, ProfileFormatError
from .profiles import CuspProfile, LinearProfile, StepProfile

SOLVE_TOL = 1e-12  # the on-jump test, the breakpoint snap and the check slacks
LIPSCHITZ_SLACK_TOLS = 2.0  # each hat value carries up to SOLVE_TOL of solver error
QUOTIENT_REL_SLACK = 1e-9  # the share of a quotient that a later one may drop by
MAX_BISECT_ITER = 200
# Halving [0, 1] k times leaves brackets exactly 2^-k wide (every sum
# is exact for k <= 52), and floats in [0, 1) lie at most 2^-53 apart:
# no bracket can close before the 53rd halving.
FIRST_CLOSING_ITER = 53
# the bracket widths 2^-1 ... 2^-52 of the halvings before that one
_DYADIC_STEPS = np.ldexp(1.0, -np.arange(1, FIRST_CLOSING_ITER))


def _psi_values(psi: CuspProfile, t: np.ndarray) -> np.ndarray:
    """psi(t), with the zero extension psi(t) = 0 for t <= 0; g(t) is t + psi(t)."""
    if t.size and t.min() > 0.0:  # NaN fails the comparison
        return psi.value(t)
    out = np.zeros(t.shape)
    pos = t > 0.0
    if np.any(pos):
        out[pos] = psi.value(t[pos])
    return out


def _g_finite(gm: np.ndarray, mid: np.ndarray) -> None:
    """Raise ConvergenceError at the first midpoint where g is not finite."""
    if not np.isfinite(gm).all():
        bad = mid[~np.isfinite(gm)][0]
        raise ConvergenceError(f"non-finite profile value near t={bad}",
                               bracket=(float(bad), float(bad)))


def _solve_bisect(psi: CuspProfile, t_hats: np.ndarray, psi1: float):
    """Vectorized bisection of g on [0, 1]; handles jump gaps.

    Bisection is the only safe choice here: g is monotone but need not
    be continuous, so derivative-based methods can cycle across a jump.
    An element stops once no float lies strictly inside its bracket;
    further halving could not move it, so each result is independent of
    the rest of the batch.  ``psi1`` is psi(1), read once by the caller.

    The halvings run in two phases with the bits of plain bisection,
    mid = (lo + hi) / 2.  After k halvings every bracket is
    [lo, lo + 2^-k] with lo a multiple of 2^-k in [0, 1), so through
    halving 52 the dyadic phase keeps only lo: the midpoint lo + 2^-k
    and the update lo += 2^-k * (g(mid) <= target) are both exact, and
    no bracket can stop yet (FIRST_CLOSING_ITER).  The closing phase
    starts from the exact hi = lo + 2^-52 and carries only the live
    elements, compacted, writing lo back when its element stops.  No
    bracket ends wider than 2^-52, far inside SOLVE_TOL, so a residual
    above SOLVE_TOL means the bracket closed on a jump of psi.
    """
    targets = (1.0 + psi1) * t_hats
    tg_flat = targets.reshape(-1)
    lo_flat = np.zeros(tg_flat.shape)
    if tg_flat.size:
        for step in _DYADIC_STEPS:
            mid = lo_flat + step
            gm = mid + _psi_values(psi, mid)
            _g_finite(gm, mid)
            lo_flat += step * (gm <= tg_flat)
    # the live elements: flat positions, brackets and targets
    at = np.arange(tg_flat.size)
    lo_l, hi_l, tg_l = lo_flat.copy(), lo_flat + _DYADIC_STEPS[-1], tg_flat
    for _ in range(FIRST_CLOSING_ITER, MAX_BISECT_ITER + 1):
        if not at.size:
            break
        mid = 0.5 * (lo_l + hi_l)
        gm = mid + _psi_values(psi, mid)
        _g_finite(gm, mid)
        below = gm <= tg_l
        # in place; putmask is faster here than copyto(..., where=)
        np.putmask(lo_l, below, mid)
        np.putmask(hi_l, ~below, mid)
        stop = np.nextafter(lo_l, hi_l) >= hi_l
        if stop.any():
            lo_flat[at[stop]] = lo_l[stop]
            go = ~stop
            at, lo_l, hi_l, tg_l = at[go], lo_l[go], hi_l[go], tg_l[go]
    lo_flat[at] = lo_l
    lo = lo_flat.reshape(targets.shape)
    psi_lo = _psi_values(psi, lo)
    t_sol = lo.copy()
    on_jump = targets - (lo + psi_lo) > SOLVE_TOL
    if np.any(on_jump):
        # the bracket collapsed onto a jump of psi; snap to the profile's
        # breakpoint when one sits inside the collapsed bracket
        breaks = psi.breakpoints()
        if breaks.size:
            idx = np.searchsorted(breaks, lo[on_jump])
            for cand in (idx - 1, idx):
                ok = (cand >= 0) & (cand < breaks.size)
                b = np.where(ok, breaks[np.clip(cand, 0, breaks.size - 1)], np.nan)
                snap = ok & (np.abs(b - lo[on_jump]) <= SOLVE_TOL)
                sub = t_sol[on_jump]
                sub[snap] = b[snap]
                t_sol[on_jump] = sub
        # targets below inf g resolve to the zero-extension jump at t = 0
        t_sol[on_jump & (lo <= 1e-17)] = 0.0
    # off a jump r = psi(t) keeps its relative accuracy at the tip, where target - t
    # cancels; r = target - t fills jump gaps and the zero extension at t = 0
    r_sol = np.where(on_jump | (lo <= 0.0), targets - t_sol, psi_lo)
    return t_sol, r_sol, on_jump


def _solve_step(psi: StepProfile, t_hats: np.ndarray, psi1: float):
    """Closed-form pairs for step profiles via piece lookup; psi1 = psi(1)."""
    targets = (1.0 + psi1) * t_hats
    hi_vals = psi.breaks + psi.values  # g at right endpoints, strictly increasing
    idx = np.searchsorted(hi_vals, targets, side="left")
    idx = np.minimum(idx, psi.breaks.size - 1)
    left_break = np.where(idx > 0, psi.breaks[np.maximum(idx - 1, 0)], 0.0)
    lo_open = left_break + psi.values[idx]  # g just right of the piece's left end
    inside = targets > lo_open
    t_sol = np.where(inside, targets - psi.values[idx], left_break)
    r_sol = targets - t_sol
    # on_jump is strict: r exactly at the right limit counts as a plain solve
    return t_sol, r_sol, targets < lo_open


def _solve_many(psi: CuspProfile, t_hats: np.ndarray):
    t_hats = np.asarray(t_hats, dtype=float)
    outside = ~((t_hats > 0.0) & (t_hats <= 1.0))  # NaN included
    if np.any(outside):
        raise ProfileDomainError(f"t_hat outside (0, 1]: {t_hats[outside].flat[0]!r}")
    if isinstance(psi, LinearProfile):
        # linear profiles are fixed points: t + c t = (1 + c) t_hat forces t = t_hat
        return t_hats.copy(), psi.slope * t_hats, np.zeros(t_hats.shape, dtype=bool)
    at_end = t_hats == 1.0
    psi1 = psi.value_at_1
    if isinstance(psi, StepProfile):
        t_sol, r_sol, jump = _solve_step(psi, t_hats, psi1)
    else:
        t_sol, r_sol, jump = _solve_bisect(psi, t_hats, psi1)
    if np.any(at_end):
        # endpoint convention: hat_psi(1) = psi(1) via the pair (1, psi(1))
        t_sol[at_end] = 1.0
        r_sol[at_end] = psi1
        jump[at_end] = False
    return t_sol, r_sol, jump


def hat_values(psi: CuspProfile, t_hats) -> np.ndarray:
    """The re-profiling hat_psi at a point (a float) or an array of points in (0, 1]."""
    t_hats = np.asarray(t_hats, dtype=float)
    _, r_sol, _ = _solve_many(psi, np.atleast_1d(t_hats))
    return r_sol.reshape(t_hats.shape) if t_hats.ndim else float(r_sol[0])


def hat_profile(psi: CuspProfile, grid) -> StepProfile:
    """Materialize the re-profiling on a grid as a tabulated profile.

    The grid must ascend and end at 1.0 so the table is total on (0, 1].
    The table is a step sampling, so like any table it carries no
    Lipschitz constant, though the function it samples has 1 + psi(1),
    and its doubling constant is that of its own rows.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ProfileFormatError("grid must be a nonempty 1-d array")
    if not (np.diff(grid) > 0.0).all():  # NaN fails the comparison
        raise ProfileFormatError("grid must be strictly ascending")
    if grid[-1] != 1.0:
        raise ProfileFormatError(f"grid must end at 1.0, got {grid[-1]}")
    try:
        vals = hat_values(psi, grid)
    except ConvergenceError as err:
        raise ConvergenceError(f"hat solve failed on grid: {err}",
                               bracket=err.bracket) from err
    return StepProfile(grid, np.maximum.accumulate(vals), kind="tabulated")


class LipschitzizedProfile(CuspProfile):
    """Continuous on-demand view of the re-profiled cusp.

    Evaluation solves the boundary pair per query point (with a
    duplicate-collapsing pass, so structured grids cost one solve per
    distinct abscissa).  Left and right limits coincide: the function
    is Lipschitz with constant 1 + psi(1).
    """

    kind = "lipschitzized"

    def __init__(self, source: CuspProfile):
        self.source = source
        self.doubling_constant = max(2.0, source.doubling_constant)

    def _per_pair(self, t, read):
        """read(t_sol, r_sol, on_jump) once per distinct abscissa of t.

        A trailing axis of the read follows t's shape.  Runs of equal
        consecutive abscissae (a quadrature column repeats each t across
        its cross-section) collapse to their first entry before
        ``np.unique`` sorts, which solves the same set.
        """
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        head = np.ones(flat.shape, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        uniq, inverse = np.unique(flat[starts], return_inverse=True)
        inverse = np.repeat(inverse, np.diff(starts, append=flat.size))
        out = read(*_solve_many(self.source, uniq))[inverse]
        out = out.reshape(t.shape + out.shape[1:])
        return float(out) if out.ndim == 0 else out

    def value(self, t):
        return self._per_pair(t, lambda t_sol, r_sol, jump: r_sol)

    def derivative(self, t):
        return self.value_and_derivative(t)[1]

    def value_and_derivative(self, t):
        """Value and exact slope from one solve per distinct abscissa.

        The slope is 1 + psi(1) across a jump, else (1 + psi(1)) psi'/(1 + psi'):
        off a jump the pair moves along t + psi(t) = (1 + psi(1)) t_hat,
        so dt/dt_hat = (1 + psi(1)) / (1 + psi'(t)) and r = psi(t).
        """
        slope = self.source.derivative
        c = self.lipschitz_constant

        def read(t_sol, r_sol, jump):
            out = np.full(t_sol.shape, c)
            off = ~jump
            if np.any(off):
                d = np.asarray(slope(np.maximum(t_sol[off], 1e-300)), dtype=float)
                out[off] = c * d / (1.0 + d)
            return np.stack([r_sol, out], axis=-1)

        return tuple(np.moveaxis(self._per_pair(t, read), -1, 0))

    @property
    def value_at_1(self) -> float:
        # the endpoint pair (1, psi(1)) of _solve_many: bitwise value(1.0), no solve
        return self.source.value_at_1

    @property
    def lipschitz_constant(self):
        return 1.0 + self.source.value_at_1

    def __repr__(self):
        return f"LipschitzizedProfile({self.source!r})"


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


def verify_monotone_quotient(psi: CuspProfile, grid) -> MonotoneQuotientResult:
    """Check hat_psi(t)/t is nondecreasing across the grid.

    Meaningful under the hypothesis that psi(t)/t is itself
    nondecreasing; on other inputs a False result documents the
    hypothesis dependence rather than a solver defect.
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    q = hat_values(psi, grid) / grid
    drop = q[1:] < q[:-1] * (1.0 - QUOTIENT_REL_SLACK) - SOLVE_TOL
    if np.any(drop):
        i = int(np.argmax(drop))
        return MonotoneQuotientResult(
            False, (float(grid[i]), float(grid[i + 1]), float(q[i]), float(q[i + 1]))
        )
    return MonotoneQuotientResult(True, None)


@dataclass(frozen=True)
class DoublingTransferResult:
    ok: bool
    bound: float
    max_ratio: float
    argmax: float | None


def verify_doubling_transfer(psi: CuspProfile, grid) -> DoublingTransferResult | None:
    """Check hat_psi(2t) <= max(2, C) * hat_psi(t) on the admissible range.

    C is the profile's doubling constant, which a table derives from its
    rows.  Only grid points with t <= 1 / (2 (1 + psi(1))) are testable,
    since the pair at 2t must exist; with none of them the result is None.
    """
    grid = np.asarray(grid, dtype=float)
    if not np.isfinite(grid).all():
        bad = grid[~np.isfinite(grid)].flat[0]
        raise ProfileDomainError(f"grid point not finite: {bad!r}")
    psi1 = psi.value_at_1
    grid = grid[(grid > 0.0) & (grid <= 1.0 / (2.0 * (1.0 + psi1)))]
    if grid.size == 0:
        return None
    h1 = hat_values(psi, grid)
    h2 = hat_values(psi, 2.0 * grid)
    ratios = h2 / h1
    bound = max(2.0, float(psi.doubling_constant))
    i = int(np.argmax(ratios))
    # additive slack: each hat value carries up to SOLVE_TOL of absolute solver
    # error, which dominates the ratio near the tip where values vanish
    ok = np.max(h2 - bound * h1) <= (1.0 + bound) * SOLVE_TOL
    return DoublingTransferResult(bool(ok), bound, float(ratios[i]), float(grid[i]))


def verify_transfer(psi: CuspProfile, grid, pair_count: int, rng_seed: int):
    """The re-profiled cusp's transfer checks: (hypothesis holds, monotone quotient, checks)."""
    pairs = np.random.default_rng(rng_seed).uniform(1e-9, 1.0, size=(pair_count, 2))
    va, vb = hat_values(psi, pairs[:, 0]), hat_values(psi, pairs[:, 1])
    slack = np.abs(va - vb) - (1.0 + psi.value_at_1) * np.abs(pairs[:, 0] - pairs[:, 1])
    checks = {"lipschitz_bound_ok": Check(float(np.max(slack)), LIPSCHITZ_SLACK_TOLS * SOLVE_TOL)}
    hypothesis = quotient_hypothesis_holds(psi, grid)
    mq = verify_monotone_quotient(psi, grid)
    if hypothesis:
        checks["monotone_quotient_ok"] = mq
    if dt := verify_doubling_transfer(psi, grid):
        checks["doubling_transfer_ok"] = dt
    return hypothesis, mq, checks
