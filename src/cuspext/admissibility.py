"""Integrability criteria, mechanism arithmetic, and sharpness thresholds.

Which (p, q) exponent pairs admit a bounded extension off a cuspidal
domain is governed by the convergence of a weighted tip integral and a
handful of closed-form inequalities.  Convergence is classified
numerically by a dyadic-tail ratio test: panel integrals over
[2^-k-1, 2^-k] must decay geometrically.  Borderline integrands give an
explicit "inconclusive", never a silent guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import gauss_rule, sorted_union
from .lipschitzify import monotone_quotient_ok
from .profiles import CuspProfile, PowerProfile

TAIL_LEVELS = 60
RATIO_THRESHOLD = 0.999
RATIO_WINDOW = 8
_PANEL_GAUSS = 16
_HUGE = 1e280
_TINY = 1e-280

CONVERGENT = "convergent"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TailCheck:
    classification: str
    partial_sum: float


def _panel_integrals(f, first: int, breaks) -> np.ndarray:
    """Gauss integrals of f over [2^-k-1, 2^-k] for k = first, ..., first + TAIL_LEVELS - 1.

    Each panel is split at the breakpoints strictly inside it, and f is
    evaluated once on every sub-interval's nodes together.  A panel's
    total adds its sub-intervals in ascending order, starting from 0.0.
    """
    xi, wt = gauss_rule(_PANEL_GAUSS)
    edges = np.ldexp(1.0, -np.arange(first + TAIL_LEVELS, first - 1, -1))  # ascending
    inner = breaks[(breaks > edges[0]) & (breaks < edges[-1])]
    cuts = sorted_union(edges, inner)
    lo, hi = cuts[:-1], cuts[1:]
    mid, hal = 0.5 * (lo + hi), 0.5 * (hi - lo)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        vals = f(mid[:, None] + hal[:, None] * xi)
    totals = np.zeros(TAIL_LEVELS)
    # unbuffered, in sub-interval order; panel index TAIL_LEVELS - 1 is k = first
    np.add.at(totals, np.searchsorted(edges, lo, side="right") - 1,
              hal * np.sum(wt * vals, axis=1))
    return totals[::-1]


def _classify_tail(arr: np.ndarray) -> TailCheck:
    # arr[i] integrates the i-th dyadic panel, moving toward the tip
    finite_sum = float(np.sum(arr[np.isfinite(arr)]))
    if np.any(~np.isfinite(arr)) or np.any(arr > _HUGE):
        return TailCheck(DIVERGENT, finite_sum)
    tail = arr[-RATIO_WINDOW - 1:]
    if np.all(tail < _TINY):
        # panel masses vanished below representable size
        return TailCheck(CONVERGENT, finite_sum)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = tail[1:] / tail[:-1]
    ratios = ratios[np.isfinite(ratios)]
    if ratios.size == 0:
        return TailCheck(INCONCLUSIVE, finite_sum)
    if np.max(ratios) <= RATIO_THRESHOLD:
        return TailCheck(CONVERGENT, finite_sum)
    if np.min(ratios) >= RATIO_THRESHOLD:
        # no geometric decay: panel masses hold steady or grow
        return TailCheck(DIVERGENT, finite_sum)
    return TailCheck(INCONCLUSIVE, finite_sum)


def _tail_profile(psi: CuspProfile, t) -> np.ndarray:
    """psi(t) for a tail integrand; raises FloatingPointError at the first t where it is not > 0.

    The panels reach t = 2^-61, where a profile can underflow to 0 (t^18
    does below t = 2^-59.7) and make the integrand 0/0 or x/0.  Its panel
    would then read as DIVERGENT, a guess, not a class: a tail class
    needs a positive, finite profile value at every node.
    """
    v = np.asarray(psi.value(t), dtype=float)
    bad = ~((v > 0.0) & (v < np.inf))  # NaN fails both comparisons
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise FloatingPointError(f"tail check: profile value {float(v.flat[i])!r} at t = "
                                 f"{float(np.broadcast_to(t, v.shape).flat[i])!r}, "
                                 f"need > 0 and finite")
    return v


def check_inc1(psi: CuspProfile, s: float, n: int) -> TailCheck:
    """Tip integrability of (t^s / psi(t))^(n/(s-1)) dt/t over (0, 1]."""
    if not s > 1.0:
        raise ValueError(f"s must be > 1, got {s}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    expo = n / (s - 1.0)
    breaks = psi.breakpoints()

    def f(t):
        return (t ** s / _tail_profile(psi, t)) ** expo / t

    return _classify_tail(_panel_integrals(f, 0, breaks))


def check_inc2(psi: CuspProfile, s: float, n: int, p: float) -> TailCheck:
    """Log-weighted tip integrability over (0, 1/2].

    The weight |log(psi(t)/t)|^(-alpha) with alpha = (n-2)p/(p+1-n)
    degenerates at t = 1 whenever psi(1) = 1, so both the
    classification and the reported value cover the tail (0, 1/2],
    where the criterion's content lives.
    """
    if not s > 1.0:
        raise ValueError(f"s must be > 1, got {s}")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if not p > n - 1:
        raise ValueError(f"p must exceed n-1 = {n - 1} for the log weight, got {p}")
    alpha = (n - 2.0) * p / (p + 1.0 - n)
    expo = n / (s - 1.0)
    breaks = psi.breakpoints()

    def f(t):
        v = _tail_profile(psi, t)
        return (t ** s / v) ** expo / t * np.abs(np.log(v / t)) ** -alpha

    return _classify_tail(_panel_integrals(f, 1, breaks))


# One bound function per extension mechanism, of (n, s, p) -> (p_min, q_max):
# at comparison exponent s the mechanism applies iff p_min <= p and q <= q_max.
MECHANISM_BOUNDS = {
    "E1": lambda n, s, p: ((1.0 + (n - 1) * s) / n, n * p / (1.0 + (n - 1) * s)),
    "E2": lambda n, s, p: ((1.0 + (n - 1) * s) / (2.0 + (n - 2) * s),
                           (1.0 + (n - 1) * s) * p / (1.0 + (n - 1) * s + (s - 1.0) * p)),
    "E3": lambda n, s, p: (((n - 1) ** 2 * s + (n - 1)) / n, n - 1),
}


def limit_p_min(n: int, q: float) -> float:
    """Least p of the limit case, (n-1)q/(n-1-q); inf once q >= n-1."""
    return math.inf if q >= n - 1 else (n - 1) * q / (n - 1 - q)


def in_limit_region(n: int, p: float, q: float) -> bool:
    """Limit case: the parameter region where the extension-norm bound is guaranteed."""
    return 1.0 <= q < n - 1 and p >= limit_p_min(n, q)


@dataclass(frozen=True)
class Thresholds:
    s1: float | None
    s2: float | None


def thresholds(n: int, p: float, q: float) -> Thresholds:
    """Sharpness exponents, the bound table's two closed-form inverses.

    Above them the power-cusp domain stops extending.  s1, where E3's
    p_min reaches p, applies at q = n-1 (p >= n-1); s2, where E2's q_max
    falls to q, applies for q < n-1 with q <= p < limit_p_min(n, q).
    Other parameter combinations raise.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if q == n - 1:
        if not n - 1 <= p:
            raise ValueError(f"s1 needs p >= n-1 = {n - 1}, got {p}")
        return Thresholds((n * p - (n - 1)) / (n - 1) ** 2, None)
    if q < n - 1:
        limit = limit_p_min(n, q)
        if not q <= p:
            raise ValueError(f"need q <= p, got p={p}, q={q}")
        if not p < limit:
            raise ValueError(
                f"no finite threshold: p = {p} not < (n-1)q/(n-1-q) = {limit}"
            )
        return Thresholds(None, (p * q + p - q) / (p * q + (n - 1) * (q - p)))
    raise ValueError(f"q must be <= n-1 = {n - 1}, got {q}")


def _thresholds_or_none(n: int, p: float, q: float) -> Thresholds | None:
    try:
        return thresholds(n, p, q)
    except ValueError:
        return None


def power_cusp_admissible(n: int, sigma: float, p: float, q: float):
    """Extension verdict for the power cusp with exponent sigma.

    The bound table read at s = sigma.  E1 and E2 need the plain tip
    condition, which holds iff s > sigma; their p_min grows and q_max
    falls strictly with s, so some s > sigma passes iff sigma passes
    strictly.  E3's log-weighted condition holds at s = sigma itself, so
    E3 is read closed, which closes the q = n-1 frontier.  Returns
    (admissible, mechanisms tuple).
    """
    if not sigma > 1.0:
        raise ValueError(f"sigma must be > 1, got {sigma}")
    if not 1.0 <= q <= p:
        raise ValueError(f"need 1 <= q <= p, got p={p}, q={q}")
    mechanisms = []
    for name, bound in MECHANISM_BOUNDS.items():
        p_min, q_max = bound(n, sigma, p)
        if (p_min <= p and q <= q_max) if name == "E3" else (p_min < p and q < q_max):
            mechanisms.append(name)
    if in_limit_region(n, p, q):
        mechanisms.append("LimitCase")
    return bool(mechanisms), tuple(mechanisms)


def sigma_grid(start: float, stop: float, step: float, count: int) -> np.ndarray:
    """``count`` exponents from ``start`` by ``step``, rounded to 12 decimals, cut at ``stop``."""
    sigmas = np.round(np.linspace(start, start + step * (count - 1), count), 12)
    return sigmas[sigmas <= stop + 1e-12]  # a rounded-up count carries the last one past stop


def sweep_power_cusp(n: int, p: float, q: float, sigmas) -> list[dict]:
    """Admissibility sweep over power-cusp exponents, one dict per row.

    Exponents are rounded to 12 decimals so accumulated grid noise
    cannot push a value across an exact frontier.  Every row's
    ``hypothesis_ok``, whether hat_psi(t)/t is nondecreasing on a
    24-point grid, comes from one stacked hat solve over all rows, run
    once every row's tail checks have passed; a row's t^sigma is finite
    on (0, 1], so that solve cannot fail where a row's checks would not.
    """
    rows, psis = [], []
    thr = _thresholds_or_none(n, p, q) or Thresholds(None, None)
    for sigma in map(float, np.round(np.asarray(sigmas, dtype=float), 12)):
        ok, mechanisms = power_cusp_admissible(n, sigma, p, q)
        psi = PowerProfile(sigma)
        inc1 = check_inc1(psi, sigma, n)
        inc2 = check_inc2(psi, sigma, n, p) if p > n - 1 else None
        psis.append(psi)
        rows.append({
            "sigma": sigma,
            "admissible": ok,
            "mechanisms": "+".join(mechanisms) if mechanisms else "None",
            "hypothesis_ok": None,  # filled in below, from the stacked solve
            "inc1_self": inc1.classification,
            "inc1_partial": inc1.partial_sum,
            "inc2_self": inc2.classification if inc2 else "",
            "inc2_value": (inc2.partial_sum if inc2 and inc2.classification == CONVERGENT
                           else ""),
            "s1": "" if thr.s1 is None else thr.s1,
            "s2": "" if thr.s2 is None else thr.s2,
        })
    for row, hyp_ok in zip(rows, monotone_quotient_ok(psis, np.geomspace(1e-4, 1.0, 24))):
        row["hypothesis_ok"] = bool(hyp_ok)
    return rows


def frontier_from_sweep(rows: list[dict]) -> float | None:
    """Largest admissible sigma in a sweep (None when none are)."""
    admissible = [row["sigma"] for row in rows if row["admissible"]]
    return max(admissible) if admissible else None
