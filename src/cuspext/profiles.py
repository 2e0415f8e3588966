"""Cusp profiles: positive, increasing, left-continuous functions on (0, 1].

A profile psi describes the opening radius of an outward cuspidal domain.
Analytic kinds (power, linear) carry their Lipschitz constant and slope;
step and tabulated kinds are left-continuous step functions, never
interpolated between breakpoints, so jump semantics stay exact.  A table
carries neither, so the extension always straightens it first, onto a
PiecewiseLinearProfile; its doubling constant is derived from its rows.
"""

from __future__ import annotations

import csv
import functools
import numbers
from abc import ABC, abstractmethod

import numpy as np

from .errors import ProfileDomainError, ProfileFormatError, unknown_key

_T_EPS = 1e-15
MAX_EXPONENT = 1024.0  # a power exponent's doubling constant 2**exponent overflows from here


def _finite_above(name: str, value, low: float) -> float:
    """``value`` as a float when it is a finite real number > low; bools are not numbers."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and low < float(value) < np.inf):
        raise ProfileFormatError(f"{name}: need a finite number > {low:g}, got {value!r}")
    return float(value)


def _check_t(t):
    t = np.asarray(t, dtype=float)
    # two reductions accept a batch; the mask below only names the first bad value
    if t.size and t.min() > 0.0 and t.max() <= 1.0 + _T_EPS:
        return t
    bad = ~((t > 0.0) & (t <= 1.0 + _T_EPS))  # NaN fails both comparisons
    if np.any(bad):
        first = np.atleast_1d(t)[np.atleast_1d(bad)][0]
        raise ProfileDomainError(f"profile argument outside (0, 1]: {first!r}")
    return t


class CuspProfile(ABC):
    """Common interface for cusp profiles.

    ``value(t)`` returns psi(t), which equals the left limit by
    left-continuity, after checking that t lies in (0, 1].  ``_eval(t)``
    is the same formula without the check, for callers that build their
    arguments inside (0, 1] themselves; a kind defines its formula there
    and its ``value`` checks and then calls it.  By default ``_eval`` is
    ``value``, so a profile that defines only ``value`` keeps its check.
    A profile is not mutated after construction, so values derived from
    it may be cached on it.
    """

    kind: str
    doubling_constant: float  # sup of psi(2t) / psi(t) over 0 < t <= 1/2

    @abstractmethod
    def value(self, t):
        ...

    def _eval(self, t):
        """psi(t) for an array t already inside (0, 1]."""
        return self.value(t)

    def derivative(self, t):
        """psi'(t) in closed form, which only the Lipschitz kinds have."""
        raise NotImplementedError(f"a {self.kind} profile has no closed-form slope")

    def scaled(self, factor: float) -> "CuspProfile":
        """Profile with all values multiplied by ``factor`` > 0."""
        return _ScaledView(self, factor)

    @property
    @abstractmethod
    def lipschitz_constant(self) -> float | None:
        """Lipschitz bound when the profile is Lipschitz, else None."""

    @functools.cached_property
    def value_at_1(self) -> float:
        """psi(1), read once per profile object (profiles are not mutated)."""
        return float(self.value(1.0))

    def breakpoints(self) -> np.ndarray:
        """Interior jump locations (empty for continuous kinds)."""
        return np.empty(0)


class PowerProfile(CuspProfile):
    """psi(t) = coeff * t**exponent with exponent > 1."""

    kind = "power"

    def __init__(self, exponent: float, coeff: float = 1.0):
        self.exponent = _finite_above("exponent", exponent, 1.0)
        if self.exponent >= MAX_EXPONENT:
            raise ProfileFormatError(f"exponent: need a finite number < 1024, got {exponent!r}")
        self.coeff = _finite_above("coeff", coeff, 0.0)
        # psi(2t) / psi(t) == 2**s exactly
        self.doubling_constant = 2.0 ** self.exponent

    def value(self, t):
        return self._eval(_check_t(t))

    def _eval(self, t):
        return self.coeff * t ** self.exponent

    def scaled(self, factor):
        return PowerProfile(self.exponent, self.coeff * factor)

    @property
    def lipschitz_constant(self):
        # derivative s*c*t**(s-1) is increasing on (0, 1]
        return self.exponent * self.coeff

    def derivative(self, t):
        t = _check_t(t)
        return self.coeff * self.exponent * t ** (self.exponent - 1.0)

    def __repr__(self):
        return f"PowerProfile(exponent={self.exponent}, coeff={self.coeff})"


class LinearProfile(CuspProfile):
    """psi(t) = slope * t with slope > 0."""

    kind = "linear"

    def __init__(self, slope: float):
        self.slope = _finite_above("slope", slope, 0.0)
        self.doubling_constant = 2.0

    def value(self, t):
        return self._eval(_check_t(t))

    def _eval(self, t):
        return self.slope * t

    def scaled(self, factor):
        return LinearProfile(self.slope * factor)

    @property
    def lipschitz_constant(self):
        return self.slope

    def derivative(self, t):
        t = _check_t(t)
        return np.full_like(t, self.slope)

    def __repr__(self):
        return f"LinearProfile(slope={self.slope})"


class StepProfile(CuspProfile):
    """Left-continuous step function from (breakpoint, value) pairs.

    The value ``values[i]`` holds on (breaks[i-1], breaks[i]] (with
    breaks[-1] == 1 so the profile is total on (0, 1]).  ``kind`` is
    "step" for hand-authored tables and "tabulated" for sampled data;
    the semantics are identical.  Its Lipschitz constant is None, and its
    doubling constant is the exact supremum of psi(2t) / psi(t) over
    0 < t <= 1/2: both psi and psi(2 .) are constant between consecutive
    cuts (the breakpoints and their halves) and left-continuous, so the
    supremum is the largest ratio at a cut in (0, 1/2].
    """

    def __init__(self, breaks, values, kind: str = "step"):
        breaks = np.asarray(breaks, dtype=float)
        values = np.asarray(values, dtype=float)
        if breaks.ndim != 1 or breaks.shape != values.shape or breaks.size == 0:
            raise ProfileFormatError("breaks and values must be equal-length 1-d arrays")
        for i in range(breaks.size):
            if not 0.0 < breaks[i] <= 1.0:
                raise ProfileFormatError(f"row {i}: breakpoint {breaks[i]} outside (0, 1]")
            if i > 0 and breaks[i] <= breaks[i - 1]:
                raise ProfileFormatError(
                    f"row {i}: breakpoint {breaks[i]} not above previous {breaks[i - 1]}"
                )
            if not 0.0 < values[i] < np.inf:
                raise ProfileFormatError(f"row {i}: value {values[i]} not finite and > 0")
            if i > 0 and values[i] < values[i - 1]:
                raise ProfileFormatError(
                    f"row {i}: value {values[i]} decreases below previous {values[i - 1]}"
                )
        if breaks[-1] != 1.0:
            raise ProfileFormatError(
                f"row {breaks.size - 1}: last breakpoint must be 1.0, got {breaks[-1]}"
            )
        self.breaks = breaks
        self.values = values
        self.kind = kind
        # read off the rows, not through value: the last breakpoint is 1.0, so
        # every index of a point in (0, 1] is in range.  The cuts need no sort:
        # np.union1d would import numpy.ma, about 1 MB of peak RSS
        cuts = np.concatenate([breaks, 0.5 * breaks])
        cuts = cuts[(cuts > 0.0) & (cuts <= 0.5)]
        at_cut = values[np.searchsorted(breaks, cuts, side="left")]
        at_double = values[np.searchsorted(breaks, 2.0 * cuts, side="left")]
        with np.errstate(over="ignore"):  # a ratio past the float range reads inf
            self.doubling_constant = float(np.max(at_double / at_cut))

    def value(self, t):
        return self._eval(_check_t(t))

    def _eval(self, t):
        idx = np.searchsorted(self.breaks, t, side="left")
        idx = np.minimum(idx, self.breaks.size - 1)
        return self.values[idx]

    def scaled(self, factor):
        return StepProfile(self.breaks, self.values * factor, kind=self.kind)

    @property
    def lipschitz_constant(self):
        return None

    def breakpoints(self):
        return self.breaks[:-1].copy()

    def __repr__(self):
        return f"StepProfile(kind={self.kind!r}, nodes={self.breaks.size})"


class PiecewiseLinearProfile(CuspProfile):
    """Continuous profile through (vertices[k], heights[k]), both ascending from 0.

    ``slopes[k]``, the exact slope on (vertices[k], vertices[k + 1]], is
    given, not divided out, so the Lipschitz constant is its largest bitwise.
    ``np.interp`` returns a vertex's height exactly; there are no jumps.
    """

    kind = "piecewise-linear"

    def __init__(self, vertices, heights, slopes, doubling_constant: float):
        self.vertices, self.heights, self.slopes = vertices, heights, slopes
        self.doubling_constant = doubling_constant

    def value(self, t):
        return self._eval(_check_t(t))

    def _eval(self, t):
        return np.interp(t, self.vertices, self.heights)

    def derivative(self, t):
        # t in (0, 1] lies on the piece k with vertices[k] < t <= vertices[k + 1]
        return self.slopes[np.searchsorted(self.vertices[1:-1], _check_t(t), side="left")]

    @property
    def lipschitz_constant(self):
        return float(np.max(self.slopes))

    def __repr__(self):
        return f"PiecewiseLinearProfile(vertices={self.vertices.size})"


class _ScaledView(CuspProfile):
    """Lazy multiplicative rescaling of an arbitrary profile."""

    def __init__(self, base: CuspProfile, factor: float):
        if not factor > 0.0:
            raise ProfileFormatError(f"scale factor must be > 0, got {factor}")
        self.base = base
        self.factor = float(factor)
        self.kind = base.kind
        self.doubling_constant = base.doubling_constant  # ratios are scale-free

    def value(self, t):
        return self.factor * self.base.value(t)

    def _eval(self, t):
        return self.factor * self.base._eval(t)

    def scaled(self, factor):
        return _ScaledView(self.base, self.factor * factor)

    @property
    def lipschitz_constant(self):
        lip = self.base.lipschitz_constant
        return None if lip is None else self.factor * lip

    def breakpoints(self):
        return self.base.breakpoints()

    def derivative(self, t):
        return self.factor * self.base.derivative(t)


# the config keys each kind reads; make_profile rejects any other
PROFILE_KEYS = {
    "power": ("exponent", "coeff"),
    "linear": ("slope",),
    "step": ("breakpoints", "values", "doubling_constant"),
    "tabulated": ("breakpoints", "values", "doubling_constant"),
}


def make_profile(kind: str, **params) -> CuspProfile:
    """Construct a profile from a config-style description.

    A table's ``doubling_constant`` is a claim checked against the
    constant of its rows, never a value any computation reads.
    """
    if kind not in PROFILE_KEYS:
        raise ProfileFormatError(f"unknown profile kind {kind!r}")
    unknown = [unknown_key(key, key, PROFILE_KEYS[kind])
               for key in params if key not in PROFILE_KEYS[kind]]
    if unknown:
        raise ProfileFormatError("; ".join(unknown))
    try:
        if kind == "power":
            return PowerProfile(params["exponent"], params.get("coeff", 1.0))
        if kind == "linear":
            return LinearProfile(params["slope"])
        table = StepProfile(params["breakpoints"], params["values"], kind=kind)
    except KeyError as err:
        raise ProfileFormatError(f"kind {kind!r} needs {err.args[0]}") from None
    declared = params.get("doubling_constant")
    if declared is not None and (_finite_above("doubling_constant", declared, 0.0)
                                 < table.doubling_constant):
        raise ProfileFormatError(f"doubling_constant: declared {declared!r} is below "
                                 f"the rows' constant {table.doubling_constant!r}")
    return table


def load_profile_csv(path) -> StepProfile:
    """Load a tabulated profile from two-column CSV (breakpoint, value).

    Breakpoints must ascend within (0, 1] and end at 1; values must be
    finite, strictly positive and nondecreasing.  Violations raise
    ProfileFormatError with the offending row index (0-based, header
    excluded if present).
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows and rows[0] and not _is_number(rows[0][0]):
        rows = rows[1:]  # optional header
    breaks, values = [], []
    for i, row in enumerate(rows):
        if not row:
            continue
        if len(row) < 2:
            raise ProfileFormatError(f"row {i}: expected two columns, got {len(row)}")
        if not (_is_number(row[0]) and _is_number(row[1])):
            raise ProfileFormatError(f"row {i}: non-numeric entry {row[:2]!r}")
        breaks.append(float(row[0]))
        values.append(float(row[1]))
    if not breaks:
        raise ProfileFormatError("row 0: empty profile table")
    return StepProfile(breaks, values, kind="tabulated")


def save_profile_csv(profile: StepProfile, path) -> None:
    """Write a step/tabulated profile in the load_profile_csv format."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["breakpoint", "value"])
        for b, v in zip(profile.breaks, profile.values):
            writer.writerow([repr(float(b)), repr(float(v))])


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False
