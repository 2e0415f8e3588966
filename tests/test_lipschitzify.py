import math

import numpy as np
import pytest
from fd_oracle import central_difference
from helpers import DYADIC_STAIRCASE, hat_pair, one_phase_solve_bisect, profile_to_csv_text
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspext import lipschitzify
from cuspext.errors import ConvergenceError, ProfileDomainError, ProfileFormatError
from cuspext.lipschitzify import (
    LipschitzizedProfile,
    _solve_bisect,
    hat_profile,
    hat_values,
    quotient_hypothesis_holds,
    reprofile,
    verify_doubling_transfer,
    verify_monotone_quotient,
)
from cuspext.profiles import (
    CuspProfile,
    LinearProfile,
    PowerProfile,
    StepProfile,
    load_profile_csv,
)

TWO_STEP = StepProfile([0.5, 1.0], [0.1, 0.2])


def random_table(rows, seed):
    """A table with breaks and values drawn uniform, as the doubling-transfer tests draw them."""
    rng = np.random.default_rng(seed)
    breaks = np.append(np.sort(rng.uniform(0.01, 0.99, rows - 1)), 1.0)
    return StepProfile(breaks, np.sort(rng.uniform(1e-3, 1.0, rows)), kind="tabulated")


ORACLE_TABLES = {"two-step": TWO_STEP, "random-41": random_table(41, 7),
                 "staircase": DYADIC_STAIRCASE}

# bisection oracle for psi = t^2, t_hat = 1/2: t + t^2 = 1 has the positive
# root (sqrt(5) - 1)/2, so the re-profiled value is (3 - sqrt(5))/2
T_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
R_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


def bisect(psi, ts):
    """The generic solver as the bisection view calls it, with psi(1) read once."""
    return _solve_bisect(psi, ts, psi.value_at_1)


def test_hat_pair_power_oracle():
    t, r, on_jump = hat_pair(PowerProfile(2.0), 0.5)
    assert abs(t - T_GOLDEN) <= 1e-12
    assert abs(r - R_GOLDEN) <= 1e-12
    assert not on_jump
    assert t + r == pytest.approx(1.0, abs=1e-12)


def test_hat_linear_fixed_point_exact():
    lin = LinearProfile(0.25)
    grid = np.linspace(0.01, 1.0, 100)
    assert np.array_equal(hat_values(lin, grid), lin.value(grid))
    t, _, on_jump = hat_pair(lin, 0.37)
    assert t == 0.37 and not on_jump
    assert reprofile(lin) is lin  # a linear profile is its own re-profiling


def test_hat_step_jump_gap():
    # target 1.2 * 0.55 = 0.66 falls in the jump gap [0.6, 0.7] at t = 0.5
    t, r, on_jump = hat_pair(TWO_STEP, 0.55)
    assert t == 0.5
    assert r == pytest.approx(0.16, abs=1e-14)
    assert on_jump
    # affine with slope 1 + psi(1) across the jump interval
    lo, hi = 0.6 / 1.2, 0.7 / 1.2
    ts = np.linspace(lo + 1e-9, hi - 1e-9, 50)
    vals = hat_values(TWO_STEP, ts)
    assert np.max(np.abs(vals - (1.2 * ts - 0.5))) <= 1e-10


def test_generic_bisection_matches_step_fast_path():
    # the bisection of a table against the pairs read off its piecewise-linear hat
    ts = np.linspace(0.05, 0.999, 97)
    t_f, r_f, j_f = (np.empty(97), np.empty(97), np.empty(97, dtype=bool))
    for i, t in enumerate(ts):
        t_f[i], r_f[i], j_f[i] = hat_pair(TWO_STEP, t)
    t_b, r_b, j_b = bisect(TWO_STEP, ts)
    assert np.max(np.abs(t_b - t_f)) <= 1e-11
    assert np.max(np.abs(r_b - r_f)) <= 1e-11
    assert np.array_equal(j_b, j_f)
    ts = np.concatenate([np.geomspace(1e-20, 1.0, 200), np.linspace(0.001, 0.999, 200)])
    for table in ORACLE_TABLES.values():
        assert np.max(np.abs(bisect(table, ts)[1] - reprofile(table).value(ts))) <= 1e-11


def mp_table_hat(psi, t_hat, mpmath):
    """r of t + r = c t_hat for a table, in exact arithmetic, with c = 1 + psi(1) as a float.

    psi is extended by zero for t <= 0.  r fills the jump at a row's left
    end b when b + psi(b) < target <= b + psi(b+), and is the row's value
    where the target lands on the row.
    """
    target = mpmath.mpf(1.0 + psi.value_at_1) * mpmath.mpf(t_hat)
    left = mpmath.mpf(0)
    for b, v in zip(psi.breaks, psi.values):
        if target <= left + mpmath.mpf(v):
            return target - left
        if target <= mpmath.mpf(b) + mpmath.mpf(v):
            return mpmath.mpf(v)
        left = mpmath.mpf(b)
    return mpmath.mpf(psi.values[-1])  # c t_hat past g(1) = 1 + psi(1) in exact arithmetic


@pytest.mark.parametrize("table", sorted(ORACLE_TABLES))
def test_table_hat_matches_mpmath_down_to_the_tip(table):
    # a row's height is read off the table, so the staircase keeps 0.25 * 4^-60
    # at t_hat = 2^-61, where the step solve's target - t read 0.0
    mpmath = pytest.importorskip("mpmath")
    psi = ORACLE_TABLES[table]
    rng = np.random.default_rng(21)
    ts = np.concatenate([10.0 ** rng.uniform(-40.0, 0.0, 300), rng.uniform(1e-3, 1.0, 100),
                         [1e-300, 2.0 ** -61, 1.0]])
    got = reprofile(psi).value(ts)
    with mpmath.workdps(50):
        want = np.array([float(mp_table_hat(psi, x, mpmath)) for x in ts])
    assert np.max(np.abs(got - want) / want) <= 1e-15


class EvalLog(PowerProfile):
    """t^2 logging the size of each unchecked read; value reads through _eval too."""

    def __init__(self):
        super().__init__(2.0)
        self.reads = []

    def _eval(self, t):
        self.reads.append(np.size(t))
        return super()._eval(t)


def logged_solve(monkeypatch, ts):
    """(sizes of the _eval reads, sizes of the _psi_values reads, result) of one solve."""
    psi = EvalLog()
    psi1 = psi.value_at_1
    psi.reads.clear()  # the read of psi(1) is the caller's
    finals = []
    real = lipschitzify._psi_values

    def counted(psi, t):
        finals.append(np.size(t))
        return real(psi, t)

    monkeypatch.setattr(lipschitzify, "_psi_values", counted)
    out = _solve_bisect(psi, ts, psi1)
    return psi.reads, finals, out


def test_bisection_g_reads_are_fixed(monkeypatch):
    # the compacted loop reads g exactly as often, on exactly as many points:
    # each halving reads _eval, and the final read of psi(lo) goes through
    # _psi_values, whose value call is the last _eval read
    reads, finals, _ = logged_solve(monkeypatch, np.geomspace(1e-9, 1.0, 1000))
    assert (len(reads), sum(reads)) == (82, 67_525)
    assert finals == reads[-1:] == [1000]


def test_bisection_result_independent_of_batch():
    # a jump profile through the generic solver, not the step fast path
    ts = np.concatenate([np.linspace(0.01, 1.0, 150), np.geomspace(1e-12, 0.3, 50)])
    whole = bisect(TWO_STEP, ts)
    halves = [bisect(TWO_STEP, part) for part in (ts[::2], ts[1::2])]
    for got, a, b in zip(whole, *halves):
        assert got[::2].tobytes() == a.tobytes() and got[1::2].tobytes() == b.tobytes()
    for i in (0, 77, 199):
        single = bisect(TWO_STEP, ts[i:i + 1])
        assert all(s[0] == w[i] for s, w in zip(single, whole))


@pytest.mark.parametrize("psi", [PowerProfile(2.0), TWO_STEP], ids=["power", "two-step"])
def test_bisection_2d_matches_flat(psi):
    ts = np.geomspace(1e-6, 1.0, 60).reshape(6, 10)
    for got, flat in zip(bisect(psi, ts), bisect(psi, ts.ravel())):
        assert got.shape == (6, 10) and got.ravel().tobytes() == flat.tobytes()
    assert hat_values(psi, ts).ravel().tobytes() == hat_values(psi, ts.ravel()).tobytes()


# the grids of the two-phase parity check: down to 1e-12 and up to t_hat = 1,
# 2-d, a single point, empty, and t_hat = 1 alone
PARITY_GRIDS = [np.stack([np.geomspace(1e-12, 1.0, 40), np.linspace(0.025, 1.0, 40)]),
                np.array([0.37]), np.empty(0), np.array([1.0])]


def assert_same_solve(psi, ts):
    got, want = bisect(psi, ts), one_phase_solve_bisect(psi, ts)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_two_phase_bisection_matches_one_phase_power():
    # the dyadic phase keeps only lo; each of its sums is exact, so the
    # bits are those of mid = (lo + hi) / 2 from the first halving on
    sigmas = np.round(np.arange(1.1, 4.05, 0.1), 12).tolist() + [7.3]
    for sigma in sigmas:
        for coeff in (0.25, 1.0, 3.7):
            for ts in PARITY_GRIDS:
                assert_same_solve(PowerProfile(sigma, coeff), ts)


@pytest.mark.parametrize("psi", [CuspProfile.scaled(PowerProfile(2.5), 0.3), TWO_STEP,
                                 CuspProfile.scaled(TWO_STEP, 2.0)],
                         ids=["scaled-power", "two-step", "scaled-two-step"])
def test_two_phase_bisection_matches_one_phase_views(psi):
    for ts in PARITY_GRIDS + [np.linspace(0.01, 1.0, 300)]:
        assert_same_solve(psi, ts)


class NanBelow(CuspProfile):
    """t^2 with NaN below ``cut``; psi(1) = 1 whatever the cut."""

    kind = "nan-below"

    def __init__(self, cut):
        self.cut = cut

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < self.cut, np.nan, t * t)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < self.cut, np.nan, 2.0 * t)

    @property
    def lipschitz_constant(self):
        return None

    @property
    def value_at_1(self):
        return 1.0


@pytest.mark.parametrize("cut, ts", [(2.0, [0.5]), (0.3, [0.01, 0.9]), (1e-20, [0.6, 1e-21])],
                         ids=["everywhere", "dyadic-phase", "closing-phase"])
def test_two_phase_bisection_errors_match_one_phase(cut, ts):
    ts = np.array(ts)
    with pytest.raises(ConvergenceError) as want:
        one_phase_solve_bisect(NanBelow(cut), ts)
    with pytest.raises(ConvergenceError) as got:
        bisect(NanBelow(cut), ts)
    assert str(got.value) == str(want.value)
    assert got.value.bracket == want.value.bracket


def test_bisection_empty_batch_runs_no_halving(monkeypatch):
    reads, finals, (t_sol, r_sol, jump) = logged_solve(monkeypatch, np.empty((0, 3)))
    assert (reads, finals) == ([], [0])  # only the residual read; no halving runs
    assert t_sol.shape == r_sol.shape == jump.shape == (0, 3)


class InsideOnly:
    """Mixin: the unchecked read asserts 0 < t <= 1 on every call (NaN fails)."""

    def _eval(self, t):
        assert np.all((t > 0.0) & (t <= 1.0)), t
        return super()._eval(t)


class InsidePower(InsideOnly, PowerProfile):
    pass


class InsideStep(InsideOnly, StepProfile):
    pass


@pytest.mark.parametrize("inside, plain", [
    (InsidePower(2.7, 0.6), PowerProfile(2.7, 0.6)),
    (CuspProfile.scaled(InsidePower(2.5), 0.3), CuspProfile.scaled(PowerProfile(2.5), 0.3)),
    (CuspProfile.scaled(InsideStep([0.5, 1.0], [0.1, 0.2]), 2.0),
     CuspProfile.scaled(TWO_STEP, 2.0)),
], ids=["power", "scaled-power", "scaled-two-step"])
def test_bisection_reads_eval_only_inside_the_domain(inside, plain):
    # every midpoint lies in (0, 1], down to the subnormals that the brackets of
    # the scaled two-step view halve to at its t = 0 jump
    for ts in PARITY_GRIDS + [np.array([1e-300, 1e-100, 0.05])]:
        for got, want in zip(bisect(inside, ts), bisect(plain, ts)):
            assert got.tobytes() == want.tobytes()


def test_bracket_open_after_the_last_halving_raises(monkeypatch):
    # unreachable with the derived bound; a lower one leaves a tip bracket open
    monkeypatch.setattr(lipschitzify, "LAST_CLOSING_ITER", 60)
    with pytest.raises(ConvergenceError, match="still open") as err:
        bisect(PowerProfile(2.0), np.array([0.5, 1e-30]))
    lo, hi = err.value.bracket
    assert 0.0 <= lo < 1e-30 < hi


class CountedPower(PowerProfile):
    def __init__(self):
        super().__init__(2.0)
        self.ndims = []

    def value(self, t):
        self.ndims.append(np.ndim(t))
        return super().value(t)


class CountedStep(StepProfile):
    def __init__(self):
        super().__init__([0.5, 1.0], [0.1, 0.2])
        self.ndims = []

    def value(self, t):
        self.ndims.append(np.ndim(t))
        return super().value(t)


@pytest.mark.parametrize("make", [CountedPower, CountedStep], ids=["bisection", "step"])
def test_hat_solve_reads_psi1_once(make):
    # psi(1) scales the targets and is the endpoint value: one read serves both
    psi = make()
    vals = hat_values(psi, [0.3, 1.0])
    assert psi.ndims.count(0) == 1
    assert vals[1] == psi.value_at_1


def test_hat_below_profile_infimum():
    # targets below inf(t + psi(t)) resolve to the zero-extension jump at t = 0
    t, r, on_jump = hat_pair(TWO_STEP, 0.05)
    assert t == 0.0
    assert r == pytest.approx(1.2 * 0.05, abs=1e-14)
    assert on_jump
    assert hat_values(TWO_STEP, 0.05) > 0.0


def test_hat_endpoint_convention():
    for psi in (PowerProfile(2.0), TWO_STEP, LinearProfile(0.3)):
        value = hat_values(psi, 1.0)
        assert type(value) is float and value == psi.value_at_1


def test_hat_domain_errors():
    with pytest.raises(ProfileDomainError):
        hat_pair(PowerProfile(2.0), 0.0)
    with pytest.raises(ProfileDomainError):
        hat_pair(PowerProfile(2.0), 1.5)


@pytest.mark.parametrize("psi", [PowerProfile(2.0), TWO_STEP, LinearProfile(0.25)],
                         ids=["bisection", "step", "linear"])
def test_hat_solve_rejects_nan(psi):
    # NaN fails both t_hat > 0 and t_hat <= 1, so it is rejected where it enters
    with pytest.raises(ProfileDomainError, match="nan"):
        hat_values(psi, [0.5, np.nan])
    with pytest.raises(ProfileDomainError):
        hat_pair(psi, float("nan"))
    with pytest.raises(ProfileDomainError):
        LipschitzizedProfile(psi).value(np.array([np.nan, 0.3]))


def test_convergence_error_carries_bracket():
    class BrokenProfile(CuspProfile):
        kind = "broken"

        def value(self, t):
            return np.full_like(np.asarray(t, dtype=float), np.nan)

        derivative = value

        @property
        def lipschitz_constant(self):
            return None

        @property
        def value_at_1(self):
            return 1.0

    with pytest.raises(ConvergenceError) as err:
        bisect(BrokenProfile(), np.array([0.5]))
    assert err.value.bracket is not None


def test_hat_values_do_not_depend_on_batch():
    # each point must stop on its own bracket: a batch-wide stop would let
    # a point far from the tip decide how far the tip points converge
    pts = np.geomspace(1e-9, 1e-2, 2000)
    alone = hat_values(PowerProfile(2.0), pts)
    batched = hat_values(PowerProfile(2.0), np.append(pts, 0.5))[:-1]
    assert np.array_equal(alone, batched)


def test_hat_values_tip_relative_accuracy():
    # psi = t^2: t + t^2 = 2 t_hat gives t = (-1 + sqrt(1 + 8 t_hat)) / 2, r = t^2.
    mpmath = pytest.importorskip("mpmath")
    pts = np.geomspace(1e-9, 1e-3, 50)
    got = hat_values(PowerProfile(2.0), pts)
    with mpmath.workdps(50):
        want = np.array([float(((mpmath.sqrt(1 + 8 * mpmath.mpf(x)) - 1) / 2) ** 2)
                         for x in pts])
    assert np.max(np.abs(got - want) / want) <= 1e-6


@pytest.mark.parametrize("exponent, coeff", [(2.0, 1.0), (2.0, 0.25), (3.0, 0.25), (5.0, 0.25)])
def test_hat_values_match_mpmath_down_to_the_tip(exponent, coeff):
    # off a jump the solve returns r = psi(t), which does not cancel as target - t
    # does: for 0.25 t^2 at t_hat = 1e-18 that difference is 0.0, the value 3.90625e-37
    # t_hat runs down to 1e-300; the comparison keeps the points where psi does
    # not underflow, which closing brackets up to halving 1074 reaches
    mpmath = pytest.importorskip("mpmath")
    pts = np.geomspace(1e-300, 0.99, 160)
    got = hat_values(PowerProfile(exponent, coeff), pts)
    want = []
    with mpmath.workdps(60):
        for x in pts:
            target = (1 + mpmath.mpf(coeff)) * mpmath.mpf(x)
            # Newton from t = target, right of the root of the convex t + c t^s - target
            t = mpmath.findroot(lambda t: t + coeff * t ** exponent - target, target)
            want.append(float(coeff * t ** exponent))
    want = np.array(want)
    normal = want >= np.finfo(float).tiny
    assert pts[normal].min() < 1e-60  # a bound of 200 halvings leaves brackets open here
    assert np.max(np.abs(got - want)[normal] / want[normal]) <= 1e-14


@pytest.mark.parametrize("psi", [PowerProfile(2.0), PowerProfile(3.0), TWO_STEP])
def test_lipschitz_bound(psi):
    tol = 1e-12
    rng = np.random.default_rng(3)
    a = rng.uniform(1e-9, 1.0, size=10_000)
    b = rng.uniform(1e-9, 1.0, size=10_000)
    gap = np.abs(hat_values(psi, a) - hat_values(psi, b))
    assert np.all(gap <= (1.0 + psi.value_at_1) * np.abs(a - b) + 2.0 * tol)


def test_lipschitz_bound_random_tabulated():
    rng = np.random.default_rng(11)
    breaks = np.sort(rng.uniform(0.01, 0.99, size=12))
    breaks = np.append(breaks, 1.0)
    values = np.cumsum(rng.uniform(0.01, 0.3, size=13))
    psi = StepProfile(breaks, values, kind="tabulated")
    a = rng.uniform(1e-9, 1.0, size=10_000)
    b = rng.uniform(1e-9, 1.0, size=10_000)
    gap = np.abs(hat_values(psi, a) - hat_values(psi, b))
    assert np.all(gap <= (1.0 + psi.value_at_1) * np.abs(a - b) + 2e-12)


def test_hat_monotone():
    grid = np.geomspace(1e-8, 1.0, 400)
    for psi in (PowerProfile(2.0), PowerProfile(3.0), TWO_STEP):
        vals = hat_values(psi, grid)
        assert np.all(np.diff(vals) >= -1e-12)


def test_squeeze_bound_continuous():
    # for continuous psi: psi(t_comp) <= hat(t) <= psi((1 + psi(1)) t)
    psi = PowerProfile(2.0)
    ts = np.linspace(0.01, 0.49, 50)  # below 1/(1 + psi(1)) = 0.5
    for t in ts:
        t_comp, r, _ = hat_pair(psi, t)
        lo = psi.value(t_comp) if t_comp > 0 else 0.0
        hi = psi.value(2.0 * t)
        assert lo - 1e-12 <= r <= hi + 1e-12


def test_hat_profile_materialization():
    psi = PowerProfile(2.0)
    grid = np.array([0.25, 0.5, 0.75, 1.0])
    table = hat_profile(psi, grid)
    assert table.kind == "tabulated"
    assert table.lipschitz_constant is None  # a table never carries one, a hat table included
    assert table.value(0.5) == pytest.approx(R_GOLDEN, abs=1e-12)
    assert table.value(1.0) == 1.0
    singleton = hat_profile(psi, [1.0])
    assert singleton.value(1.0) == 1.0
    lin_table = hat_profile(LinearProfile(0.25), grid)
    assert np.array_equal(lin_table.values, 0.25 * grid)


def test_hat_profile_grid_validation():
    psi = PowerProfile(2.0)
    with pytest.raises(ProfileFormatError, match="end at 1"):
        hat_profile(psi, [0.5, 0.9])
    with pytest.raises(ProfileFormatError, match="ascending"):
        hat_profile(psi, [0.5, 0.5, 1.0])
    with pytest.raises(ProfileFormatError, match="nonempty"):
        hat_profile(psi, [])
    for grid in ([0.5, np.nan, 1.0], [np.nan, 1.0], [np.nan, np.nan, 1.0]):
        with pytest.raises(ProfileFormatError, match="ascending"):
            hat_profile(psi, grid)


def test_hat_profile_csv_round_trip():
    table = hat_profile(PowerProfile(2.0), np.linspace(0.1, 1.0, 10))
    back = load_profile_csv(__import__("io").StringIO(profile_to_csv_text(table)))
    assert np.array_equal(back.breaks, table.breaks)
    assert np.array_equal(back.values, table.values)


def test_lipschitzized_profile_view():
    hat = LipschitzizedProfile(PowerProfile(2.0))
    assert hat.value(0.5) == pytest.approx(R_GOLDEN, abs=1e-12)
    assert hat.lipschitz_constant == 2.0
    assert hat.value_at_1 == 1.0
    grid = np.linspace(0.1, 1.0, 7)
    assert np.array_equal(hat.value(grid), hat_values(PowerProfile(2.0), grid))
    assert hat.doubling_constant == 4.0


@pytest.mark.parametrize("source", [PowerProfile(2.0, 0.25), TWO_STEP,
                                    CuspProfile.scaled(TWO_STEP, 0.5)],
                         ids=["power", "two-step", "scaled"])
def test_lipschitzized_value_at_1_needs_no_solve(source, monkeypatch):
    hat = LipschitzizedProfile(source)
    at_end = hat.value(1.0)

    def no_solve(*args, **kwargs):
        raise AssertionError("psi(1) of the hat profile ran a boundary-pair solve")

    monkeypatch.setattr(lipschitzify, "_solve_bisect", no_solve)
    assert hat.value_at_1 == at_end  # bitwise: the view's endpoint convention
    assert hat.lipschitz_constant == 1.0 + at_end


@pytest.mark.parametrize("source", [TWO_STEP], ids=["step"])
def test_lipschitzized_derivative_matches_oracle(source):
    hat = reprofile(source)
    t = np.geomspace(1e-4, 0.99, 60)
    # the step source's re-profiling kinks where jumps and flats meet:
    # t_hat = 0.1/1.2 (end of the t -> 0 jump), 0.6/1.2 and 0.7/1.2
    t = t[np.min(np.abs(t[:, None] - np.array([1.0, 6.0, 7.0]) / 12.0), axis=1) > 1e-4]
    num = central_difference(lambda z: hat.value(z[..., 0]), t[:, None],
                             h=1e-6)[:, 0]
    assert np.max(np.abs(hat.derivative(t) - num)) <= 1e-8


def test_lipschitzized_derivative_closed_forms():
    for psi in ORACLE_TABLES.values():
        c = 1.0 + psi.value_at_1
        hat = reprofile(psi)
        assert hat.lipschitz_constant == c  # bitwise
        assert hat.breakpoints().size == 0 and hat.value_at_1 == psi.value_at_1
        # the t -> 0 jump and each jump between rows climb at exactly 1 + psi(1), where
        # a float lies between its vertices; each row is flat, at the row's value
        lo, hi = hat.vertices[:-1:2], hat.vertices[1::2]
        mid = 0.5 * (lo + hi)
        assert np.all(hat.derivative(mid[(lo < mid) & (mid < hi)]) == c)
        flats = 0.5 * (hat.vertices[1::2] + hat.vertices[2::2])
        assert np.all(hat.derivative(flats) == 0.0)
        assert np.array_equal(hat.value(flats), psi.values)


_RUNS = np.repeat(np.geomspace(1e-5, 1.0, 40), 25)  # a quadrature-like t column
PER_PAIR_INPUTS = {
    "sorted": _RUNS,
    "shuffled": np.random.default_rng(8).permutation(_RUNS),
    "all-equal": np.full(50, 0.3),
    "single-point": np.array([0.7]),
    "scalar": np.float64(0.45),
    "empty": np.array([]),
    "2-d": _RUNS.reshape(25, 40),  # runs cross the rows
}


@pytest.mark.parametrize("source", [PowerProfile(2.0), TWO_STEP], ids=["power", "step"])
@pytest.mark.parametrize("case", sorted(PER_PAIR_INPUTS))
def test_per_pair_run_collapse_matches_unique(source, case):
    # every abscissa is solved where it stands, repeats included, with no run
    # collapse: each value is bitwise that of its abscissa solved alone
    hat, t = LipschitzizedProfile(source), PER_PAIR_INPUTS[case]
    alone = {x: hat.value(np.array([x])) for x in np.unique(t)}
    value = hat.value(t)
    assert np.shape(value) == np.shape(t)
    want = np.array([alone[x][0] for x in np.reshape(t, -1)]).reshape(np.shape(t))
    assert np.array_equal(value, want)


def test_quotient_hypothesis():
    grid = np.geomspace(1e-3, 1.0, 50)
    assert quotient_hypothesis_holds(PowerProfile(2.0), grid)
    assert not quotient_hypothesis_holds(TWO_STEP, grid)


def test_monotone_quotient():
    grid = np.geomspace(1e-4, 1.0, 100)
    assert verify_monotone_quotient(PowerProfile(2.0), grid).ok
    assert verify_monotone_quotient(LinearProfile(0.25), grid).ok
    # constant profile: psi(t)/t decreases, and the transfer fails with it
    flat = StepProfile([1.0], [0.2])
    res = verify_monotone_quotient(flat, grid)
    assert not res.ok
    assert res.violation is not None


def test_doubling_transfer():
    grid = np.geomspace(1e-5, 0.2, 60)
    res = verify_doubling_transfer(PowerProfile(2.0), grid)
    assert res.ok and res.bound == 4.0 and res.max_ratio <= 4.0 + 1e-9
    res = verify_doubling_transfer(LinearProfile(0.25), grid)
    assert res.ok and res.max_ratio == pytest.approx(2.0, abs=1e-9)
    res = verify_doubling_transfer(TWO_STEP, grid)
    assert res.ok and res.bound == 2.0
    # a one-row table's rows give C = 1, so the bound is 2
    res = verify_doubling_transfer(StepProfile([1.0], [0.2]), grid)
    assert res.ok and res.bound == 2.0


def test_doubling_transfer_holds_with_the_rows_constant():
    # the bound max(2, C) with C read off the table's own rows, on random tables
    grid = np.geomspace(1e-6, 0.5, 200)
    rng = np.random.default_rng(11)
    for _ in range(40):
        breaks = np.unique(np.append(rng.uniform(0.01, 0.99, rng.integers(0, 12)), 1.0))
        table = StepProfile(breaks, np.sort(rng.uniform(1e-3, 1.0, breaks.size)))
        res = verify_doubling_transfer(table, grid)
        assert res.ok and res.bound == max(2.0, table.doubling_constant), (table.breaks, res)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_doubling_transfer_rejects_non_finite_grid(bad, where):
    # the range filter would drop these and judge the rest
    grid = [0.1, 0.2]
    grid.insert(where, bad)
    with pytest.raises(ProfileDomainError, match="not finite"):
        verify_doubling_transfer(PowerProfile(2.0), grid)


def right_limit(psi, t):
    """lim_{s->t+} psi(s), psi(1) at t = 1: the next row of a step table, else psi(t)."""
    if isinstance(psi, StepProfile):
        i = min(int(np.searchsorted(psi.breaks, t, side="right")), psi.breaks.size - 1)
        return float(psi.values[i])
    return float(psi.value(t))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-4, max_value=1.0),
       st.sampled_from([PowerProfile(2.0), PowerProfile(1.5), PowerProfile(4.0),
                        LinearProfile(0.7), TWO_STEP]))
def test_hat_pair_identity_property(t_hat, psi):
    tol = 1e-12
    t, r, _ = hat_pair(psi, t_hat)
    target = (1.0 + psi.value_at_1) * t_hat
    assert abs(t + r - target) <= tol
    lo = float(psi.value(t)) if t > 0.0 else 0.0
    hi = right_limit(psi, min(max(t, 1e-12), 1.0))
    assert lo - tol <= r <= hi + tol

