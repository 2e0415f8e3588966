import re

import numpy as np
import pytest
from helpers import CSV_TABLE, csv_round_trip, load_csv_text, mask_check_t
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspext.errors import ProfileDomainError, ProfileFormatError
from cuspext.geometry import DomainSpec
from cuspext.profiles import (
    CuspProfile,
    LinearProfile,
    PowerProfile,
    StepProfile,
    _check_t,
    load_profile_csv,
    make_profile,
    save_profile_csv,
)


def test_power_eval():
    assert PowerProfile(2.0).value(0.5) == 0.25


def test_step_sides():
    step = StepProfile([0.5, 1.0], [0.1, 0.2])
    assert step.value(0.5) == 0.1
    assert step.value(0.3) == 0.1
    assert step.value(0.7) == 0.2


def test_step_left_continuity_at_breakpoints():
    step = StepProfile([0.25, 0.6, 1.0], [0.05, 0.1, 0.3])
    for b in (0.25, 0.6, 1.0):
        assert step.value(b) == step.value(b - 1e-12)


def test_domain_errors():
    psi = PowerProfile(2.0)
    for t in (0.0, -0.5, 1.0 + 1e-9):
        with pytest.raises(ProfileDomainError):
            psi.value(t)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_arguments_rejected(t):
    step = StepProfile([0.5, 1.0], [0.1, 0.2])
    # CuspProfile.scaled gives the generic lazy view, not a StepProfile
    for psi in (PowerProfile(2.0), LinearProfile(0.5), step, CuspProfile.scaled(step, 0.5)):
        with pytest.raises(ProfileDomainError):
            psi.value(t)
        with pytest.raises(ProfileDomainError):
            psi.value(np.array([0.5, t]))


CHECK_T_INPUTS = {
    "nan-first": [np.nan, 0.5, 0.7],
    "nan-middle": [0.5, np.nan, 0.7],
    "nan-last": [0.5, 0.7, np.nan],
    "zero": [0.5, 0.0],
    "negative-zero": [0.3, -0.0, 0.9],
    "inf": [0.5, np.inf],
    "-inf": [-np.inf, 0.5],
    "just-above-1-accepted": [0.5, 1.0 + 1e-15],
    "above-1": [0.5, 1.0 + 3e-15],
    "bad-after-bad": [0.5, 2.0, -1.0, np.nan],
    "inside": np.geomspace(1e-300, 1.0, 9),
    "0-d": 0.5,
    "0-d-nan": np.nan,
    "0-d-zero": 0.0,
    "0-d-above": 1.5,
    "empty": np.empty(0),
    "2-d": np.linspace(0.1, 1.0, 6).reshape(2, 3),
    "2-d-bad": [[0.5, 0.6], [1.5, 0.0]],
}


@pytest.mark.parametrize("t", list(CHECK_T_INPUTS.values()), ids=list(CHECK_T_INPUTS))
def test_check_t_parity_with_mask_check(t):
    # the two reductions reject exactly what the full mask rejects, and
    # the mask still names the first bad value
    try:
        want = mask_check_t(t)
    except ProfileDomainError as err:
        with pytest.raises(ProfileDomainError) as got:
            _check_t(t)
        assert str(got.value) == str(err)
        return
    got = _check_t(t)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_check_t_edges():
    assert _check_t([0.5, 1.0 + 1e-15])[1] == 1.0 + 1e-15
    with pytest.raises(ProfileDomainError, match=re.escape(repr(1.0 + 3e-15))):
        _check_t([0.5, 1.0 + 3e-15])
    with pytest.raises(ProfileDomainError, match=re.escape("-0.0")):
        _check_t([0.3, -0.0])


EVERY_KIND = {"power": PowerProfile(2.7, 0.6), "linear": LinearProfile(0.3),
              "step": StepProfile([0.25, 0.5, 1.0], [0.05, 0.1, 0.2]),
              "tabulated": StepProfile([0.5, 1.0], [0.1, 0.2], kind="tabulated"),
              "scaled": CuspProfile.scaled(StepProfile([0.5, 1.0], [0.1, 0.2]), 0.5)}


@pytest.mark.parametrize("psi", list(EVERY_KIND.values()), ids=list(EVERY_KIND))
def test_value_is_the_checked_eval(psi):
    # value checks t and then reads the kind's formula, _eval, bit for bit
    for t in (np.geomspace(1e-300, 1.0, 41), np.linspace(0.01, 1.0, 12).reshape(3, 4),
              np.array([0.25, 0.5, 1.0, 1.0 + 1e-15])):
        assert np.asarray(psi.value(t)).tobytes() == np.asarray(psi._eval(t)).tobytes()
    for bad in (0.0, -1.0, 1.0 + 1e-14, np.nan):
        with pytest.raises(ProfileDomainError):
            psi.value(bad)
        with pytest.raises(ProfileDomainError):
            psi.value(np.array([0.5, bad]))


def test_constructor_validation():
    with pytest.raises(ProfileFormatError):
        PowerProfile(1.0)  # exponent must exceed 1
    assert PowerProfile(1023.0).doubling_constant == 2.0 ** 1023  # finite below 1024
    with pytest.raises(ProfileFormatError):
        PowerProfile(2.0, coeff=0.0)
    with pytest.raises(ProfileFormatError):
        LinearProfile(-1.0)
    with pytest.raises(ProfileFormatError, match="row 1"):
        StepProfile([0.5, 1.0], [0.2, 0.1])  # decreasing
    with pytest.raises(ProfileFormatError, match="row 1"):
        StepProfile([0.5, 0.4], [0.1, 0.2])  # unsorted
    with pytest.raises(ProfileFormatError, match="row 0"):
        StepProfile([0.5], [0.1])  # missing endpoint at 1
    with pytest.raises(ProfileFormatError, match="row 0"):
        StepProfile([0.5, 1.0], [0.0, 0.2])  # nonpositive


@pytest.mark.parametrize("build, key", [
    (lambda: PowerProfile(float("inf")), "exponent"),
    (lambda: PowerProfile(1024.0), "exponent"),  # 2**exponent overflows
    (lambda: PowerProfile(1e300), "exponent"),
    (lambda: PowerProfile(2.0, coeff=True), "coeff"),
    (lambda: PowerProfile(2.0, coeff=float("inf")), "coeff"),
    (lambda: LinearProfile(True), "slope"),
    (lambda: LinearProfile(float("nan")), "slope"),
], ids=["exponent-inf", "exponent-1024", "exponent-1e300", "coeff-bool", "coeff-inf",
        "slope-bool", "slope-nan"])
def test_analytic_profiles_reject_bool_and_non_finite(build, key):
    with pytest.raises(ProfileFormatError, match=f"^{key}: need a finite number"):
        build()


def test_scaled_exact():
    psi = PowerProfile(2.0, 1.0).scaled(0.25)
    assert psi.value(0.5) == 0.0625
    assert psi.lipschitz_constant == 0.5
    step = StepProfile([0.5, 1.0], [0.1, 0.2]).scaled(2.0)
    assert step.value(0.5) == 0.2
    assert step.lipschitz_constant is None  # a table is never Lipschitz, rescaled or not
    lin = LinearProfile(0.5).scaled(0.5)
    assert lin.value(1.0) == 0.25


def test_scaled_view_for_generic_profiles():
    base = PowerProfile(2.0)

    class Wrapper(type(base).__mro__[1]):  # CuspProfile
        kind = "wrapped"
        doubling_constant = base.doubling_constant

        def value(self, t):
            return base.value(t)

        def derivative(self, t):
            return base.derivative(t)

        @property
        def lipschitz_constant(self):
            return base.lipschitz_constant

    view = Wrapper().scaled(0.5)
    assert view.value(1.0) == 0.5
    assert view.scaled(0.5).value(1.0) == 0.25


def test_doubling_constants():
    assert PowerProfile(2.0).doubling_constant == 4.0
    assert PowerProfile(3.0).doubling_constant == 8.0
    assert LinearProfile(0.3).doubling_constant == 2.0


# dyadic breakpoints 2^-20 ... 1 under values 4^-20 ... 1, a staircase under t^2
STAIRCASE = StepProfile(2.0 ** -np.arange(20, -1, -1), 4.0 ** -np.arange(20, -1, -1))
# every piece of psi(2t) / psi(t) on the tables below holds at least one grid point
DOUBLING_GRID = np.geomspace(2.0 ** -22, 0.5, 4000)


def random_table(seed):
    """A table with breakpoints on the grid k / 64 and random nondecreasing values."""
    rng = np.random.default_rng(seed)
    breaks = np.append(np.sort(rng.choice(np.arange(1, 64), size=8, replace=False)) / 64.0, 1.0)
    return StepProfile(breaks, 1e-3 + np.cumsum(rng.uniform(0.0, 1.0, breaks.size) ** 3))


@pytest.mark.parametrize("psi, want", [
    (StepProfile([0.5, 1.0], [0.1, 0.2]), 2.0),
    (CSV_TABLE, 2.0),  # loaded from a file by the test
    (STAIRCASE, 4.0),
    (StepProfile([1.0], [0.2]), 1.0),
    (random_table(3), None),
    (random_table(4), None),
], ids=["two-step", "csv", "staircase", "one-row", "random-3", "random-4"])
def test_table_doubling_constant_is_the_sup_of_its_rows(psi, want, tmp_path):
    if isinstance(psi, str):
        psi = load_csv_text(psi, tmp_path)
    grid_sup = float(np.max(psi.value(2.0 * DOUBLING_GRID) / psi.value(DOUBLING_GRID)))
    assert psi.doubling_constant == grid_sup
    assert want is None or psi.doubling_constant == want
    # an upper bound off the grid too, and the same for a rescaled table
    t = np.random.default_rng(0).uniform(0.0, 0.5, 10_000) + 1e-12
    assert np.all(psi.value(2.0 * t) <= psi.doubling_constant * psi.value(t))
    assert psi.scaled(0.3).doubling_constant == pytest.approx(psi.doubling_constant, rel=1e-15)


def test_make_profile():
    assert make_profile("power", exponent=2.0, coeff=0.5).value(1.0) == 0.5
    assert make_profile("linear", slope=0.25).value(0.4) == 0.1
    step = make_profile("step", breakpoints=[0.5, 1.0], values=[0.1, 0.2])
    assert step.value(0.7) == 0.2
    with pytest.raises(ProfileFormatError):
        make_profile("spline")


@pytest.mark.parametrize("kind, params, message", [
    ("power", {"exponent": 2.0, "coef": 0.25}, "coef: unknown key; did you mean 'coeff'?"),
    ("linear", {"slope": 0.25, "exponent": 2.0}, "exponent: unknown key; known keys: slope"),
    ("step", {"breakpoints": [1.0], "values": [0.1], "doubling_const": 2.0},
     "doubling_const: unknown key; did you mean 'doubling_constant'?"),
    ("power", {"coeff": 0.25}, "kind 'power' needs exponent"),
    ("step", {"breakpoints": [1.0], "values": [0.1], "doubling_constant": "abc"},
     "doubling_constant: need a finite number > 0, got 'abc'"),
    ("tabulated", {"breakpoints": [1.0], "values": [0.1], "lipschitz_constant": 1.2},
     "lipschitz_constant: unknown key; known keys: breakpoints, values, doubling_constant"),
])
def test_make_profile_rejects_bad_keys(kind, params, message):
    with pytest.raises(ProfileFormatError, match=re.escape(message)):
        make_profile(kind, **params)


def test_csv_round_trip(tmp_path):
    step = StepProfile([0.25, 0.5, 1.0], [0.0625, 0.125, 0.25], kind="tabulated")
    back = csv_round_trip(step, tmp_path)
    assert np.array_equal(back.breaks, step.breaks)
    assert np.array_equal(back.values, step.values)


def test_csv_loader_row_errors(tmp_path):
    with pytest.raises(ProfileFormatError, match="row 1"):
        load_csv_text("0.5,0.2\n1.0,0.1\n", tmp_path)
    with pytest.raises(ProfileFormatError, match="row 1"):
        load_csv_text("breakpoint,value\n0.5,0.1\n1.0,abc\n", tmp_path)
    with pytest.raises(ProfileFormatError, match="row 0"):
        load_csv_text("breakpoint,value\n", tmp_path)
    with pytest.raises(ProfileFormatError, match="row 1: value inf not finite"):
        load_csv_text("0.5,0.1\n1.0,inf\n", tmp_path)
    with pytest.raises(ProfileFormatError, match="two columns"):
        load_csv_text("0.5\n", tmp_path)


def test_csv_file_round_trip(tmp_path):
    step = StepProfile([0.5, 1.0], [0.1, 0.2])
    path = tmp_path / "profile.csv"
    save_profile_csv(step, path)
    back = load_profile_csv(path)
    assert np.array_equal(back.breaks, step.breaks)
    assert np.array_equal(back.values, step.values)


@st.composite
def step_profiles(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    breaks = sorted(draw(st.lists(
        st.floats(min_value=0.01, max_value=0.99), min_size=k, max_size=k,
        unique=True)))
    breaks.append(1.0)
    values = np.cumsum(draw(st.lists(
        st.floats(min_value=1e-3, max_value=1.0), min_size=k + 1, max_size=k + 1)))
    return StepProfile(breaks, values)


@settings(max_examples=50, deadline=None)
@given(step_profiles())
def test_profile_invariants_random(step):
    grid = np.linspace(1e-6, 1.0, 64)
    vals = step.value(grid)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) >= 0.0)


@pytest.mark.parametrize("psi", [PowerProfile(2.0, 0.25), LinearProfile(0.3),
                                 StepProfile([0.5, 1.0], [0.1, 0.2]),
                                 CuspProfile.scaled(StepProfile([0.5, 1.0], [0.1, 0.2]), 0.5)],
                         ids=["power", "linear", "step", "scaled"])
def test_psi1_is_read_once_per_profile(psi, monkeypatch):
    spec = DomainSpec(3, psi)
    direct = float(psi.value(1.0))
    first = spec.psi1

    def refuse(t):
        raise AssertionError("psi(1) was read from the profile again")

    monkeypatch.setattr(psi, "value", refuse)
    again = spec.psi1
    assert np.float64(again).tobytes() == np.float64(first).tobytes() \
        == np.float64(direct).tobytes()
    assert spec.normalized == (2.0 * direct < 1.0)
