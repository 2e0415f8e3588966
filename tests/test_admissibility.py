import math

import numpy as np
import pytest
from helpers import (
    DYADIC_STAIRCASE,
    inverted_power_cusp_admissible,
    mechanism_frontiers,
    solved_monotone_quotient,
    spelled_out_admissible_pq,
)

from cuspext import admissibility, lipschitzify
from cuspext.admissibility import (
    CONVERGENT,
    DIVERGENT,
    INCONCLUSIVE,
    MECHANISM_BOUNDS,
    TAIL_LEVELS,
    check_inc1,
    check_inc2,
    frontier_from_sweep,
    in_limit_region,
    limit_p_min,
    power_cusp_admissible,
    sweep_power_cusp,
    thresholds,
)
from cuspext.geometry import gauss_rule
from cuspext.lipschitzify import LipschitzizedProfile, reprofile
from cuspext.profiles import PowerProfile, StepProfile


def test_inc1_convergent_oracle():
    # integrand reduces to t^0.5; the full integral is exactly 2/3
    res = check_inc1(PowerProfile(1.5), 2.0, 3)
    assert res.classification == CONVERGENT
    assert res.partial_sum == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_inc1_divergent_and_self_edge():
    assert check_inc1(PowerProfile(2.0), 2.0, 3).classification == DIVERGENT
    assert check_inc1(PowerProfile(2.0), 1.5, 3).classification == DIVERGENT  # panels grow
    for s in (1.5, 2.0, 3.0):
        assert check_inc1(PowerProfile(s), s, 3).classification == DIVERGENT


def test_inc1_validation():
    with pytest.raises(ValueError):
        check_inc1(PowerProfile(2.0), 1.0, 3)
    with pytest.raises(ValueError):
        check_inc1(PowerProfile(2.0), 2.0, 1)


def test_inc2_log_weight_oracle():
    # psi = t^2, s = 2, n = 3, p = 4: weight exponent is exactly 2 and the
    # tail integral over (0, 1/2] is 1/log 2; sixty dyadic panels reach
    # down to 2^-61, so the computed partial misses exactly 1/(61 log 2)
    res = check_inc2(PowerProfile(2.0), 2.0, 3, 4.0)
    assert res.classification == CONVERGENT
    want_partial = 60.0 / (61.0 * math.log(2.0))
    assert res.partial_sum == pytest.approx(want_partial, abs=1e-9)
    assert res.partial_sum + 1.0 / (61.0 * math.log(2.0)) == pytest.approx(
        1.0 / math.log(2.0), abs=1e-9)


def test_inc2_divergent():
    res = check_inc2(PowerProfile(2.5), 2.0, 3, 4.0)
    assert res.classification == DIVERGENT


def test_inc2_parameter_errors():
    with pytest.raises(ValueError, match="exceed n-1"):
        check_inc2(PowerProfile(2.0), 2.0, 3, 2.0)
    with pytest.raises(ValueError):
        check_inc2(PowerProfile(2.0), 2.0, 3, 1.0)


@pytest.mark.filterwarnings("error")
def test_reprofiled_power_cusp_keeps_every_tail_class():
    # the re-profiling hat_psi is comparable to psi, so each tail class of
    # psi = 0.25 t^sigma reads the same on hat_psi, down to the 2^-60 panels
    # where a hat value that cancelled to 0.0 made the integrand infinite
    for sigma in (1.5, 2.0, 3.0, 5.0):
        psi = PowerProfile(sigma, 0.25)
        hat = LipschitzizedProfile(psi)
        for s in (sigma - 0.25, sigma + 0.25, sigma + 1.0):
            assert (check_inc1(hat, s, 3).classification
                    == check_inc1(psi, s, 3).classification), (sigma, s)
        assert (check_inc2(hat, sigma, 3, 4.0).classification
                == check_inc2(psi, sigma, 3, 4.0).classification), sigma


@pytest.mark.filterwarnings("error")
def test_reprofiled_staircase_keeps_every_tail_class():
    # the staircase's hat holds each row's value on the row's flat piece,
    # 0.25 * 4^-60 at t_hat = 2^-61 where target - t read 0.0, so psi and
    # hat_psi read the same tail classes
    psi = DYADIC_STAIRCASE
    hat = reprofile(psi)
    assert hat.value(2.0 ** -61) == 0.25 * 4.0 ** -60
    for s in (1.5, 2.0, 2.5, 3.0, 4.0):
        assert (check_inc1(hat, s, 3).classification
                == check_inc1(psi, s, 3).classification), s
        assert (check_inc2(hat, s, 3, 4.0).classification
                == check_inc2(psi, s, 3, 4.0).classification), s


class NanTip(PowerProfile):
    def value(self, t):
        return np.where(np.asarray(t) < 1e-3, np.nan, super().value(t))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("check, args, value", [
    (check_inc1, (PowerProfile(20.0, 0.25), 21.0, 3), "0.0"),  # integrand 4^0.15 t^-0.85
    (check_inc2, (PowerProfile(18.0), 18.0, 3, 4.0), "0.0"),  # sigma = 18 of a p = 4 sweep
    (check_inc1, (NanTip(2.0), 3.0, 3), "nan"),
], ids=["inc1", "inc2", "inc1-nan"])
def test_tail_check_raises_where_the_profile_is_not_positive(check, args, value):
    # deep in the tail the profile reads 0 (0.25 t^20 below t = 2^-53.7, t^18 below
    # t = 2^-59.7), and 0 / 0 is no tail class
    with pytest.raises(FloatingPointError, match=f"profile value {value} at t = "):
        check(*args)


def test_inc_checks_step_profile():
    step = StepProfile([0.5, 1.0], [0.1, 0.2])
    # constant-floor profiles kill the integrand: strongly convergent
    assert check_inc1(step, 2.0, 3).classification == CONVERGENT


def test_admissible_pq_examples():
    # E1 bound: n p / (1 + (n-1)s) = 15/5 = 3, so q = 3 rides E1
    mechanisms, values = spelled_out_admissible_pq(3, 2.0, 5.0, 3.0)
    assert "E1" in mechanisms
    assert values["e1_q_max"] == pytest.approx(3.0)
    # limit case: (n-1)q/(n-1-q) = 2 <= p
    assert "LimitCase" in spelled_out_admissible_pq(3, 2.0, 2.0, 1.0)[0]
    # nothing applies at p = q = 1
    assert spelled_out_admissible_pq(3, 2.0, 1.0, 1.0)[0] == ()


def test_limit_case_is_s_independent():
    for s in (1.1, 2.0, 5.0, 50.0):
        assert "LimitCase" in spelled_out_admissible_pq(3, s, 2.0, 1.0)[0]


def test_q_monotonicity():
    # enlarging q never turns an inadmissible verdict admissible
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(3, 6))
        s = float(rng.uniform(1.05, 4.0))
        p = float(rng.uniform(1.0, 8.0))
        q2 = float(rng.uniform(1.0, p))
        q1 = float(rng.uniform(1.0, q2))
        m1 = set(spelled_out_admissible_pq(n, s, p, q1)[0])
        m2 = set(spelled_out_admissible_pq(n, s, p, q2)[0])
        assert m2 <= m1


def test_thresholds_examples():
    thr = thresholds(3, 4.0, 2.0)
    assert thr.s1 == pytest.approx(2.5) and thr.s2 is None
    thr = thresholds(3, 1.5, 1.0)
    assert thr.s2 == pytest.approx(4.0) and thr.s1 is None
    with pytest.raises(ValueError, match="no finite threshold"):
        thresholds(3, 2.0, 1.0)
    with pytest.raises(ValueError):
        thresholds(3, 1.0, 2.0)
    with pytest.raises(ValueError):
        thresholds(3, 5.0, 2.5)


def test_power_cusp_frontier_q_eq_nminus1():
    sigmas = np.round(np.arange(1.1, 4.01, 0.1), 12)
    rows = sweep_power_cusp(3, 4.0, 2.0, sigmas)
    frontier = frontier_from_sweep(rows)
    assert frontier == pytest.approx(2.5, abs=1e-12)
    # admissibility is monotone along the sweep: no gaps
    flags = [r["admissible"] for r in rows]
    assert flags == sorted(flags, reverse=True)


def test_power_cusp_frontier_q_below():
    sigmas = np.round(np.arange(1.1, 6.01, 0.1), 12)
    rows = sweep_power_cusp(3, 1.5, 1.0, sigmas)
    frontier = frontier_from_sweep(rows)
    # strict threshold: the last admissible grid point sits one step below
    assert abs(frontier - 4.0) <= 0.1 + 1e-9


def test_power_cusp_limit_case_always_admissible():
    for sigma in (1.5, 3.0, 10.0, 40.0):
        ok, mechanisms = power_cusp_admissible(3, sigma, 2.0, 1.0)
        assert ok and "LimitCase" in mechanisms


def test_power_cusp_e2_closed_form_vs_scan():
    # brute-force the exists-s optimization and compare with the closed form
    def e2_feasible_scan(n, sigma, p, q):
        for s in np.linspace(sigma + 1e-6, 60.0, 40_000):
            p_min = (1.0 + (n - 1) * s) / (2.0 + (n - 2) * s)
            q_max = (1.0 + (n - 1) * s) * p / (1.0 + (n - 1) * s + (s - 1.0) * p)
            if p_min <= p and q <= q_max:
                return True
        return False

    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(3, 5))
        q = float(rng.uniform(1.0, n - 1 - 0.1))
        p = float(rng.uniform(q, (n - 1) * q / (n - 1 - q) - 1e-3))
        sigma = float(rng.uniform(1.05, 8.0))
        _, mechanisms = power_cusp_admissible(n, sigma, p, q)
        assert ("E2" in mechanisms) == e2_feasible_scan(n, sigma, p, q), \
            (n, sigma, p, q)


def test_sweep_rows_carry_numeric_columns():
    rows = sweep_power_cusp(3, 4.0, 2.0, [2.0, 3.0])
    assert rows[0]["inc1_self"] == DIVERGENT
    assert rows[0]["inc2_self"] == CONVERGENT
    assert rows[0]["s1"] == pytest.approx(2.5)
    assert rows[0]["admissible"] and not rows[1]["admissible"]


def test_threshold_consistency_fine_grid():
    # along the q = n-1 line the admissibility boundary must match the
    # closed-form threshold at 0.01 resolution; the log-weighted self-check
    # stays convergent throughout (its weight exponent exceeds 1), so the
    # boundary is carried by the mechanism's p-bound alone
    n, p, q = 3, 4.0, 2.0
    s1 = thresholds(n, p, q).s1
    for s in np.round(np.arange(2.3, 2.71, 0.01), 12):
        assert check_inc2(PowerProfile(float(s)), float(s), n, p).classification \
            == CONVERGENT
        e3 = "E3" in spelled_out_admissible_pq(n, float(s), p, q)[0]
        if s <= s1 - 0.01:
            assert e3, s
        elif s >= s1 + 0.01:
            assert not e3, s


def test_oracle_agreement_small_grid():
    # numeric classification of the tip criterion against the closed rule
    grid = np.round(np.linspace(1.3, 2.7, 6), 12)
    for s in grid:
        for sp in grid:
            got = check_inc1(PowerProfile(float(sp)), float(s), 3).classification
            if sp < s:
                assert got == CONVERGENT
            elif sp > s:
                assert got == DIVERGENT
            else:
                assert got in (DIVERGENT, INCONCLUSIVE)


def _looped_panels(f, first, levels, breaks):
    """Oracle: one Gauss integral per dyadic panel, one call of f per piece."""
    xi, wt = np.polynomial.legendre.leggauss(16)
    panels = []
    for k in range(first, first + levels):
        a, b = 2.0 ** -(k + 1), 2.0 ** -k
        edges = np.array([a, b])
        inner = breaks[(breaks > a) & (breaks < b)]
        if inner.size:
            edges = np.union1d(edges, inner)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, hal = 0.5 * (lo + hi), 0.5 * (hi - lo)
            with np.errstate(over="ignore", under="ignore", divide="ignore"):
                vals = f(mid + hal * xi)
            total += hal * float(np.sum(wt * vals))
        panels.append(total)
    return np.array(panels)


@pytest.mark.parametrize("breaks", [
    # 2^-5 is a panel edge; 0.3 and 0.7 split the panels they fall in
    [2.0 ** -5, 0.3, 0.7, 1.0],
    # five pieces in [1/4, 1/2], so the order of their sum shows
    [0.26, 0.3, 0.33, 0.41, 0.7, 1.0],
], ids=["edge-and-inner", "many-pieces"])
@pytest.mark.parametrize("check, args", [
    (check_inc1, (1.5, 3)), (check_inc1, (3.0, 4)),
    (check_inc2, (2.0, 3, 4.0)), (check_inc2, (2.5, 4, 5.0)),
], ids=["inc1-s1.5", "inc1-s3", "inc2-s2", "inc2-s2.5"])
def test_vectorised_panels_equal_per_panel_loop(monkeypatch, check, args, breaks):
    psi = StepProfile(breaks, np.geomspace(0.01, 0.4, len(breaks)))
    vectorised = admissibility._panel_integrals
    pairs = []

    def looped(f, first, breaks):
        pairs.append((vectorised(f, first, breaks),
                      _looped_panels(f, first, TAIL_LEVELS, breaks)))
        return pairs[-1][1]

    monkeypatch.setattr(admissibility, "_panel_integrals", looped)
    want = check(psi, *args)
    monkeypatch.setattr(admissibility, "_panel_integrals", vectorised)
    assert check(psi, *args) == want  # every TailCheck field, exactly
    [(got_panels, want_panels)] = pairs
    assert np.array_equal(got_panels, want_panels)


def test_sweep_solves_every_hypothesis_row_in_one_stacked_solve(monkeypatch):
    # one boundary-pair solve for the whole sweep, not one per row, and each
    # row's hypothesis_ok that of the one-profile check on the sweep's grid
    real, solves = lipschitzify._solve_bisect, []

    def counted(psis, t_hats, psi1s):
        solves.append(len(psis))
        return real(psis, t_hats, psi1s)

    monkeypatch.setattr(lipschitzify, "_solve_bisect", counted)
    rows = sweep_power_cusp(3, 4.0, 2.0, np.arange(1.1, 4.05, 0.1))
    assert solves == [len(rows)] == [30]
    monkeypatch.undo()
    grid = np.geomspace(1e-4, 1.0, 24)
    assert {2.0, 2.5} <= {row["sigma"] for row in rows}
    assert [row["hypothesis_ok"] for row in rows] == [
        solved_monotone_quotient(PowerProfile(row["sigma"]), grid).ok for row in rows]


def test_sweep_builds_the_gauss_rule_once(monkeypatch):
    legendre = np.polynomial.legendre
    real, calls = legendre.leggauss, []
    monkeypatch.setattr(legendre, "leggauss", lambda deg: calls.append(deg) or real(deg))
    gauss_rule.cache_clear()
    sweep_power_cusp(3, 4.0, 2.0, np.arange(1.1, 4.05, 0.1))
    assert len(calls) <= 1
    xi, wt = gauss_rule(16)
    assert not (xi.flags.writeable or wt.flags.writeable)


# -- the bound table against the inequalities written out per caller ---------

def _random_inputs(rng, count, p_max=12.0):
    """(n, s, p, q) with 3 <= n <= 6, 1 < s < 12 and 1 <= q <= p < p_max."""
    for _ in range(count):
        n = int(rng.integers(3, 7))
        p = float(rng.uniform(1.0, p_max))
        yield n, float(rng.uniform(1.001, 12.0)), p, float(rng.uniform(1.0, p))


def _decimal_inputs():
    """(n, s, p, q) on decimal grids, where the frontiers fall on exact decimals."""
    grid = np.round(np.arange(1.0, 8.001, 0.5), 12)
    for n in (3, 4, 5):
        for p in grid:
            for q in grid[grid <= p]:
                for s in np.round(np.arange(1.1, 8.01, 0.3), 12):
                    yield n, float(s), float(p), float(q)


def test_admissible_pq_matches_spelled_out_bitwise():
    # the bound table read at s with every bound closed, against the same
    # inequalities written out
    rng = np.random.default_rng(17)
    inputs = [*_random_inputs(rng, 20_000), *_decimal_inputs()]
    for n, s, p, q in inputs:
        bounds = {name: bound(n, s, p) for name, bound in MECHANISM_BOUNDS.items()}
        closed = [name for name, (p_min, q_max) in bounds.items() if p_min <= p and q <= q_max]
        closed += ["LimitCase"] if in_limit_region(n, p, q) else []
        (e1_p_min, e1_q_max), (e2_p_min, e2_q_max), (e3_p_min, _) = bounds.values()
        mechanisms, values = spelled_out_admissible_pq(n, s, p, q)
        assert tuple(closed) == mechanisms, (n, s, p, q)
        assert [float(v).hex() for v in (e1_p_min, e1_q_max, e2_p_min, e2_q_max, e3_p_min,
                                          limit_p_min(n, q))] == \
            [float(v).hex() for v in values.values()], (n, s, p, q)


# (n, p, q) of every repo sweep: the tip-sweep workload, the CLI and
# acceptance tests, and the configs scripts/artifact_diff.sh adds
REPO_SWEEPS = [(3, 4.0, 2.0), (3, 1.5, 1.0), (3, 2.0, 1.0), (4, 6.0, 3.0), (4, 6.0, 2.0),
               (3, 5.0, 2.0), (3, 4.0, 1.0)]


@pytest.mark.parametrize("n, p, q", REPO_SWEEPS, ids=str)
def test_power_cusp_verdicts_unchanged_on_repo_sweep_grids(n, p, q):
    # every sigma grid the CLI builds from a start in {1.01, 1.05, 1.1, 1.5}
    # and a step of 0.1, 0.05 or 0.01, up to sigma = 12
    for step in (0.1, 0.05, 0.01):
        for start in (1.01, 1.05, 1.1, 1.5):
            count = int(round((12.0 - start) / step)) + 1
            for sigma in np.round(np.linspace(start, start + step * (count - 1), count), 12):
                assert power_cusp_admissible(n, float(sigma), p, q) == \
                    inverted_power_cusp_admissible(n, float(sigma), p, q), (sigma, step)


def _off_tie(n, sigma, p, q, rel=1e-9):
    return all(abs(sigma - f) > rel * abs(f) for f in mechanism_frontiers(n, p, q))


def test_power_cusp_matches_inverted_caps_off_ties():
    rng = np.random.default_rng(23)
    checked = 0
    for n, sigma, p, q in _random_inputs(rng, 20_000):
        if _off_tie(n, sigma, p, q):
            checked += 1
            assert power_cusp_admissible(n, sigma, p, q) == \
                inverted_power_cusp_admissible(n, sigma, p, q), (n, sigma, p, q)
    assert checked > 19_000


def test_power_cusp_is_the_exists_s_scan():
    # E1 and E2 need some s > sigma, E3 holds at s = sigma itself, and the
    # limit case does not depend on s
    rng = np.random.default_rng(29)
    offsets = np.geomspace(1e-10, 50.0, 120)
    for n, sigma, p, q in _random_inputs(rng, 600):
        if not _off_tie(n, sigma, p, q):
            continue
        above = [set(spelled_out_admissible_pq(n, float(s), p, q)[0])
                 for s in sigma * (1.0 + offsets)]
        at = set(spelled_out_admissible_pq(n, sigma, p, q)[0])
        _, mechanisms = power_cusp_admissible(n, sigma, p, q)
        for name in ("E1", "E2"):
            assert (name in mechanisms) == any(name in m for m in above), (name, n, sigma, p, q)
        assert ("E3" in mechanisms) == ("E3" in at), (n, sigma, p, q)
        for m in [at, *above]:
            assert ("LimitCase" in mechanisms) == ("LimitCase" in m), (n, sigma, p, q)


def test_exact_frontier_where_e1_e2_e3_meet():
    # (3, 4, 2): s_q1 = s_q2 = s1 = 2.5 exactly
    assert spelled_out_admissible_pq(3, 2.5, 4.0, 2.0)[0] == ("E1", "E2", "E3")
    assert power_cusp_admissible(3, 2.5, 4.0, 2.0) == (True, ("E3",))
    assert power_cusp_admissible(3, 2.5 - 1e-9, 4.0, 2.0) == (True, ("E1", "E2", "E3"))
    assert power_cusp_admissible(3, 2.5 + 1e-9, 4.0, 2.0) == (False, ())


def test_exact_frontier_s2():
    # (3, 1.5, 1): E2's q_max falls to q = 1 exactly at s2 = 4
    assert thresholds(3, 1.5, 1.0).s2 == 4.0
    assert MECHANISM_BOUNDS["E2"](3, 4.0, 1.5)[1] == 1.0
    assert spelled_out_admissible_pq(3, 4.0, 1.5, 1.0)[0] == ("E2",)
    assert power_cusp_admissible(3, 4.0, 1.5, 1.0) == (False, ())
    assert power_cusp_admissible(3, 4.0 - 1e-9, 1.5, 1.0) == (True, ("E2",))


def test_exact_limit_case_boundary():
    # (n, q) = (3, 1): the limit case starts at p = (n-1)q/(n-1-q) = 2
    assert limit_p_min(3, 1.0) == 2.0
    assert limit_p_min(3, 2.0) == math.inf
    below = float(np.nextafter(2.0, 0.0))
    assert in_limit_region(3, 2.0, 1.0) and not in_limit_region(3, below, 1.0)
    for sigma in (1.5, 4.0, 40.0):
        assert "LimitCase" in power_cusp_admissible(3, sigma, 2.0, 1.0)[1]
        assert "LimitCase" not in power_cusp_admissible(3, sigma, below, 1.0)[1]
        assert "LimitCase" in spelled_out_admissible_pq(3, sigma, 2.0, 1.0)[0]
        assert "LimitCase" not in spelled_out_admissible_pq(3, sigma, below, 1.0)[0]
    with pytest.raises(ValueError, match="no finite threshold"):
        thresholds(3, 2.0, 1.0)
    assert thresholds(3, below, 1.0).s2 > 0.0


def test_thresholds_are_roots_of_their_bounds():
    # s1 is where E3's p_min reaches p, s2 where E2's q_max falls to q
    rng = np.random.default_rng(31)
    for _ in range(2000):
        n = int(rng.integers(3, 7))
        p = float(rng.uniform(n - 1, 20.0))
        s1 = thresholds(n, p, float(n - 1)).s1
        assert abs(MECHANISM_BOUNDS["E3"](n, s1, p)[0] - p) <= 4 * np.spacing(p), (n, p)
        q = float(rng.uniform(1.0, n - 1))
        p = float(rng.uniform(q, min(limit_p_min(n, q), 1e6)))
        if p < limit_p_min(n, q):
            s2 = thresholds(n, p, q).s2
            assert abs(MECHANISM_BOUNDS["E2"](n, s2, p)[1] - q) <= 4 * np.spacing(q), (n, p, q)
