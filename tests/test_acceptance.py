"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
pinned here; runtime budgets are asserted against wall time.
"""

import math
import time

import numpy as np
import pytest
from helpers import lp_norm, region_tube, solved_doubling_transfer, solved_monotone_quotient

from cuspext import admissibility, quadrature, transform, verify
from cuspext.extension import extend, extend_general
from cuspext.fields import make_field
from cuspext.geometry import DomainSpec
from cuspext.lipschitzify import hat_values
from cuspext.profiles import LinearProfile, PowerProfile, StepProfile

TWO_STEP = StepProfile([0.5, 1.0], [0.1, 0.2])


class _Timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.label}: {status} in {elapsed:.2f}s "
              f"(budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, \
                f"{self.label} exceeded budget: {elapsed:.2f}s >= {self.budget}s"


def test_criterion_1_hat_construction():
    with _Timer("1 hat-profile construction", 1.0):
        # bisection oracle: t + t^2 = 1 at t_hat = 1/2
        golden = (3.0 - math.sqrt(5.0)) / 2.0
        assert abs(hat_values(PowerProfile(2.0), 0.5) - golden) <= 1e-10
        # linear profiles are exact fixed points
        lin = LinearProfile(0.7)
        grid = np.linspace(0.01, 1.0, 100)
        assert np.array_equal(hat_values(lin, grid), lin.value(grid))
        # two-step profile: affine with slope 1 + psi(1) across the jump gap
        lo, hi = 0.6 / 1.2, 0.7 / 1.2
        ts = np.linspace(lo + 1e-9, hi - 1e-9, 200)
        vals = hat_values(TWO_STEP, ts)
        assert np.max(np.abs(vals - (1.2 * ts - 0.5))) <= 1e-10


def test_criterion_2_lipschitz_bound():
    with _Timer("2 Lipschitz bound", 10.0):
        tol = 1e-12
        rng = np.random.default_rng(2024)
        breaks = np.append(np.sort(rng.uniform(0.02, 0.98, size=15)), 1.0)
        tabulated = StepProfile(breaks, np.cumsum(rng.uniform(0.01, 0.2, size=16)),
                                kind="tabulated")
        for psi in (PowerProfile(2.0), PowerProfile(3.0), TWO_STEP, tabulated):
            a = rng.uniform(1e-9, 1.0, size=10_000)
            b = rng.uniform(1e-9, 1.0, size=10_000)
            gap = np.abs(hat_values(psi, a) - hat_values(psi, b))
            bound = (1.0 + psi.value_at_1) * np.abs(a - b) + 2.0 * tol
            assert np.all(gap <= bound)


def test_criterion_3_transformation():
    with _Timer("3 transformation", 30.0):
        spec = DomainSpec(3, PowerProfile(2.0, 0.25))
        rng = np.random.default_rng(7)
        z = transform.sample_box(3, 100_000, rng)
        back = transform.inverse_map(spec, transform.forward_map(spec, z))
        assert np.max(np.abs(back - z)) <= 1e-9
        seams = transform.seam_continuity(spec, per_seam=300, rng_seed=7)
        for per_delta in seams.values():
            vals = list(per_delta.values())
            assert max(vals) <= 10.0
            assert max(vals) / min(vals) <= 3.0  # stable across deltas
        for psi in (PowerProfile(2.0, 0.25), TWO_STEP):
            res = transform.verify_image(DomainSpec(3, psi), 10_000, rng_seed=11)
            assert res.ok, res.counterexample


def test_criterion_4_extension_operator():
    with _Timer("4 extension operator", 60.0):
        ext = extend(PowerProfile(2.0, 0.25), 3)
        smooth = [make_field(n, 3) for n in ("constant", "axial", "radial-sq",
                                             "wave")]
        traces = verify.trace_check(ext, smooth, count=10_000, rng_seed=5)
        decays = verify.boundary_decay_check(ext, smooth, rays=1000, rng_seed=5)
        for u, rep, decay in zip(smooth, traces, decays):
            assert rep.value == 0.0  # bitwise equality at every sample
            assert decay.ok, (u.name, decay)
        # straightened route: trace within 1e-8
        for psi in (PowerProfile(2.0), TWO_STEP):
            u = make_field("wave", 3)
            [rep] = verify.trace_check(extend_general(psi, 3), [u], count=10_000, rng_seed=6)
            assert rep.value <= 1e-8
        # pointwise linearity at 1e-12
        rng = np.random.default_rng(8)
        pts = np.concatenate([rng.uniform(-0.5, 3.5, size=(5000, 1)),
                              rng.uniform(-0.6, 0.6, size=(5000, 2))], axis=1)
        [rep] = verify.linearity_check(ext, [smooth[1]], smooth[3], pts)
        assert rep.value <= 1e-12


def test_criterion_5_norm_inequality():
    with _Timer("5 extension-norm stability", 600.0):
        scheme = quadrature.QuadratureScheme(t_levels=40, gauss_t=5, gauss_r=5,
                                             angular=10)
        names = ("constant", "axial", "radial-sq", "wave", "tip-power")
        for coeff_exp in (2.0, 3.0):
            psi = PowerProfile(coeff_exp, 0.25)
            pq = ((2.0, 1.0), (4.0, 1.0), (4.0, 1.9))
            per_field = quadrature.extension_ratio([make_field(name, 3) for name in names],
                                                   extend(psi, 3), pq, scheme)
            for name, reps in zip(names, per_field):
                for (p, q), rep in zip(pq, reps):
                    assert rep.ratio is not None and np.isfinite(rep.ratio), \
                        (psi, p, q, name)
                    assert rep.refinement_delta < 0.05, \
                        (psi.exponent, p, q, name, rep.refinement_delta)


def test_criterion_6_quadrature_oracle():
    with _Timer("6 quadrature oracle", 5.0):
        scheme = quadrature.QuadratureScheme()
        vol = lp_norm(make_field("constant", 3),
                      quadrature.region_domain(DomainSpec(3, PowerProfile(2.0))), 1.0, scheme, 3)
        assert abs(vol - 6.0 * math.pi / 5.0) <= 1e-4 * (6.0 * math.pi / 5.0)
        # degree-3 exactness over the tube
        region = region_tube(1.0, 2.0, 0.25)
        cubic = quadrature.ScalarField("t3", lambda z: z[..., 0] ** 3)
        want = math.pi * 0.25 ** 2 * 15.0 / 4.0
        got = lp_norm(cubic, region, 1.0, scheme, 3)
        assert abs(got - want) <= 1e-12 * want


def test_criterion_7_integrability_criteria():
    with _Timer("7 integrability criteria", 60.0):
        grid = np.round(np.linspace(1.2, 3.1, 20), 12)
        for s in grid:
            for sp in grid:
                got = admissibility.check_inc1(PowerProfile(float(sp)),
                                               float(s), 3).classification
                if sp < s:
                    assert got == admissibility.CONVERGENT, (s, sp, got)
                elif sp > s:
                    assert got == admissibility.DIVERGENT, (s, sp, got)
                else:
                    assert got in (admissibility.DIVERGENT,
                                   admissibility.INCONCLUSIVE), (s, sp, got)
        rows = admissibility.sweep_power_cusp(
            3, 4.0, 2.0, np.round(np.arange(1.1, 4.01, 0.1), 12))
        frontier = admissibility.frontier_from_sweep(rows)
        assert abs(frontier - 2.5) <= 0.1 + 1e-9
        assert frontier == pytest.approx(admissibility.thresholds(3, 4.0, 2.0).s1)
        rows = admissibility.sweep_power_cusp(
            3, 1.5, 1.0, np.round(np.arange(1.1, 6.01, 0.1), 12))
        frontier = admissibility.frontier_from_sweep(rows)
        assert abs(frontier - 4.0) <= 0.1 + 1e-9
        assert abs(frontier - admissibility.thresholds(3, 1.5, 1.0).s2) <= 0.1 + 1e-9


def test_criterion_8_structural_transfer():
    # The quotient transfer is conditional on psi(t)/t nondecreasing, which
    # no step profile satisfies (the quotient strictly decreases on flats);
    # for the step profile the checker must instead detect the violation.
    with _Timer("8 structural transfer", 5.0):
        grid = np.geomspace(1e-5, 1.0, 120)
        dbl_grid = np.geomspace(1e-5, 0.2, 80)
        for psi in (PowerProfile(2.0), PowerProfile(3.0)):
            assert solved_monotone_quotient(psi, grid).ok, psi
        step_res = solved_monotone_quotient(TWO_STEP, grid)
        assert not step_res.ok and step_res.violation is not None
        for psi in (PowerProfile(2.0), PowerProfile(3.0), TWO_STEP):
            res = solved_doubling_transfer(psi, dbl_grid)
            assert res.ok, (psi, res)
            bound = max(2.0, psi.doubling_constant)
            assert res.max_ratio <= bound * (1.0 + 1e-6)
