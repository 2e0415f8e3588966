import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from fd_oracle import central_difference
from helpers import lp_norm, region_tube

from cuspext import geometry, quadrature
from cuspext.admissibility import in_limit_region
from cuspext.errors import QuadratureError
from cuspext.extension import extend, extend_general
from cuspext.fields import ScalarField, make_field
from cuspext.geometry import DomainSpec, ExtRegion, classify_extension_region
from cuspext.profiles import PowerProfile, StepProfile
from cuspext.quadrature import (
    QuadratureScheme,
    build_nodes,
    extension_ratio,
    gradient_at,
    region_domain,
    region_extension,
    w1p_norm,
)

SCHEME = QuadratureScheme()
T2 = DomainSpec(3, PowerProfile(2.0))          # psi = t^2
T2Q = DomainSpec(3, PowerProfile(2.0, 0.25))   # psi = t^2 / 4

# closed-form oracles for psi = t^2/4:
#   |domain| = pi/16 * (1/5 + 1) = 3 pi/40,  integral of t = pi/96 + 3 pi/32
VOL_T2Q = 3.0 * math.pi / 40.0
INT_T_T2Q = 5.0 * math.pi / 48.0


def test_volume_oracle_t2():
    vol = lp_norm(make_field("constant", 3), region_domain(T2), 1.0, SCHEME, 3)
    assert vol == pytest.approx(6.0 * math.pi / 5.0, rel=1e-10)


def test_volume_oracle_t2q():
    vol = lp_norm(make_field("constant", 3), region_domain(T2Q), 1.0, SCHEME, 3)
    assert vol == pytest.approx(VOL_T2Q, rel=1e-10)


def test_zero_field_norm():
    zero = make_field("constant", 3, value=0.0)
    assert lp_norm(zero, region_domain(T2), 2.0, SCHEME, 3) == 0.0


def test_cylinder_axial_polynomial_exact():
    region = region_tube(1.0, 2.0, 0.25)
    cubic = ScalarField("t3", lambda z: z[..., 0] ** 3)
    got = lp_norm(cubic, region, 1.0, SCHEME, 3)
    want = math.pi * 0.25 ** 2 * 15.0 / 4.0
    assert abs(got - want) <= 1e-12 * want


def test_cylinder_radial_polynomial_exact():
    region = region_tube(1.0, 2.0, 0.25)
    got = lp_norm(make_field("radial-sq", 3), region, 1.0, SCHEME, 3)
    want = math.pi * 0.25 ** 4 / 2.0
    assert abs(got - want) <= 1e-12 * want


def test_cylinder_l2_of_t():
    region = region_tube(1.0, 2.0, 0.25)
    got = lp_norm(make_field("axial", 3), region, 2.0, SCHEME, 3)
    want = math.sqrt(math.pi * 0.25 ** 2 * 7.0 / 3.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_slice_weights_sum_to_cross_section():
    Z, W = build_nodes(region_tube(0.0, 1.0, 0.5), SCHEME, 3)
    assert np.sum(W) == pytest.approx(math.pi * 0.25, rel=1e-10)


def test_nonfinite_sample_raises_with_node():
    def bad(z):
        out = np.ones(z.shape[:-1])
        out[z[..., 0] > 1.5] = np.nan
        return out

    with pytest.raises(QuadratureError) as err:
        lp_norm(ScalarField("bad", bad), region_domain(T2), 1.0, SCHEME, 3)
    assert err.value.node is not None


def test_p_validation():
    with pytest.raises(ValueError):
        w1p_norm(make_field("constant", 3), region_domain(T2), 0.5, SCHEME, 3)
    with pytest.raises(ValueError):
        w1p_norm(make_field("constant", 3), region_domain(T2), np.inf, SCHEME, 3)


def test_gradient_analytic_passthrough():
    u = make_field("wave", 3)
    z = np.array([0.4, 0.1, -0.2])
    assert np.array_equal(gradient_at(u, z), u.grad(z))


def test_gradient_at_requires_closed_form():
    # no finite-difference fallback: a field without a gradient is an error
    u = ScalarField("bare", lambda z: z[..., 0])
    with pytest.raises(ValueError, match="no closed-form gradient"):
        gradient_at(u, np.array([[0.5, 0.1, 0.0]]))
    with pytest.raises(ValueError, match="no closed-form gradient"):
        w1p_norm(u, region_domain(T2), 1.0, SCHEME, 3)


def test_w1p_constant_equals_volume():
    got = w1p_norm(make_field("constant", 3), region_domain(T2), 1.0, SCHEME, 3)
    assert got == pytest.approx(6.0 * math.pi / 5.0, rel=1e-10)


def test_w1p_axial_closed_form():
    # |u| part integrates t, gradient part adds the volume
    got = w1p_norm(make_field("axial", 3), region_domain(T2Q), 1.0, SCHEME, 3)
    assert got == pytest.approx(INT_T_T2Q + VOL_T2Q, rel=1e-10)


def test_w1p_zero_field():
    zero = make_field("constant", 3, value=0.0)
    assert w1p_norm(zero, region_domain(T2), 1.0, SCHEME, 3) == 0.0


def test_holder_consistency():
    vol = VOL_T2Q
    region = region_domain(T2Q)
    for name in ("constant", "axial", "radial-sq", "wave", "tip-power"):
        u = make_field(name, 3)
        for q, p in ((1.0, 2.0), (2.0, 4.0), (1.0, 4.0)):
            nq = lp_norm(u, region, q, SCHEME, 3)
            np_ = lp_norm(u, region, p, SCHEME, 3)
            assert nq <= vol ** (1.0 / q - 1.0 / p) * np_ * (1.0 + 1e-9)


def test_refinement_convergence_smooth_family():
    region = region_domain(T2)
    for name in ("constant", "axial", "radial-sq", "wave"):
        u = make_field(name, 3)
        base = lp_norm(u, region, 2.0, SCHEME, 3)
        fine = lp_norm(u, region, 2.0, SCHEME.refined(), 3)
        assert abs(fine - base) / fine < 0.01


def test_norm_determinism():
    u = make_field("wave", 3)
    a = lp_norm(u, region_domain(T2), 2.0, SCHEME, 3)
    b = lp_norm(u, region_domain(T2), 2.0, SCHEME, 3)
    assert a == b
    Z1, W1 = build_nodes(region_extension(T2Q), SCHEME, 3)
    Z2, W2 = build_nodes(region_extension(T2Q), SCHEME, 3)
    assert np.array_equal(Z1, Z2) and np.array_equal(W1, W2)


def test_monte_carlo_dimension_four():
    scheme = QuadratureScheme(mc_samples=200_000)
    vol = lp_norm(make_field("constant", 4), region_tube(0.0, 1.0, 0.5), 1.0,
                  scheme, 4)
    want = 4.0 * math.pi / 3.0 * 0.5 ** 3
    assert vol == pytest.approx(want, rel=0.02)
    again = lp_norm(make_field("constant", 4), region_tube(0.0, 1.0, 0.5), 1.0,
                    scheme, 4)
    assert vol == again  # seeded, deterministic


def test_straightened_w11_norm_matches_oracle():
    # The straightened extension integrates its closed-form gradient at
    # every node.  The FD oracle over the same nodes must agree; its
    # stencil only misbehaves at deep tip nodes of negligible weight.
    conj = extend_general(StepProfile([0.5, 1.0], [0.1, 0.2]), 3)
    eu = conj.hat_field(make_field("wave", 3))
    region = region_extension(conj.hat_context.spec)
    small = QuadratureScheme(t_levels=20, gauss_t=4, gauss_r=4, angular=8)
    total, detail = w1p_norm(eu, region, 1.0, small, 3, with_detail=True)
    assert np.isfinite(total) and total > 0.0
    oracle = ScalarField(eu.name, eu.fn, lambda Z: central_difference(eu.fn, Z, h=1e-7))
    total_fd, detail_fd = w1p_norm(oracle, region, 1.0, small, 3, with_detail=True)
    assert detail_fd["gradient_part"] == pytest.approx(detail["gradient_part"], rel=1e-8)
    assert total_fd == pytest.approx(total, rel=1e-8)


def test_in_limit_region():
    assert in_limit_region(3, 2.0, 1.0)
    assert in_limit_region(3, 4.0, 1.0)
    assert not in_limit_region(3, 4.0, 1.9)   # needs p >= 38
    assert not in_limit_region(3, 1.0, 1.0)
    assert not in_limit_region(3, 5.0, 2.0)   # q must stay below n-1


def test_extension_ratio_report():
    small = QuadratureScheme(t_levels=25, gauss_t=4, gauss_r=4, angular=8)
    [[rep]] = extension_ratio([make_field("constant", 3)], extend(PowerProfile(2.0, 0.25), 3),
                              [(2.0, 1.0)], small)
    assert rep.frame == "direct"
    assert rep.ratio is not None and np.isfinite(rep.ratio)
    assert rep.refinement_delta is not None and rep.refinement_delta < 0.05
    assert not rep.warnings
    d = rep.to_dict()
    assert d["p"] == 2.0 and d["q"] == 1.0


def test_extension_ratio_zero_denominator():
    small = QuadratureScheme(t_levels=15, gauss_t=3, gauss_r=3, angular=6)
    [[rep]] = extension_ratio([make_field("constant", 3, value=0.0)],
                              extend(PowerProfile(2.0, 0.25), 3), [(2.0, 1.0)], small)
    assert rep.zero_denominator and rep.ratio is None


def test_extension_ratio_out_of_region_warns():
    small = QuadratureScheme(t_levels=15, gauss_t=3, gauss_r=3, angular=6)
    [[rep]] = extension_ratio([make_field("constant", 3)], extend(PowerProfile(2.0, 0.25), 3),
                              [(4.0, 1.9)], small)
    assert rep.warnings and "outside" in rep.warnings[0]
    assert np.isfinite(rep.ratio)


def test_extension_ratio_validation(monkeypatch):
    ext = extend(PowerProfile(2.0, 0.25), 3)
    with pytest.raises(ValueError):
        extension_ratio([make_field("constant", 3)], ext, [(1.0, 2.0)], SCHEME)
    # every pair is checked before any work starts
    monkeypatch.setattr(quadrature, "build_nodes", None)
    with pytest.raises(ValueError, match=r"got p=1.0, q=2.0"):
        extension_ratio([make_field("constant", 3)], ext, [(2.0, 1.0), (1.0, 2.0)], SCHEME)
    with pytest.raises(ValueError, match="at least one field"):
        extension_ratio([], ext, [(2.0, 1.0)], SCHEME)


SMALL = QuadratureScheme(t_levels=15, gauss_t=3, gauss_r=3, angular=6)


@pytest.mark.parametrize("psi", [PowerProfile(2.0, 0.25), StepProfile([0.5, 1.0], [0.1, 0.2])],
                         ids=["direct", "straightened"])
def test_extension_ratio_report_does_not_depend_on_neighbours(psi):
    u = make_field("wave", 3)
    ext = extend(psi, 3)
    [[alone]] = extension_ratio([u], ext, [(4.0, 1.0)], SMALL)
    [pair] = extension_ratio([u], ext, [(2.0, 1.0), (4.0, 1.0)], SMALL)
    assert [(r.p, r.q) for r in pair] == [(2.0, 1.0), (4.0, 1.0)]
    assert json.dumps(alone.to_dict(), sort_keys=True) == \
        json.dumps(pair[1].to_dict(), sort_keys=True)


@pytest.mark.parametrize("psi", [PowerProfile(2.0, 0.25), StepProfile([0.5, 1.0], [0.1, 0.2])],
                         ids=["direct", "straightened"])
def test_extension_ratio_reports_do_not_depend_on_other_fields(psi):
    names = ("constant", "axial", "wave")
    ext = extend(psi, 3)
    together = extension_ratio([make_field(name, 3) for name in names], ext,
                               [(2.0, 1.0), (4.0, 1.0)], SMALL)
    for name, reports in zip(names, together):
        [alone] = extension_ratio([make_field(name, 3)], ext, [(2.0, 1.0), (4.0, 1.0)], SMALL)
        assert [json.dumps(r.to_dict(), sort_keys=True) for r in reports] == \
            [json.dumps(r.to_dict(), sort_keys=True) for r in alone]


def _pulled_back_count(spec, Z) -> int:
    """Points where E reads u for nodes Z: each core and collar node, and
    each end-cap node whose mirror image is a core or collar point."""
    reads = (ExtRegion.CORE, ExtRegion.COLLAR)
    label = classify_extension_region(spec, Z)
    cap = Z[label == ExtRegion.END_CAP]
    mirror = np.concatenate([4.0 - cap[:, :1], cap[:, 1:]], axis=1)
    return int(np.isin(label, reads).sum() + np.isin(classify_extension_region(spec, mirror),
                                                     reads).sum())


def test_extension_ratio_integrates_each_exponent_once(monkeypatch):
    # the unit of work is a node set: per resolution one domain and one
    # extension node set, and each field reads u and grad u once per domain
    # node for every p and once per pulled-back extension point for every q,
    # through value_and_grad when the field has it (wave), else fn and grad
    built = []
    real_build = quadrature.build_nodes

    def build(region, scheme, n):
        Z, W = real_build(region, scheme, n)
        built.append(("domain" if len(region) == 2 else "extension", scheme.gauss_t, Z))
        return Z, W

    reads = Counter()

    def counted(u):
        def fn(z):
            reads[u.name, "fn"] += z.shape[0]
            return u.fn(z)

        def grad(z):
            reads[u.name, "grad"] += z.shape[0]
            return u.grad(z)

        def value_and_grad(z):
            reads[u.name, "value_and_grad"] += z.shape[0]
            return u.value_and_grad(z)

        return replace(u, fn=fn, grad=grad,
                       value_and_grad=value_and_grad if u.value_and_grad else None)

    monkeypatch.setattr(quadrature, "build_nodes", build)
    for psi in (PowerProfile(2.0, 0.25), StepProfile([0.5, 1.0], [0.1, 0.2])):
        built.clear()
        reads.clear()
        fields = [counted(make_field(name, 3)) for name in ("constant", "axial", "wave")]
        extension_ratio(fields, extend(psi, 3), [(2.0, 1.0), (4.0, 1.0), (4.0, 1.5)], SMALL)
        assert sorted(kind[:2] for kind in built) == \
            [("domain", 3), ("domain", 6), ("extension", 3), ("extension", 6)]
        hat_spec = extend(psi, 3).hat_context.spec
        want = sum(Z.shape[0] if kind == "domain" else _pulled_back_count(hat_spec, Z)
                   for kind, _, Z in built)
        assert reads == Counter({("const[1.0]", "fn"): want, ("const[1.0]", "grad"): want,
                                 ("axial", "fn"): want, ("axial", "grad"): want,
                                 ("wave", "value_and_grad"): want})


# node counts 144 and 1152 (domain), 320 and 2560 (extension) on either
# route: none is a multiple of 7 or of 999
BLOCKED = QuadratureScheme(t_levels=8, gauss_t=2, gauss_r=2, angular=4)


@pytest.mark.parametrize("psi", [PowerProfile(2.0, 0.25), StepProfile([0.5, 1.0], [0.1, 0.2])],
                         ids=["direct", "straightened"])
def test_node_blocks_change_no_bit(psi, monkeypatch):
    ext = extend(psi, 3)
    fields = [make_field(name, 3) for name in ("constant", "axial", "wave")]
    eu = ext.hat_field(fields[2])

    def run():
        reports = extension_ratio(fields, ext, [(2.0, 1.0), (4.0, 1.0)], BLOCKED)
        norms = [w1p_norm(eu, region_extension(ext.hat_context.spec), 4.0, BLOCKED.refined(), 3,
                          with_detail=True),
                 w1p_norm(fields[1], region_domain(ext.spec), 2.0, BLOCKED.refined(), 3,
                          with_detail=True)]
        return json.dumps([[r.to_dict() for r in rs] for rs in reports] + norms, sort_keys=True)

    assert geometry.BLOCK_NODES >= 2560  # one block per node set
    whole = run()
    for block in (7, 999, 2560):
        monkeypatch.setattr(geometry, "BLOCK_NODES", block)
        assert run() == whole


def test_node_blocks_name_the_same_nonfinite_node(monkeypatch):
    # |v|^p overflows on the cusp slab, whose nodes come first, and v is NaN
    # on the far tube, read blocks later: every value is checked before any
    # |v|^p, so each block size names the same NaN node
    def fn(z):
        t = z[..., 0]
        return np.where(t < 0.5, 1e200, np.where(t > 1.5, np.nan, 1.0))

    bad = ScalarField("bad", fn, lambda z: np.ones(z.shape))
    ext = extend(T2Q.psi, 3)
    messages = set()
    for block in (geometry.BLOCK_NODES, 7):
        monkeypatch.setattr(geometry, "BLOCK_NODES", block)
        for call in (lambda: w1p_norm(bad, region_domain(T2Q), 2.0, BLOCKED, 3),
                     lambda: extension_ratio([bad], ext, [(2.0, 1.0)], BLOCKED)):
            with pytest.raises(QuadratureError) as err:
                call()
            assert err.value.node[0] > 1.5
            messages.add(str(err.value))
    assert len(messages) == 1


@pytest.mark.parametrize("psi", [PowerProfile(2.0, 0.25), StepProfile([0.5, 1.0], [0.1, 0.2])],
                         ids=["direct", "straightened"])
def test_extension_ratio_peak_memory_is_set_by_the_block(psi):
    # the extend workloads' scheme; its refined extension node set (N nodes)
    # dominates.  Held at once: nodes and weights, each field's values and
    # |grad| per node, two reduction temporaries of N floats, and one
    # block's pullback and reads, allowed 16 floats per block node and axis
    scheme = QuadratureScheme(t_levels=40, gauss_t=5, gauss_r=5, angular=10)
    fields = [make_field(name, 3) for name in ("constant", "axial", "wave")]
    ext = extend(psi, 3)
    # a first run builds the Gauss rules, importing numpy.polynomial
    extension_ratio(fields, ext, [(2.0, 1.0)], QuadratureScheme(t_levels=2, gauss_t=1,
                                                                 gauss_r=1, angular=2))
    N = build_nodes(region_extension(ext.hat_context.spec), scheme.refined(), 3)[0].shape[0]
    n, F, B = 3, len(fields), geometry.BLOCK_NODES
    bound = 8 * (N * (n + 1 + 2 * F + 2) + 16 * n * B)
    tracemalloc.start()
    try:
        extension_ratio(fields, ext, [(2.0, 1.0), (4.0, 1.0)], scheme)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


def test_extension_ratio_straightened_route():
    from cuspext.profiles import StepProfile

    step = StepProfile([0.5, 1.0], [0.1, 0.2])
    small = QuadratureScheme(t_levels=18, gauss_t=3, gauss_r=3, angular=6)
    [[rep]] = extension_ratio([make_field("constant", 3)], extend(step, 3), [(2.0, 1.0)], small)
    assert rep.frame == "straightened"
    assert rep.ratio is not None and np.isfinite(rep.ratio) and rep.ratio > 0.0


def test_lp_slice_table_sums_to_norm():
    from cuspext.quadrature import lp_slice_table

    u = make_field("constant", 3)
    region = region_domain(T2)
    rows = lp_slice_table(u, region, 1.0, SCHEME, 3)
    total = sum(r["contribution"] for r in rows)
    assert total == pytest.approx(6.0 * math.pi / 5.0, rel=1e-9)


def test_gauss_rule_is_not_built_at_import():
    # building it at import would load numpy.polynomial into every command
    code = "import sys, cuspext.cli; print('numpy.polynomial' in sys.modules)"
    src = str(Path(quadrature.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def test_w1p_norm_prefers_value_and_grad():
    # one fused call per norm, and the same bits as fn plus gradient_at
    ext = extend_general(StepProfile([0.5, 1.0], [0.1, 0.2]), 3)
    eu = ext.hat_field(make_field("wave", 3))
    region = region_extension(ext.hat_context.spec)
    scheme = QuadratureScheme(t_levels=8, gauss_t=3, gauss_r=3, angular=6)
    calls = []

    def refuse(z):
        raise AssertionError("w1p_norm read fn or grad of a field with value_and_grad")

    def fused_call(z):
        calls.append(z.shape)
        return eu.value_and_grad(z)

    fused = replace(eu, fn=refuse, grad=refuse, value_and_grad=fused_call)
    apart = replace(eu, value_and_grad=None)
    for p in (1.0, 2.5):
        assert (w1p_norm(fused, region, p, scheme, 3, with_detail=True)
                == w1p_norm(apart, region, p, scheme, 3, with_detail=True))
    assert len(calls) == 2
