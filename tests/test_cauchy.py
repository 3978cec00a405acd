import math

import numpy as np
import pytest

from biaxial.algebra import BiaxialPoint, Multivector
from biaxial.cauchy import (
    FullBallCauchy,
    KernelParams,
    kernel_I_closed,
    kernel_I_oracle,
    kernel_phi,
    reconstruct_ab_variants,
)
from biaxial.fields import constant_field, linear_monogenic_field
from biaxial.planewave import exp_hpw_axial_field
from biaxial.quadrature import hemisphere_rule, sphere_area, sphere_rule
from biaxial.rng import SplitMix64

S2 = np.array([1.0, 0.0])
NU = np.array([0.0, 1.0])


def test_kernel_at_r_zero_is_sphere_measure_over_tau():
    for p, q in ((2, 2), (3, 2), (2, 3)):
        nu = np.zeros(q)
        nu[0] = 1.0
        y = np.full(q, 0.2)
        kp = KernelParams(p, q, 0.0, y, 0.7, nu)
        expected = sphere_area(p) * kp.tau ** (-0.5 * (p + q))
        assert kernel_I_closed(kp) == pytest.approx(expected, rel=1e-12)


def test_kernel_at_theta_half_pi_has_no_hypergeometric_part():
    p, q = 3, 2
    y = np.array([0.1, -0.2])
    kp = KernelParams(p, q, 0.4, y, 0.5 * math.pi, NU)
    tau = 0.16 + float(np.sum((y - NU) ** 2))
    assert kp.tau == pytest.approx(tau, rel=1e-14)
    expected = sphere_area(p) * tau ** (-0.5 * (p + q))
    assert kernel_I_closed(kp) == pytest.approx(expected, rel=1e-12)


def test_kernel_orthogonal_split():
    # |x+y - cos(t)w - sin(t)v|^2 = |x - cos(t)w|^2 + |y - sin(t)v|^2.
    rng = SplitMix64(3)
    p, q = 3, 2
    x = rng.uniform_array(p, -0.4, 0.4)
    y = rng.uniform_array(q, -0.4, 0.4)
    w = rng.unit_vector(p)
    v = rng.unit_vector(q)
    theta = 0.7
    full = np.concatenate([x, y]) - np.concatenate(
        [math.cos(theta) * w, math.sin(theta) * v]
    )
    split = np.sum((x - math.cos(theta) * w) ** 2) + np.sum((y - math.sin(theta) * v) ** 2)
    assert float(np.dot(full, full)) == pytest.approx(split, rel=1e-14)


def test_kernel_oracle_zonal_invariance():
    p, q = 3, 2
    rule = sphere_rule(p, 32)
    y = np.array([0.15, 0.1])
    r = 0.35
    x1 = np.array([r, 0.0, 0.0])
    x2 = r * np.array([0.6, 0.8, 0.0])
    i1 = kernel_I_oracle(x1, y, 0.6, NU, rule)
    i2 = kernel_I_oracle(x2, y, 0.6, NU, rule)
    assert i1 == pytest.approx(i2, rel=1e-10)


@pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (4, 4)])
def test_kernel_oracle_stack_returns_the_per_y_floats(p, q):
    rule = sphere_rule(p, 24)
    nu = np.eye(q)[0]
    x = 0.3 * np.eye(p)[0]
    ys = SplitMix64(5).uniform_array(4 * q, -0.3, 0.3).reshape(4, q)
    stacked = kernel_I_oracle(x, ys, 0.8, nu, rule)
    singles = [kernel_I_oracle(x, y, 0.8, nu, rule) for y in ys]
    assert isinstance(singles[0], float)
    assert stacked.shape == (4,) and stacked.dtype == np.float64
    assert stacked.tobytes() == np.array(singles).tobytes()
    assert kernel_I_oracle(x, ys[:1], 0.8, nu, rule).tobytes() == stacked[:1].tobytes()


def test_kernel_oracle_stack_keeps_the_singular_and_rule_checks():
    # At theta = pi/2 and x = 0 the integrand is singular where y = nu.
    rule = sphere_rule(2, 16)
    x = np.zeros(2)
    fine = np.array([0.1, -0.2])
    with pytest.raises(ValueError, match="near-singular") as single:
        kernel_I_oracle(x, NU, 0.5 * math.pi, NU, rule)
    for stack in ([NU, fine, fine], [fine, NU, fine], [fine, fine, NU]):
        with pytest.raises(ValueError, match="near-singular") as stacked:
            kernel_I_oracle(x, np.array(stack), 0.5 * math.pi, NU, rule)
        assert str(stacked.value) == str(single.value)
    for y in (fine, np.array([fine, fine])):
        with pytest.raises(ValueError, match="oracle rule must live on S"):
            kernel_I_oracle(np.zeros(3), y, 0.4, NU, rule)


@pytest.mark.parametrize("pq", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_kernel_closed_matches_oracle_grid(pq):
    p, q = pq
    rule = sphere_rule(p, 64)
    nu = np.zeros(q)
    nu[0] = 1.0
    yhat = np.zeros(q)
    yhat[-1] = 1.0
    for r in np.linspace(0.0, 0.55, 4):
        for theta in np.linspace(0.0, 0.5 * math.pi, 4):
            for ylen in (0.0, 0.3):
                y = ylen * yhat
                kp = KernelParams(p, q, float(r), y, float(theta), nu)
                closed = kernel_I_closed(kp)
                x = np.zeros(p)
                x[0] = r
                oracle = kernel_I_oracle(x, y, float(theta), nu, rule)
                assert closed == pytest.approx(oracle, rel=1e-8), (p, q, r, theta, ylen)


def test_kernel_phi_vanishes_at_axis_and_matches_oracle_moment():
    p, q = 2, 2
    y = np.array([0.1, 0.2])
    assert kernel_phi(KernelParams(p, q, 0.0, y, 0.4, NU)) == 0.0
    # Direct omega-quadrature of the first zonal moment.
    rule = sphere_rule(p, 256)
    r, theta = 0.4, 0.6
    kp = KernelParams(p, q, r, y, theta, NU)
    x = np.array([r, 0.0])
    xi = x / r
    c, s = math.cos(theta), math.sin(theta)
    dx = x[None, :] - c * rule.points
    dy = y - s * NU
    dist2 = np.einsum("ij,ij->i", dx, dx) + float(np.dot(dy, dy))
    proj = rule.points @ xi
    oracle = float(np.dot(rule.weights, proj * dist2 ** (-0.5 * (p + q))))
    assert kernel_phi(kp) == pytest.approx(oracle, rel=1e-10)


def test_kernel_rejects_boundary_points():
    with pytest.raises(ValueError):
        KernelParams(2, 2, 0.8, np.array([0.5, 0.3]), 0.3, NU)


def test_full_ball_constant_is_one():
    field = constant_field(2, 2)
    rule = sphere_rule(4, 24)
    pt = BiaxialPoint(2, 2, np.array([0.3, 0.1]), np.array([-0.2, 0.15]))
    out = FullBallCauchy(field.boundary_value, rule).evaluate(pt)
    assert (out - Multivector.scalar(4, 1.0)).norm_inf < 1e-6


def test_full_ball_reproduces_linear_monogenic():
    field = linear_monogenic_field(2, 2, S2)
    oracle = FullBallCauchy(field.boundary_value, sphere_rule(4, 28))
    rng = SplitMix64(8)
    for _ in range(3):
        x = rng.uniform_array(2, -0.25, 0.25)
        y = rng.uniform_array(2, -0.25, 0.25)
        pt = BiaxialPoint(2, 2, x, y)
        out = oracle.evaluate(pt)
        direct = field.value_at(pt)
        assert (out - direct).norm_inf < 1e-6


def test_full_ball_reproduces_exp_wave():
    field = exp_hpw_axial_field(2, 2, S2)
    oracle = FullBallCauchy(field.boundary_value, sphere_rule(4, 28))
    pt = BiaxialPoint(2, 2, np.array([0.25, 0.05]), np.array([0.1, -0.2]))
    out = oracle.evaluate(pt)
    direct = field.value_at(pt)
    assert (out - direct).norm_inf < 1e-6


def test_corrected_reconstruction_constant_field():
    field = constant_field(2, 2)
    hrule = hemisphere_rule(2, 2, 40)
    for pt in (
        BiaxialPoint(2, 2, np.array([0.3, 0.0]), np.zeros(2)),
        BiaxialPoint(2, 2, np.array([0.2, 0.1]), np.array([0.15, -0.1])),
    ):
        a_val, b_val = reconstruct_ab_variants(field, pt, hrule)["corrected"]
        assert (a_val - Multivector.scalar(4, 1.0)).norm_inf < 1e-6
        assert b_val.norm_inf < 1e-6


def test_reduced_variant_misses_constant_field_by_poisson_factor():
    # Dropping the omega-odd kernel terms turns the reconstruction of the
    # constant field at y = 0 into the harmonic-measure value
    # 1/(1 - r^2); the deviation is structural, not a quadrature artifact.
    field = constant_field(2, 2)
    hrule = hemisphere_rule(2, 2, 40)
    r = 0.3
    pt = BiaxialPoint(2, 2, np.array([r, 0.0]), np.zeros(2))
    a_val, _ = reconstruct_ab_variants(field, pt, hrule)["full"]
    assert complex(a_val.scalar_part).real == pytest.approx(1.0 / (1.0 - r * r), rel=1e-8)


def test_corrected_reconstruction_linear_field():
    field = linear_monogenic_field(2, 2, S2)
    hrule = hemisphere_rule(2, 2, 40)
    rng = SplitMix64(21)
    for _ in range(3):
        x = rng.uniform_array(2, -0.25, 0.25)
        y = rng.uniform_array(2, -0.25, 0.25)
        pt = BiaxialPoint(2, 2, x, y)
        if pt.r < 0.05:
            continue
        a_val, b_val = reconstruct_ab_variants(field, pt, hrule)["corrected"]
        a_direct = field.A(pt.r, pt.y)
        b_direct = field.B(pt.r, pt.y)
        assert (a_val - a_direct).norm_inf < 1e-5
        assert (b_val - b_direct).norm_inf < 1e-5


def test_corrected_reconstruction_exp_field_and_full_ball_agreement():
    field = exp_hpw_axial_field(2, 2, S2)
    hrule = hemisphere_rule(2, 2, 40)
    oracle = FullBallCauchy(field.boundary_value, sphere_rule(4, 28))
    pt = BiaxialPoint(2, 2, np.array([0.25, 0.1]), np.array([0.15, -0.05]))
    a_val, b_val = reconstruct_ab_variants(field, pt, hrule)["corrected"]
    a_direct = field.A(pt.r, pt.y)
    b_direct = field.B(pt.r, pt.y)
    assert (a_val - a_direct).norm_inf < 1e-4
    assert (b_val - b_direct).norm_inf < 1e-4
    assembled = a_val + pt.embed_unit_x() * b_val
    via_ball = oracle.evaluate(pt)
    assert (assembled - via_ball).norm_inf < 1e-5


def test_corrected_errors_shrink_with_resolution():
    field = exp_hpw_axial_field(2, 2, S2)
    pt = BiaxialPoint(2, 2, np.array([0.25, 0.1]), np.array([0.15, -0.05]))
    errs = []
    for res in (16, 32):
        variants = reconstruct_ab_variants(field, pt, hemisphere_rule(2, 2, res))
        a_val, b_val = variants["corrected"]
        err = max(
            (a_val - field.A(pt.r, pt.y)).norm_inf,
            (b_val - field.B(pt.r, pt.y)).norm_inf,
        )
        errs.append(err)
    assert errs[1] < errs[0]


def test_printed_variant_differs_only_in_odd_part():
    field = exp_hpw_axial_field(2, 2, S2)
    hrule = hemisphere_rule(2, 2, 24)
    pt = BiaxialPoint(2, 2, np.array([0.3, 0.0]), np.array([0.1, 0.0]))
    variants = reconstruct_ab_variants(field, pt, hrule)
    a_full, b_full = variants["full"]
    a_printed, b_printed = variants["printed"]
    assert (a_full - a_printed).norm_inf == 0.0
    assert (b_full - b_printed).norm_inf > 1e-6


def test_reconstruction_is_zonal_in_x():
    # The output at (x, y) depends on x only through |x|.
    field = exp_hpw_axial_field(2, 2, S2)
    hrule = hemisphere_rule(2, 2, 24)
    y = np.array([0.1, 0.05])
    pt1 = BiaxialPoint(2, 2, np.array([0.3, 0.0]), y)
    pt2 = BiaxialPoint(2, 2, np.array([0.0, 0.3]), y)
    for variant in ("full", "corrected"):
        a1, b1 = reconstruct_ab_variants(field, pt1, hrule)[variant]
        a2, b2 = reconstruct_ab_variants(field, pt2, hrule)[variant]
        assert (a1 - a2).norm_inf < 1e-10
        assert (b1 - b2).norm_inf < 1e-10


def test_reconstruct_validates_domain():
    field = constant_field(2, 2)
    hrule = hemisphere_rule(2, 2, 12)
    far = BiaxialPoint(2, 2, np.array([0.8, 0.0]), np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        reconstruct_ab_variants(field, far, hrule)


def test_full_ball_rejects_near_boundary():
    field = constant_field(2, 2)
    rule = sphere_rule(4, 16)
    with pytest.raises(ValueError):
        FullBallCauchy(field.boundary_value, rule).evaluate(
            BiaxialPoint(2, 2, np.array([0.9, 0.2]), np.array([0.2, 0.0]))
        )
