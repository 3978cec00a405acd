import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaxial.algebra import BiaxialPoint, Multivector
from biaxial.cauchy import (
    _MIN_BOUNDARY_DISTANCE,
    FullBallCauchy,
    KernelParams,
    _inverse_half_power,
    kernel_I_closed,
    kernel_I_oracle,
    kernel_phi,
    reconstruct_ab_variants,
)
from biaxial.fields import constant_field, linear_monogenic_field
from biaxial.planewave import exp_hpw_axial_field
from biaxial.quadrature import (
    _ORACLE_BLOCK,
    HemisphereRule,
    hemisphere_rule,
    sphere_area,
    sphere_rule,
)
from biaxial.rng import SplitMix64

from per_node_reference import kernel_phi_quadrature

S2 = np.array([1.0, 0.0])
NU = np.array([0.0, 1.0])
# The refusal of a point near a boundary node; the group is the smallest
# squared distance.
NEAR_SINGULAR = (re.escape("squared distance to a boundary node must lie in "
                           f"[{_MIN_BOUNDARY_DISTANCE ** 2}, inf], got ") + r"(\S+)")


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


@st.composite
def kernel_nodes(draw):
    p = draw(st.integers(2, 6))
    q = draw(st.integers(2, 8 - p))
    # r^2 + |y|^2 <= 0.25 + 6 * 0.09 stays inside the 0.9 ball.
    r = draw(st.floats(0.0, 0.5))
    y = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=q, max_size=q)))
    theta = draw(st.one_of(st.floats(0.0, 0.5 * math.pi),
                           st.sampled_from([0.0, 0.5 * math.pi, 0.5 * math.pi + 5e-13])))
    nu = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=q, max_size=q)))
    norm = float(np.linalg.norm(nu))
    nu = nu / norm if norm > 1e-3 else np.eye(q)[0]
    return KernelParams(p, q, r, y, theta, nu)


@settings(max_examples=300, deadline=None)
@given(kp=kernel_nodes())
def test_kernel_params_geometry_is_the_formulas_it_replaced(kp):
    # KernelParams reads the sweep's _node_geometry; these are its former
    # scalar formulas, which it must match bit for bit.
    c = math.cos(kp.theta)
    s = math.sin(kp.theta)
    assert kp.tau == kp.r ** 2 + c * c + float(np.sum((kp.y - s * kp.nu) ** 2))
    assert kp.c2 == 2.0 * kp.r * max(math.cos(kp.theta), 0.0)
    assert type(kp.tau) is float and type(kp.c2) is float


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


@pytest.mark.parametrize("p,q,res", [(2, 2, 24), (3, 2, 24), (4, 4, 24), (4, 4, 28)])
def test_kernel_oracle_theta_array_gives_the_per_theta_floats(p, q, res):
    rule = sphere_rule(p, res)
    if res == 28:  # two blocks, the last one partial
        assert _ORACLE_BLOCK < rule.weights.size < 2 * _ORACLE_BLOCK
    nu = np.eye(q)[0]
    x = 0.3 * np.eye(p)[0]
    ys = SplitMix64(7).uniform_array(3 * q, -0.3, 0.3).reshape(3, q)
    thetas = np.linspace(0.0, 0.5 * math.pi, 5)
    battery = kernel_I_oracle(x, ys, thetas, nu, rule)
    singles = np.array([kernel_I_oracle(x, ys, float(theta), nu, rule) for theta in thetas])
    assert battery.shape == (5, 3) and battery.dtype == np.float64
    assert battery.tobytes() == singles.tobytes()
    one_y = kernel_I_oracle(x, ys[1], thetas, nu, rule)
    assert one_y.shape == (5,) and one_y.tobytes() == singles[:, 1].tobytes()


def test_kernel_oracle_scalar_theta_keeps_its_returns():
    rule = sphere_rule(2, 16)
    ys = np.array([[0.1, 0.0], [0.0, 0.2]])
    for theta in (0.8, np.float64(0.8), np.array(0.8)):
        single = kernel_I_oracle(0.3 * S2, ys[0], theta, NU, rule)
        stacked = kernel_I_oracle(0.3 * S2, ys, theta, NU, rule)
        assert type(single) is float
        assert stacked.shape == (2,) and stacked[0] == single


def test_kernel_oracle_empty_theta_array_gives_zero_rows():
    got = kernel_I_oracle(0.3 * S2, np.zeros((3, 2)), np.array([]), NU, sphere_rule(2, 16))
    assert got.shape == (0, 3) and got.dtype == np.float64


def test_kernel_oracle_refuses_a_2d_theta():
    with pytest.raises(ValueError, match=re.escape("theta must be a float or a 1-D array, got "
                                                   "shape (2, 1)")):
        kernel_I_oracle(0.3 * S2, np.zeros(2), np.array([[0.1], [0.2]]), NU, sphere_rule(2, 16))


def test_kernel_oracle_empty_stack_gives_an_empty_array():
    got = kernel_I_oracle(0.3 * S2, np.zeros((0, 2)), 0.8, NU, sphere_rule(2, 16))
    assert got.shape == (0,) and got.dtype == np.float64


def test_kernel_oracle_stack_keeps_the_singular_and_rule_checks():
    # At theta = pi/2 and x = 0 the integrand is singular where y = nu.
    rule = sphere_rule(2, 16)
    x = np.zeros(2)
    fine = np.array([0.1, -0.2])
    with pytest.raises(ValueError, match=f"^{NEAR_SINGULAR}$") as single:
        kernel_I_oracle(x, NU, 0.5 * math.pi, NU, rule)
    assert 0 <= float(re.fullmatch(NEAR_SINGULAR, str(single.value))[1]) < 1e-30
    for stack in ([NU, fine, fine], [fine, NU, fine], [fine, fine, NU]):
        with pytest.raises(ValueError, match=f"^{NEAR_SINGULAR}$") as stacked:
            kernel_I_oracle(x, np.array(stack), 0.5 * math.pi, NU, rule)
        assert str(stacked.value) == str(single.value)
    for y in (fine, np.array([fine, fine])):
        with pytest.raises(ValueError, match="oracle rule must live on S"):
            kernel_I_oracle(np.zeros(3), y, 0.4, NU, rule)


@pytest.mark.parametrize("m", range(2, 13))
def test_inverse_half_power_ladder_matches_mpmath(m):
    # Squared distances from the refused 0.05^2 up to 10, geometric, with
    # both ends and the exact powers of two in between.
    d = np.concatenate([np.geomspace(0.0025, 10.0, 397), [0.125, 0.5, 1.0, 2.0, 8.0]])
    work = np.full_like(d, np.nan)
    got = _inverse_half_power(d.copy(), m, work)
    with mpmath.workdps(40):
        exact = [mpmath.mpf(float(v)) ** (-mpmath.mpf(m) / 2) for v in d]
        err = max(abs((mpmath.mpf(float(g)) - e) / e) for g, e in zip(got, exact))
    assert float(err) <= m * np.finfo(np.float64).eps


@pytest.mark.parametrize("p,res", [(2, 64), (3, 16), (4, 8)])
def test_kernel_oracle_exact_hit_rounded_below_zero_is_near_singular(p, res):
    # x + y = cos(theta) omega_j + sin(theta) nu puts node j at distance 0
    # exactly; the expanded |x|^2 + c^2 - 2c <x, omega> rounds it to a tiny
    # value of either sign, and both must give the named error.
    rule = sphere_rule(p, res)
    for theta in (0.3, 0.6, 1.0):
        for point in rule.points:
            x = math.cos(theta) * point
            if float(np.linalg.norm(x)) > 0.55:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^{NEAR_SINGULAR}$") as hit:
                    kernel_I_oracle(x, math.sin(theta) * NU, theta, NU, rule)
                assert abs(float(re.fullmatch(NEAR_SINGULAR, str(hit.value))[1])) < 1e-14


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


def test_kernels_take_theta_in_the_rounding_slack_above_half_pi():
    # KernelParams admits theta up to pi/2 + 1e-12, where cos(theta) < 0 would
    # put z below the 2F1 range.
    y = np.array([0.1, 0.0])
    edge = KernelParams(2, 2, 0.3, y, 0.5 * math.pi, NU)
    past = KernelParams(2, 2, 0.3, y, 0.5 * math.pi + 5e-13, NU)
    assert past.c2 == 0.0
    assert kernel_I_closed(past) == pytest.approx(kernel_I_closed(edge), rel=1e-15)
    assert kernel_phi(past) == 0.0
    assert abs(kernel_phi(edge)) < 1e-15
    # The same slack in a hemisphere rule's theta nodes.
    rule = hemisphere_rule(2, 2, 8)
    theta = rule.theta_nodes.copy()
    theta[-1] = 0.5 * math.pi + 5e-13
    slack = HemisphereRule(2, 2, theta, rule.theta_weights, rule.nu)
    pt = BiaxialPoint(2, 2, np.array([0.3, 0.0]), y)
    got = reconstruct_ab_variants(constant_field(2, 2), pt, slack)["corrected"]
    assert got[0].coeffs[0].real == pytest.approx(1.0, abs=1e-3)


def phi_mpmath(kp):
    """Phi by mpmath.quad of the moment, folded onto [0, 1] as
    u (1-u^2)^{(p-3)/2} ((tau - c2 u)^-a - (tau + c2 u)^-a); the working
    precision grows with the digits that difference cancels."""
    tau, c2 = kp.tau, kp.c2
    digits = 30 + max(0, math.ceil(-math.log10(c2 / tau)))
    with mpmath.workdps(digits):
        t, c = mpmath.mpf(tau), mpmath.mpf(c2)
        beta = mpmath.mpf(kp.p - 3) / 2
        a = mpmath.mpf(kp.p + kp.q) / 2

        def moment(u):
            return u * (1 - u * u) ** beta * ((t - c * u) ** -a - (t + c * u) ** -a)

        return float(sphere_area(kp.p - 1) * mpmath.quad(moment, [0, 1]))


def unit_vectors(q):
    return st.lists(st.floats(-1.0, 1.0), min_size=q, max_size=q).map(np.array).filter(
        lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))


@st.composite
def kernel_points(draw):
    p = draw(st.integers(2, 6))
    q = draw(st.integers(2, 8 - p))
    # |x+y| = rho, split between r = |x| and |y| by the angle alpha.
    rho = draw(st.just(0.0) | st.floats(1e-12, 0.8999999))
    alpha = draw(st.floats(0.0, 0.5 * math.pi))
    theta = draw(st.floats(0.0, 0.5 * math.pi))
    y = rho * math.sin(alpha) * draw(unit_vectors(q))
    return KernelParams(p, q, rho * math.cos(alpha), y, theta, draw(unit_vectors(q)))


@settings(max_examples=80, deadline=None)
@given(kp=kernel_points())
def test_kernel_phi_matches_mpmath(kp):
    got = kernel_phi(kp)
    if kp.c2 == 0.0:
        assert got == 0.0
        return
    ref = phi_mpmath(kp)
    assert abs(got - ref) <= 1e-12 * abs(ref), (kp.p, kp.q, kp.r, kp.theta, got, ref)


def moments_mpmath(kp):
    """I and Phi as |S^{p-2}| mpmath.quad over [-1, 1] of
    (1-u^2)^{(p-3)/2} (tau - c2 u)^{-(p+q)/2}, times u for Phi; the working
    precision grows with the digits that Phi's odd integrand cancels."""
    tau, c2 = kp.tau, kp.c2
    digits = 30 + max(0, math.ceil(-math.log10(c2 / tau))) if c2 else 30
    with mpmath.workdps(digits):
        t, c = mpmath.mpf(tau), mpmath.mpf(c2)
        beta = mpmath.mpf(kp.p - 3) / 2
        a = mpmath.mpf(kp.p + kp.q) / 2

        def zonal(u):
            return (1 - u * u) ** beta * (t - c * u) ** -a

        i_ref = mpmath.quad(zonal, [-1, 1])
        phi_ref = mpmath.quad(lambda u: u * zonal(u), [-1, 1])
        return float(sphere_area(kp.p - 1) * i_ref), float(sphere_area(kp.p - 1) * phi_ref)


@settings(max_examples=40, deadline=None)
@given(kp=kernel_points())
def test_kernel_moments_match_mpmath_quadrature(kp):
    # Both moments inherit hyp2f1_symmetric's 1e-12; a random sample of 200
    # points (about a third with |x+y| in [0.85, 0.9]) stayed within 2.3e-14.
    i_ref, phi_ref = moments_mpmath(kp)
    case = (kp.p, kp.q, kp.r, kp.theta, kp.z)
    assert abs(kernel_I_closed(kp) - i_ref) <= 1e-12 * i_ref, case
    if kp.c2 == 0.0:
        assert kernel_phi(kp) == 0.0
    else:
        assert abs(kernel_phi(kp) - phi_ref) <= 1e-12 * abs(phi_ref), case


def test_kernel_phi_matches_96_node_quadrature_where_it_is_accurate():
    # The closed form against the Phi quadrature it replaced, for |x+y| <= 0.5
    # where 96 nodes resolve the kernel's near pole.  theta stops short of
    # pi/2, where c2 -> 0 and the rule's odd sum cancels to rounding noise.
    for p, q in ((2, 2), (3, 2), (2, 3), (4, 3), (5, 3), (2, 6), (4, 4)):
        nu = np.zeros(q)
        nu[-1] = 1.0
        yhat = np.zeros(q)
        yhat[0] = 1.0
        for r in (0.0, 0.05, 0.25, 0.5):
            for ylen in (0.0, 0.3):
                if math.hypot(r, ylen) > 0.5:
                    continue
                for theta in np.linspace(0.0, 1.5, 5):
                    kp = KernelParams(p, q, r, ylen * yhat, float(theta), nu)
                    ref = float(kernel_phi_quadrature(p, q, r, kp.tau, kp.c2))
                    got = kernel_phi(kp)
                    assert abs(got - ref) <= 1e-12 * abs(ref), (p, q, r, ylen, theta)


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
