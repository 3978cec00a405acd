import math
import tracemalloc

import numpy as np
import pytest

from biaxial.quadrature import (
    funk_hecke_check,
    gauss_jacobi_rule,
    hemisphere_rule,
    sphere_area,
    sphere_rule,
)

from quadrature_reference import sphere_rule_repeat_tile


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi ** 2)


def test_gauss_legendre_exactness():
    rule = gauss_jacobi_rule(2, 0.0)
    assert rule.integrate(lambda t: t ** 2) == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_chebyshev_total_weight():
    rule = gauss_jacobi_rule(16, -0.5)
    assert rule.total_weight == pytest.approx(math.pi, rel=1e-13)


def test_weighted_even_moment():
    # Int u^2 (1-u^2)^(1/2) du = Gamma(3/2)^2 / Gamma(3) = pi/8.
    rule = gauss_jacobi_rule(8, 0.5)
    assert rule.integrate(lambda u: u ** 2) == pytest.approx(math.pi / 8.0, rel=1e-13)


def test_total_weight_matches_beta_integral():
    for alpha in (-0.5, 0.0, 0.5, 1.5):
        rule = gauss_jacobi_rule(24, alpha)
        expected = math.sqrt(math.pi) * math.gamma(alpha + 1.0) / math.gamma(alpha + 1.5)
        assert rule.total_weight == pytest.approx(expected, rel=1e-13)


def test_polynomial_exactness_to_degree():
    # Degree 2n-1 exactness for the weighted moments.
    rule = gauss_jacobi_rule(6, 1.0)
    for deg in range(0, 12, 2):
        exact = math.sqrt(math.pi) * math.gamma((deg + 1) / 2.0) * math.gamma(2.0) \
            / (math.gamma(deg / 2.0 + 1.0) * math.gamma((deg + 1) / 2.0 + 2.5)) \
            * math.gamma((deg + 1) / 2.0 + 0.5) / math.gamma(0.5)
        # Compare against a fine reference rule instead of juggling Beta identities.
        ref = gauss_jacobi_rule(64, 1.0).integrate(lambda t, d=deg: t ** d)
        assert rule.integrate(lambda t, d=deg: t ** d) == pytest.approx(ref, abs=1e-14)


def test_odd_moments_vanish():
    rule = gauss_jacobi_rule(9, 0.5)
    for deg in (1, 3, 5, 7):
        assert abs(rule.integrate(lambda t, d=deg: t ** d)) < 1e-15


def test_invalid_exponent():
    with pytest.raises(ValueError):
        gauss_jacobi_rule(4, -1.0)


def test_sphere_rule_total_weights():
    assert sphere_rule(1).total_weight == pytest.approx(2.0)
    assert sphere_rule(2, 32).total_weight == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert sphere_rule(3, 24).total_weight == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert sphere_rule(4, 16).total_weight == pytest.approx(sphere_area(4), rel=1e-10)
    assert sphere_rule(5, 10).total_weight == pytest.approx(sphere_area(5), rel=1e-10)


def test_sphere_points_are_unit():
    for d in (2, 3, 4, 5):
        rule = sphere_rule(d, 10)
        norms = np.linalg.norm(rule.points, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-14)


def test_circle_second_moment():
    rule = sphere_rule(2, 32)
    c = np.array([1.0, 0.0])
    val = float(np.dot(rule.weights, (rule.points @ c) ** 2))
    assert val == pytest.approx(math.pi, rel=1e-13)


def test_sphere_odd_polynomials_vanish():
    for d in (2, 3, 4):
        rule = sphere_rule(d, 12)
        val = np.tensordot(rule.weights, rule.points, axes=(0, 0))
        assert np.max(np.abs(val)) < 1e-12
        cubic = float(np.dot(rule.weights, rule.points[:, 0] ** 3))
        assert abs(cubic) < 1e-12


def test_sphere_second_moment_isotropy():
    for d in (3, 4):
        rule = sphere_rule(d, 16)
        c = np.ones(d) / math.sqrt(d)
        val = float(np.dot(rule.weights, (rule.points @ c) ** 2))
        assert val == pytest.approx(sphere_area(d) / d, rel=1e-12)


def test_sphere_dimension_guard():
    with pytest.raises(ValueError):
        sphere_rule(7)


def _pulled_back(rule, resolution):
    """Sphere nodes eta and weights of a hemisphere rule with the omega rule
    sphere_rule(p, resolution), theta-major order."""
    omega = sphere_rule(rule.p, resolution)
    pts = []
    wts = []
    for theta, wt in zip(rule.theta_nodes, rule.theta_weights):
        c, s = math.cos(theta), math.sin(theta)
        for om, wo in zip(omega.points, omega.weights):
            block = np.concatenate(
                [np.tile(c * om, (len(rule.nu.points), 1)), s * rule.nu.points], axis=1
            )
            pts.append(block)
            wts.append(wt * wo * rule.nu.weights)
    return np.concatenate(pts), np.concatenate(wts)


def test_hemisphere_total_weight_small():
    rule = hemisphere_rule(2, 2, 24)
    assert np.sum(_pulled_back(rule, 24)[1]) == pytest.approx(2.0 * math.pi ** 2, rel=1e-12)


def test_hemisphere_total_weight_mixed():
    rule = hemisphere_rule(3, 2, 16)
    assert np.sum(_pulled_back(rule, 16)[1]) == pytest.approx(8.0 * math.pi ** 2 / 3.0, rel=1e-11)


def test_hemisphere_rule_requests_only_the_nu_sphere(monkeypatch):
    import biaxial.quadrature as quadrature

    real = quadrature.sphere_rule
    requested = []

    def spy(d, resolution=64):
        requested.append((d, resolution))
        return real(d, resolution)

    monkeypatch.setattr(quadrature, "sphere_rule", spy)
    rule = hemisphere_rule(3, 2, 10)
    assert requested == [(2, 10)]
    assert np.array_equal(rule.nu.points, real(2, 10).points)


def test_hemisphere_requires_two_dims():
    with pytest.raises(ValueError):
        hemisphere_rule(2, 1)


def test_hemisphere_odd_integrand_vanishes():
    rule = hemisphere_rule(2, 2, 12)
    pts, wts = _pulled_back(rule, 12)
    val = np.tensordot(wts, pts, axes=(0, 0))
    assert np.max(np.abs(val)) < 1e-12


def test_hemisphere_matches_direct_sphere_rule():
    rule = hemisphere_rule(2, 2, 24)
    direct = sphere_rule(4, 24)

    def fn(pts):
        return np.exp(pts[:, 0] - 0.5 * pts[:, 2]) * (1.0 + pts[:, 1] * pts[:, 3])

    pts, wts = _pulled_back(rule, 24)
    via_hemisphere = float(np.dot(wts, fn(pts)))
    via_sphere = float(np.dot(direct.weights, fn(direct.points)))
    assert via_hemisphere == pytest.approx(via_sphere, rel=1e-8)


def test_funk_hecke_constant_on_two_sphere():
    lhs, rhs = funk_hecke_check(lambda t: np.ones_like(t), 0, 3, resolution=24)
    assert lhs == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert rhs == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_funk_hecke_circle_linear():
    lhs, rhs = funk_hecke_check(lambda t: t, 1, 2, resolution=64)
    assert lhs == pytest.approx(math.pi, rel=1e-12)
    assert rhs == pytest.approx(math.pi, rel=1e-12)


def test_funk_hecke_odd_psi_kills_constant_harmonic():
    lhs, rhs = funk_hecke_check(lambda t: t ** 3, 0, 4, resolution=20)
    assert abs(lhs) < 1e-12
    assert abs(rhs) < 1e-12


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_funk_hecke_agreement_battery(m, k):
    res = {2: 96, 3: 32, 4: 24, 5: 16}[m]
    for name, psi in [
        ("one", lambda t: np.ones_like(t)),
        ("t", lambda t: t),
        ("t2", lambda t: t ** 2),
        ("t3", lambda t: t ** 3),
        ("exp", np.exp),
    ]:
        lhs, rhs = funk_hecke_check(psi, k, m, resolution=res)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-8, (name, m, k, lhs, rhs)


def test_sphere_rule_node_budget_is_checked_before_allocation(refuse_polar_rules):
    import biaxial.quadrature as quadrature

    limit = str(quadrature.MAX_SPHERE_NODES)
    with pytest.raises(ValueError, match=rf"needs {96 ** 4} nodes, above the limit of {limit}"):
        sphere_rule(5, 96)
    with pytest.raises(ValueError, match=rf"needs {40 ** 5} nodes, above the limit of {limit}"):
        hemisphere_rule(2, 6, 40)


def test_sphere_rule_budget_admits_the_finest_cli_rule():
    rule = sphere_rule(4, 96)
    assert rule.points.shape == (96 ** 3, 4)


@pytest.mark.parametrize("d, res", [(1, 8), (2, 16), (3, 2), (3, 64), (4, 48), (5, 20), (6, 8)])
def test_sphere_rule_matches_repeat_tile_builder_bit_for_bit(d, res):
    rule = sphere_rule(d, res)
    ref = sphere_rule_repeat_tile(d, res)
    assert np.array_equal(rule.points, ref.points)
    assert np.array_equal(rule.weights, ref.weights)


def test_sphere_rule_peak_memory_is_close_to_what_it_keeps():
    # Building in place allocates little beyond the kept points and weights;
    # repeat/tile copies peaked at 2.2x.
    sphere_rule(4, 48)  # Jacobi factors are cached; do not trace them.
    tracemalloc.start()
    try:
        rule = sphere_rule(4, 48)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept >= rule.points.nbytes + rule.weights.nbytes
    assert peak <= 1.2 * kept, (peak, kept)
