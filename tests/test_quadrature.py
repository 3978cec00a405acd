import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from biaxial.quadrature import (
    SphereRule,
    _funk_hecke_rules,
    _funk_hecke_sides,
    funk_hecke_check,
    gauss_jacobi_rule,
    hemisphere_rule,
    sphere_area,
    sphere_rule,
)

from quadrature_reference import sphere_rule_repeat_tile


def _integrate(rule, fn) -> float:
    """Weighted sum of fn over the nodes of an interval rule."""
    return float(np.dot(rule.weights, fn(rule.nodes)))


def _total_weight(rule) -> float:
    return float(np.sum(rule.weights))


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi ** 2)


def test_gauss_legendre_exactness():
    rule = gauss_jacobi_rule(2, 0.0)
    assert _integrate(rule, lambda t: t ** 2) == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_chebyshev_total_weight():
    rule = gauss_jacobi_rule(16, -0.5)
    assert _total_weight(rule) == pytest.approx(math.pi, rel=1e-13)


def test_weighted_even_moment():
    # Int u^2 (1-u^2)^(1/2) du = Gamma(3/2)^2 / Gamma(3) = pi/8.
    rule = gauss_jacobi_rule(8, 0.5)
    assert _integrate(rule, lambda u: u ** 2) == pytest.approx(math.pi / 8.0, rel=1e-13)


def test_total_weight_matches_beta_integral():
    for alpha in (-0.5, 0.0, 0.5, 1.5):
        rule = gauss_jacobi_rule(24, alpha)
        expected = math.sqrt(math.pi) * math.gamma(alpha + 1.0) / math.gamma(alpha + 1.5)
        assert _total_weight(rule) == pytest.approx(expected, rel=1e-13)


def test_polynomial_exactness_to_degree():
    # Degree 2n-1 exactness for the weighted moments.
    rule = gauss_jacobi_rule(6, 1.0)
    for deg in range(0, 12, 2):
        exact = math.sqrt(math.pi) * math.gamma((deg + 1) / 2.0) * math.gamma(2.0) \
            / (math.gamma(deg / 2.0 + 1.0) * math.gamma((deg + 1) / 2.0 + 2.5)) \
            * math.gamma((deg + 1) / 2.0 + 0.5) / math.gamma(0.5)
        # Compare against a fine reference rule instead of juggling Beta identities.
        ref = _integrate(gauss_jacobi_rule(64, 1.0), lambda t, d=deg: t ** d)
        assert _integrate(rule, lambda t, d=deg: t ** d) == pytest.approx(ref, abs=1e-14)


def test_odd_moments_vanish():
    rule = gauss_jacobi_rule(9, 0.5)
    for deg in (1, 3, 5, 7):
        assert abs(_integrate(rule, lambda t, d=deg: t ** d)) < 1e-15


def test_invalid_exponent():
    with pytest.raises(ValueError):
        gauss_jacobi_rule(4, -1.0)


def test_sphere_rule_total_weights():
    assert _total_weight(sphere_rule(1)) == pytest.approx(2.0)
    assert _total_weight(sphere_rule(2, 32)) == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert _total_weight(sphere_rule(3, 24)) == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert _total_weight(sphere_rule(4, 16)) == pytest.approx(sphere_area(4), rel=1e-10)
    assert _total_weight(sphere_rule(5, 10)) == pytest.approx(sphere_area(5), rel=1e-10)


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


PSI_BATTERY = [
    ("one", lambda t: np.ones_like(t)),
    ("t", lambda t: t),
    ("t2", lambda t: t ** 2),
    ("t3", lambda t: t ** 3),
    ("exp", np.exp),
]
FUNK_HECKE_RES = {2: 96, 3: 32, 4: 24, 5: 16}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_funk_hecke_agreement_battery(m, k):
    for name, psi in PSI_BATTERY:
        lhs, rhs = funk_hecke_check(psi, k, m, resolution=FUNK_HECKE_RES[m])
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-8, (name, m, k, lhs, rhs)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_funk_hecke_battery_call_gives_the_one_psi_sides(m, k):
    rules = _funk_hecke_rules(m, FUNK_HECKE_RES[m])
    psis = [psi for _, psi in PSI_BATTERY]
    battery = _funk_hecke_sides(psis, k, m, *rules)
    singles = [_funk_hecke_sides([psi], k, m, *rules)[0] for psi in psis]
    assert len(battery) == len(psis)
    assert np.array(battery).tobytes() == np.array(singles).tobytes()


def test_sphere_rule_node_budget_is_checked_before_allocation(refuse_polar_rules):
    import biaxial.quadrature as quadrature

    limit = quadrature.MAX_SPHERE_NODES
    message = "node count of sphere_rule({}) must lie in [1, {}], got {}"
    with pytest.raises(ValueError, match=f"^{re.escape(message.format('5, 96', limit, 96 ** 4))}$"):
        sphere_rule(5, 96)
    with pytest.raises(ValueError, match=f"^{re.escape(message.format('6, 40', limit, 40 ** 5))}$"):
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


def _traced(call):
    """(result, kept bytes, peak bytes) of call under tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def test_sphere_rule_keeps_its_factors_not_its_node_array():
    sphere_rule(4, 48)  # Jacobi factors are cached; do not trace them.
    rule, kept, _ = _traced(lambda: sphere_rule(4, 48))
    assert kept < 0.1 * (rule.points.nbytes + rule.weights.nbytes), kept


def test_first_access_to_points_peaks_close_to_what_it_keeps():
    # The arrays are filled in place; repeat/tile copies peaked at 2.2x.
    rule = sphere_rule(4, 48)
    (points, weights), kept, peak = _traced(lambda: (rule.points, rule.weights))
    assert kept >= points.nbytes + weights.nbytes
    assert peak <= 1.2 * kept, (peak, kept)
    assert rule.points is points and rule.weights is weights


# Per sphere: a rule of one slab per polar node, and for the product rules
# one whose slabs do not divide the block sizes below.
BLOCK_RULES = [(1, 8), (2, 16), (3, 2), (3, 12), (4, 7), (4, 17), (5, 6), (6, 5)]


@pytest.mark.parametrize("d, res", BLOCK_RULES)
def test_blocks_are_the_slices_of_points_and_weights_bit_for_bit(d, res):
    rule = sphere_rule(d, res)
    slab = rule.size // res if d > 2 else 1  # rows per polar node
    # Below one slab, off a multiple of it, past one and a half slabs, every
    # row in one block and more rows than the rule has.
    sizes = sorted({1, max(slab - 1, 1), slab + 1, 3 * slab // 2 + 1, rule.size, rule.size + 5})
    walks = {n: [(pts.copy(), w.copy()) for pts, w in rule.blocks(n)] for n in sizes}
    points, weights = rule.points, rule.weights
    for n, walk in walks.items():
        starts = range(0, rule.size, n)
        assert [w.size for _, w in walk] == [min(n, rule.size - a) for a in starts]
        for a, (pts, w) in zip(starts, walk):
            assert pts.tobytes() == points[a:a + n].tobytes()
            assert w.tobytes() == weights[a:a + n].tobytes()


def test_blocks_are_read_only_views_of_one_buffer_pair():
    walk = sphere_rule(4, 6).blocks(10)
    pts, w = next(walk)
    assert not pts.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        pts[0, 0] = 0.0
    later, later_w = next(walk)
    assert np.shares_memory(pts, later) and np.shares_memory(w, later_w)


def test_a_rule_given_its_arrays_keeps_them_and_its_blocks_slice_them():
    points = np.arange(14.0).reshape(7, 2)
    weights = np.arange(7.0)
    rule = SphereRule(2, points, weights)
    assert rule.points is points and rule.weights is weights and rule.size == 7
    walk = list(rule.blocks(3))
    assert [w.tolist() for _, w in walk] == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0]]
    assert all(np.shares_memory(pts, points) for pts, _ in walk)


def test_sphere_rules_compare_and_hash_by_identity():
    a, b = sphere_rule(3, 8), sphere_rule(3, 8)
    assert a == a and a != b
    assert hash(a) == hash(a)
    keyed = weakref.WeakKeyDictionary({a: 1})
    assert keyed[a] == 1 and b not in keyed
