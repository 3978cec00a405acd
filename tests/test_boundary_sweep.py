"""The stored point-independent half of the hemisphere sweep: the same bits
as a freshly built sweep, the values of the sweep it replaced
(tests/sweep_reference.py) to rounding, one A and one B call per block for
a (field, rule) pair, and a lifetime bounded by both."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from biaxial import cauchy
from biaxial.algebra import BiaxialPoint, Multivector, embed_vector
from biaxial.cauchy import reconstruct_ab_variants
from biaxial.fields import AxialField, constant_field, linear_monogenic_field
from biaxial.planewave import exp_hpw_axial_field, fourier_axial_field, poly_hpw_axial_field
from biaxial.quadrature import hemisphere_rule, sphere_area, sphere_rule

import sweep_reference as reference

FAMILIES = ("constant", "constant-complex", "linear", "exp-hpw", "fourier", "poly")
# (p, q, res): hemisphere rules of res^q nodes; 17^3 = 4,913 spans two blocks.
SPLITS = ((2, 2, 24), (3, 2, 20), (2, 3, 17))


def make_field(name, p, q):
    s = np.arange(1.0, q + 1.0)
    s /= np.linalg.norm(s)
    return {
        "constant": lambda: constant_field(p, q),
        "constant-complex": lambda: constant_field(p, q, 1.0 - 0.5j),
        "linear": lambda: linear_monogenic_field(p, q, s),
        "exp-hpw": lambda: exp_hpw_axial_field(p, q, s),
        "fourier": lambda: fourier_axial_field(p, q, s),
        "poly": lambda: poly_hpw_axial_field(p, q, s, 3),
    }[name]()


def points(p, q):
    """On the axis, at y = 0, and two general interior points."""
    xs = (np.zeros(p), np.full(p, 0.3 / p), np.linspace(-0.2, 0.25, p), np.full(p, -0.1))
    ys = (np.linspace(0.1, -0.2, q), np.zeros(q), np.full(q, 0.15), np.linspace(-0.3, 0.3, q))
    return [BiaxialPoint(p, q, x, y) for x, y in zip(xs, ys)]


def counting(field):
    """field with A and B wrapped to count their calls in calls["A"], calls["B"]."""
    calls = {"A": 0, "B": 0}

    def wrap(name, fn):
        def counted(r, y):
            calls[name] += 1
            return fn(r, y)
        return counted

    return dataclasses.replace(field, A=wrap("A", field.A), B=wrap("B", field.B)), calls


def term_scale(field, pt, hrule):
    """A bound on the terms of every variant coefficient: the variants add
    the sweep's moments, their products by e_{p+1}..e_{p+q} and those sums
    times r or the vector y, so (1 + (r + |y|_1)(q + 1)) times the largest
    moment bounds them."""
    blocks, cols = cauchy._boundary_sweep(field, hrule)
    mom = sum(cauchy._node_moments(field.p, field.q, pt.r, pt.y, block, block_cols)
              for block, block_cols in zip(blocks, cols))
    largest = np.max(np.abs(mom)) / sphere_area(field.p + field.q)
    return (1.0 + (pt.r + np.sum(np.abs(pt.y))) * (field.q + 1)) * largest


@pytest.mark.parametrize("p,q,res", SPLITS)
@pytest.mark.parametrize("name", FAMILIES)
def test_stored_sweep_equals_the_sweep_it_replaced(p, q, res, name):
    field, calls = counting(make_field(name, p, q))
    hrule = hemisphere_rule(p, q, res)
    n_blocks = -(-res ** q // cauchy._NODE_BLOCK)
    assert (n_blocks > 1) == (q == 3)
    floor = 4 * (p + q) * np.finfo(float).smallest_subnormal
    for pt in points(p, q):
        got = reconstruct_ab_variants(field, pt, hrule)
        # A new field and rule build their sweep afresh.
        fresh = reconstruct_ab_variants(make_field(name, p, q), pt, hemisphere_rule(p, q, res))
        want = reference.reconstruct_ab_variants(field, pt, hrule)
        bound = 1e-14 * term_scale(field, pt, hrule) + floor
        for variant, pair in want.items():
            for g, f, w in zip(got[variant], fresh[variant], pair):
                assert g.coeffs.tobytes() == f.coeffs.tobytes(), variant
                assert np.all(np.abs(g.coeffs - w.coeffs) <= bound), variant
    # One A and one B call per block for the library, the rest from the reference.
    n_points = len(points(p, q))
    assert calls == {"A": n_blocks * (n_points + 1), "B": n_blocks * (n_points + 1)}


def test_each_rule_keeps_its_own_blocks_and_fields():
    rule_a, rule_b = hemisphere_rule(2, 2, 8), hemisphere_rule(2, 2, 8)
    pt = points(2, 2)[2]
    const, wave = make_field("constant", 2, 2), make_field("exp-hpw", 2, 2)
    for rule in (rule_a, rule_b):
        for field in (const, wave):
            want = reference.reconstruct_ab_variants(field, pt, rule)["corrected"]
            got = reconstruct_ab_variants(field, pt, rule)["corrected"]
            assert all(g.coeffs.tobytes() == w.coeffs.tobytes() for g, w in zip(got, want))
    blocks, per_field = cauchy._SWEEPS[rule_a]
    assert set(per_field) == {const, wave}
    assert cauchy._SWEEPS[rule_b][0] is not blocks


def test_the_sweep_lives_only_as_long_as_its_field_and_its_rule():
    pt = points(2, 2)[3]
    field, hrule = make_field("exp-hpw", 2, 2), hemisphere_rule(2, 2, 8)
    reconstruct_ab_variants(field, pt, hrule)
    per_field = cauchy._SWEEPS[hrule][1]
    field_ref = weakref.ref(field)
    del field
    gc.collect()
    assert field_ref() is None and len(per_field) == 0

    field = make_field("exp-hpw", 2, 2)
    reconstruct_ab_variants(field, pt, hrule)
    field_ref, rule_ref = weakref.ref(field), weakref.ref(hrule)
    del field, hrule, per_field
    gc.collect()
    assert field_ref() is None and rule_ref() is None


def test_the_rule_dies_while_its_field_lives():
    field, hrule = make_field("linear", 2, 2), hemisphere_rule(2, 2, 8)
    reconstruct_ab_variants(field, points(2, 2)[1], hrule)
    rule_ref = weakref.ref(hrule)
    del hrule
    gc.collect()
    assert rule_ref() is None
    assert all(field not in per_field for _, per_field in cauchy._SWEEPS.values())


@pytest.mark.parametrize("rule", [
    hemisphere_rule(2, 3, 8).nu, sphere_rule(1), sphere_rule(2, 8), sphere_rule(4, 6),
])
def test_sphere_rule_arrays_are_read_only(rule):
    for array in (rule.points, rule.weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_hemisphere_rule_arrays_are_read_only():
    hrule = hemisphere_rule(3, 2, 8)
    for array in (hrule.theta_nodes, hrule.theta_weights, hrule.nu.points, hrule.nu.weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_a_scalar_only_field_raises_and_stores_nothing():
    p, q = 2, 2
    dim = p + q
    s = np.array([1.0, 0.0])
    scalar_only = AxialField(
        p, q, A=lambda r, y: Multivector.scalar(dim, float(np.dot(y, s))),
        B=lambda r, y: embed_vector(dim, p, (r / p) * s))
    pt = points(p, q)[2]
    hrule = hemisphere_rule(p, q, 8)
    with pytest.raises(TypeError):
        reconstruct_ab_variants(scalar_only, pt, hrule)
    assert hrule not in cauchy._SWEEPS
    # Nor beside a field whose sweep the rule already keeps.
    linear = make_field("linear", p, q)
    reconstruct_ab_variants(linear, pt, hrule)
    with pytest.raises(TypeError):
        reconstruct_ab_variants(scalar_only, pt, hrule)
    assert set(cauchy._SWEEPS[hrule][1]) == {linear}
