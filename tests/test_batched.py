"""Array paths against their scalar and per-node counterparts.

Batched A/B and boundary_value rows must equal the scalar calls, and the
array reconstruction and full-sphere oracle must match the per-node
references in per_node_reference.py.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import biaxial.cauchy as cauchy
from biaxial.algebra import BiaxialPoint, Multivector
from biaxial.cauchy import FullBallCauchy, reconstruct_ab_variants
from biaxial.fields import constant_field, linear_monogenic_field
from biaxial.planewave import exp_hpw_axial_field, fourier_axial_field, poly_hpw_axial_field
from biaxial.quadrature import hemisphere_rule, sphere_rule
from per_node_reference import full_ball_per_node, reconstruct_ab_variants_per_node

FAMILIES = ("constant", "linear", "exp-hpw", "fourier", "poly")
ROW_TOL = 1e-14
REFERENCE_TOL = 1e-13


def make_field(name, p, q, s, k=3):
    if name == "constant":
        return constant_field(p, q, 1.0 - 0.5j)
    if name == "linear":
        return linear_monogenic_field(p, q, s)
    if name == "exp-hpw":
        return exp_hpw_axial_field(p, q, s)
    if name == "fourier":
        return fourier_axial_field(p, q, s)
    return poly_hpw_axial_field(p, q, s, k)


def direction(q):
    s = np.arange(1.0, q + 1.0)
    return s / np.linalg.norm(s)


def rel_gap(row, mv):
    return float(np.max(np.abs(row - mv.coeffs))) / max(1.0, mv.norm_inf)


coordinate = st.floats(-1.0, 1.0, allow_subnormal=False)
radius = st.floats(0.0, 1.5, allow_subnormal=False)


@st.composite
def ab_batches(draw):
    p = draw(st.sampled_from((2, 3)))
    q = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 6))
    r = draw(arrays(np.float64, n, elements=radius))
    r[0] = 0.0
    y = draw(arrays(np.float64, (n, q), elements=coordinate))
    return p, q, r, y


@st.composite
def sphere_batches(draw):
    p = draw(st.sampled_from((2, 3)))
    q = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(2, 6))
    eta = draw(arrays(np.float64, (n, p + q), elements=coordinate))
    eta[0, :p] = 0.0
    eta[0, p] = 1.0
    eta[1:, 0] = 1.0
    axis = draw(arrays(np.bool_, n, elements=st.booleans()))
    eta[axis, :p] = 0.0
    eta[axis, p] = 1.0
    return p, q, eta / np.linalg.norm(eta, axis=1)[:, None]


@settings(max_examples=40, deadline=None)
@given(batch=ab_batches(), name=st.sampled_from(FAMILIES), k=st.integers(0, 5))
def test_batched_ab_rows_equal_scalar_calls(batch, name, k):
    p, q, r, y = batch
    field = make_field(name, p, q, direction(q), k)
    size = 1 << (p + q)
    for part in (field.A, field.B):
        rows = part(r, y)
        assert isinstance(rows, np.ndarray) and rows.shape == (r.size, size)
        for i in range(r.size):
            value = part(float(r[i]), y[i])
            assert isinstance(value, Multivector)
            assert rel_gap(rows[i], value) <= ROW_TOL


@settings(max_examples=30, deadline=None)
@given(batch=sphere_batches(), name=st.sampled_from(FAMILIES))
def test_boundary_value_rows_equal_scalar_calls(batch, name):
    p, q, eta = batch
    field = make_field(name, p, q, direction(q))
    rows = field.boundary_value(eta)
    assert rows.shape == (eta.shape[0], 1 << (p + q))
    for i, point in enumerate(eta):
        single = field.boundary_value(point)
        assert isinstance(single, Multivector)
        assert rel_gap(rows[i], single) <= ROW_TOL
        pt = BiaxialPoint(p, q, point[:p], point[p:])
        direct = field.A(pt.r, pt.y) if pt.r < 1e-12 else field.value_at(pt)
        assert rel_gap(rows[i], direct) <= ROW_TOL


def _points(p, q):
    x = np.zeros(p)
    x[0] = 0.3
    y_mixed = np.full(q, 0.12)
    y_mixed[-1] = -0.2
    x_mixed = np.linspace(0.1, 0.2, p)
    return [
        BiaxialPoint(p, q, x, np.zeros(q)),
        BiaxialPoint(p, q, x_mixed, y_mixed),
        BiaxialPoint(p, q, np.zeros(p), y_mixed),
    ]


@pytest.mark.parametrize("p,q,res", [(2, 2, 8), (3, 2, 8), (2, 3, 4)])
@pytest.mark.parametrize("name", FAMILIES)
def test_reconstruction_matches_per_node_reference(p, q, res, name):
    field = make_field(name, p, q, direction(q))
    hrule = hemisphere_rule(p, q, res)
    for pt in _points(p, q):
        batched = reconstruct_ab_variants(field, pt, hrule)
        reference = reconstruct_ab_variants_per_node(field, pt, hrule)
        for variant, (a_ref, b_ref) in reference.items():
            a_val, b_val = batched[variant]
            assert rel_gap(a_val.coeffs, a_ref) <= REFERENCE_TOL, variant
            assert rel_gap(b_val.coeffs, b_ref) <= REFERENCE_TOL, variant


def test_reconstruction_blocks_sum_to_one_pass(monkeypatch):
    field = exp_hpw_axial_field(2, 2, direction(2))
    pt = _points(2, 2)[1]
    whole = reconstruct_ab_variants(field, pt, hemisphere_rule(2, 2, 16))
    # A fresh rule: the stored sweep of the first one keeps its blocks.
    hrule = hemisphere_rule(2, 2, 16)
    monkeypatch.setattr(cauchy, "_NODE_BLOCK", 37)
    blocked = reconstruct_ab_variants(field, pt, hrule)
    blocks, _ = cauchy._boundary_sweep(field, hrule)
    assert [block[0].size for block in blocks] == [37] * 6 + [34]
    for variant, (a_val, b_val) in whole.items():
        assert rel_gap(blocked[variant][0].coeffs, a_val) <= REFERENCE_TOL
        assert rel_gap(blocked[variant][1].coeffs, b_val) <= REFERENCE_TOL


@pytest.mark.parametrize("p,q,res", [(2, 2, 12), (3, 2, 6)])
@pytest.mark.parametrize("name", FAMILIES)
def test_full_ball_matches_per_node_reference(p, q, res, name):
    field = make_field(name, p, q, direction(q))
    rule = sphere_rule(p + q, res)
    oracle = FullBallCauchy(field.boundary_value, rule)
    pts = _points(p, q)
    for pt, reference in zip(pts, full_ball_per_node(field.boundary_value, pts, rule)):
        assert rel_gap(oracle.evaluate(pt).coeffs, reference) <= REFERENCE_TOL


def test_full_ball_rejects_scalar_only_boundary_function():
    rule = sphere_rule(4, 8)
    with pytest.raises(ValueError, match="f_boundary"):
        FullBallCauchy(lambda eta: Multivector.scalar(4, 1.0), rule)


@pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("name", FAMILIES)
def test_full_ball_live_columns_keep_the_whole_boundary_block(p, q, name):
    field = make_field(name, p, q, direction(q))
    rule = sphere_rule(p + q, 6)
    values = np.asarray(field.boundary_value(rule.points), dtype=np.complex128)
    live, block, width = FullBallCauchy(field.boundary_value, rule)._cols
    assert width == 2 * values.shape[1]
    scattered = np.zeros((rule.points.shape[0], width))
    scattered[:, live] = block
    assert np.array_equal(scattered.view(np.complex128), values)
    if name == "fourier":
        assert np.any(live % 2 == 1)  # odd float columns are imaginary parts


def test_full_ball_of_zero_boundary_data_is_zero():
    rule = sphere_rule(4, 8)
    oracle = FullBallCauchy(lambda eta: np.zeros((eta.shape[0], 16)), rule)
    assert oracle._cols[0].size == 0
    for pt in _points(2, 2):
        out = oracle.evaluate(pt).coeffs
        assert out.shape == (16,) and not np.any(out)


def test_full_ball_takes_real_boundary_data():
    p, q = 3, 2
    field = linear_monogenic_field(p, q, direction(q))
    rule = sphere_rule(p + q, 6)
    real = FullBallCauchy(lambda eta: field.boundary_value(eta).real, rule)
    as_complex = FullBallCauchy(lambda eta: field.boundary_value(eta).real.astype(complex), rule)
    pts = _points(p, q)
    references = full_ball_per_node(
        lambda eta: Multivector(p + q, field.boundary_value(eta).coeffs.real), pts, rule)
    for pt, reference in zip(pts, references):
        got = real.evaluate(pt).coeffs
        assert np.array_equal(got, as_complex.evaluate(pt).coeffs)
        assert rel_gap(got, reference) <= REFERENCE_TOL
