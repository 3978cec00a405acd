import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import probe_reference
import product_reference as ref
from biaxial.algebra import (
    MAX_DIM,
    BiaxialPoint,
    Multivector,
    _matrix_tables,
    _vector_product_parts,
    batch_product,
    batch_vector_product,
    blade_grades,
    blade_name,
    vector_exterior,
    vector_interior,
)
from biaxial.rng import SplitMix64


def e(dim, i):
    return Multivector.basis_vector(dim, i)


def random_mv(rng, dim):
    return Multivector(dim, rng.complex_coeffs(1 << dim))


def grade_involution(a):
    """Main involution: each grade-k part scaled by (-1)^k."""
    return Multivector(a.dim, np.where(blade_grades(a.dim) % 2 == 0, 1, -1) * a.coeffs)


def rel_err(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / scale


def test_generator_squares_to_minus_one():
    sq = e(3, 1) * e(3, 1)
    np.testing.assert_allclose(sq.coeffs, Multivector.scalar(3, -1.0).coeffs)


def test_generators_anticommute():
    lhs = e(3, 1) * e(3, 2) + e(3, 2) * e(3, 1)
    assert lhs.norm_inf == 0.0


def test_embedded_vector_squares_to_minus_norm():
    pt = BiaxialPoint(2, 1, np.array([3.0, 4.0]), np.array([0.0]))
    v = pt.embed()
    sq = v * v
    np.testing.assert_allclose(sq.coeffs[0], -25.0)
    assert np.max(np.abs(sq.coeffs[1:])) < 1e-14


def test_anticommutator_gives_inner_product():
    rng = SplitMix64(7)
    for _ in range(50):
        dim = 2 + rng.next_u64() % 7
        u = rng.uniform_array(dim, -1, 1)
        v = rng.uniform_array(dim, -1, 1)
        mu = Multivector.vector(dim, u)
        mv = Multivector.vector(dim, v)
        anti = mu * mv + mv * mu
        expected = Multivector.scalar(dim, -2.0 * np.dot(u, v))
        assert rel_err(anti.coeffs, expected.coeffs) < 1e-12


def test_product_associative_on_random_triples():
    rng = SplitMix64(11)
    for _ in range(60):
        dim = 2 + rng.next_u64() % 7
        a, b, c = (random_mv(rng, dim) for _ in range(3))
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert rel_err(lhs.coeffs, rhs.coeffs) < 1e-12


def test_product_distributes():
    rng = SplitMix64(13)
    a, b, c = (random_mv(rng, 4) for _ in range(3))
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert rel_err(lhs.coeffs, rhs.coeffs) < 1e-13


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        Multivector.scalar(2, 1.0) * Multivector.scalar(3, 1.0)


def test_grade_projection_picks_blades():
    a = Multivector.scalar(2, 1.0) + e(2, 1) + e(2, 1) * e(2, 2)
    np.testing.assert_allclose(a.grade(1).coeffs, e(2, 1).coeffs)
    assert (e(2, 1) * e(2, 2)).grade(0).norm_inf == 0.0


def test_grade_projections_sum_to_element():
    rng = SplitMix64(17)
    for _ in range(20):
        dim = 2 + rng.next_u64() % 7
        a = random_mv(rng, dim)
        total = Multivector.zero(dim)
        for k in range(dim + 1):
            total = total + a.grade(k)
        np.testing.assert_array_equal(total.coeffs, a.coeffs)


def test_grade_out_of_range():
    with pytest.raises(ValueError):
        Multivector.scalar(2, 1.0).grade(3)


def test_interior_of_scalar_vanishes():
    assert vector_interior(e(3, 1), Multivector.scalar(3, 1.0)).norm_inf == 0.0


def test_interior_lowers_bivector():
    # e1 . (e1 e2) = ((e1)(e1 e2) - (e1 e2)(e1)) / 2 = -e2 by blade arithmetic.
    out = vector_interior(e(3, 1), e(3, 1) * e(3, 2))
    np.testing.assert_allclose(out.coeffs, (-e(3, 2)).coeffs)


def test_orthogonal_vectors_interior_exterior():
    x = Multivector.vector(4, [1.0, 0, 0, 0])
    y = Multivector.vector(4, [0, 2.0, 0, 0])
    assert vector_interior(x, y).norm_inf == 0.0
    np.testing.assert_allclose(vector_exterior(x, y).coeffs, (x * y).coeffs)


def test_interior_plus_exterior_is_product():
    rng = SplitMix64(23)
    for _ in range(200):
        dim = 2 + rng.next_u64() % 7
        x = Multivector.vector(dim, rng.complex_coeffs(dim))
        a = random_mv(rng, dim)
        recombined = vector_interior(x, a) + vector_exterior(x, a)
        assert rel_err(recombined.coeffs, (x * a).coeffs) < 1e-12


def test_interior_exterior_match_half_formulas():
    rng = SplitMix64(29)
    for _ in range(40):
        dim = 2 + rng.next_u64() % 5
        x = Multivector.vector(dim, rng.complex_coeffs(dim))
        a = random_mv(rng, dim)
        xa = x * a
        ax_inv = grade_involution(a) * x
        np.testing.assert_allclose(
            vector_interior(x, a).coeffs, 0.5 * (xa - ax_inv).coeffs, atol=1e-12
        )
        np.testing.assert_allclose(
            vector_exterior(x, a).coeffs, 0.5 * (xa + ax_inv).coeffs, atol=1e-12
        )


def test_interior_requires_vector():
    with pytest.raises(ValueError):
        vector_interior(Multivector.scalar(2, 1.0), Multivector.scalar(2, 1.0))


def test_biaxial_blocks_anticommute():
    pt = BiaxialPoint(2, 2, np.array([0.7, -0.3]), np.array([0.2, 1.1]))
    vx = pt.embed_x()
    vy = pt.embed_y_vector(pt.y)
    anti = vx * vy + vy * vx
    assert anti.norm_inf < 1e-15
    v = pt.embed()
    sq = v * v
    np.testing.assert_allclose(sq.coeffs[0], -(0.7 ** 2 + 0.3 ** 2 + 0.2 ** 2 + 1.1 ** 2))


def test_batch_vector_mv_matches_scalar_path():
    rng = SplitMix64(31)
    dim = 4
    n = 16
    comps = np.array([rng.uniform_array(dim, -1, 1) for _ in range(n)])
    mats = np.array([rng.complex_coeffs(1 << dim) for _ in range(n)])
    rows = _vector_rows(comps, dim)
    out = batch_vector_product(comps, mats, dim)
    assert out.tobytes() == batch_product(rows, mats, dim).tobytes()
    # batch_vector_mv, the deleted vector-times-multivector kernel, lives on
    # in probe_reference.
    _close_to(out, probe_reference.batch_vector_mv(comps, mats, dim), rows, mats, dim)
    for row in range(n):
        direct = Multivector.vector(dim, comps[row]) * Multivector(dim, mats[row])
        assert direct.coeffs.tobytes() == out[row].tobytes()


@st.composite
def product_batches(draw):
    """(dim, a, b): N coefficient rows per factor, with some blade columns of
    a zero in every row, some rows of a or b all zero and some rows of a
    pure vectors."""
    dim = draw(st.integers(1, 8))
    n = draw(st.integers(1, 5))
    shape = (n, 1 << dim)
    part = st.floats(-4.0, 4.0, allow_nan=False)
    a, b = (draw(arrays(np.float64, shape, elements=part))
            + 1j * draw(arrays(np.float64, shape, elements=part)) for _ in range(2))
    a[:, draw(arrays(np.bool_, shape[1]))] = 0.0
    a[draw(arrays(np.bool_, n))] = 0.0
    b[draw(arrays(np.bool_, n))] = 0.0
    a[np.ix_(draw(arrays(np.bool_, n)), blade_grades(dim) != 1)] = 0.0
    return dim, a, b


def _vector_rows(comps, dim):
    """Coefficient rows of the vectors with components comps (N, dim)."""
    rows = np.zeros((comps.shape[0], 1 << dim), dtype=np.complex128)
    rows[:, 1 << np.arange(dim)] = comps
    return rows


def _close_to(got, want, a, b, dim):
    """got meets want, a product of the rows a, b, to 1e-14 of the rows'
    scale sum |a_n| max |b_n|, which bounds every coefficient, plus 4 dim
    subnormal units: below the normal range each product rounds to an
    absolute 2^-1074 grid, where 1e-14 of the scale underflows to 0."""
    scale = np.sum(np.abs(a), axis=1) * np.max(np.abs(b), axis=1)
    floor = 4 * dim * np.finfo(float).smallest_subnormal
    assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-14 * scale + floor)


def _close_to_loop(got, a, b, dim):
    """got meets the blade-loop product of the rows a, b (_close_to)."""
    _close_to(got, ref.batch_product(a, b, dim), a, b, dim)


@settings(max_examples=80, deadline=None)
@given(product_batches())
# Products of subnormal size: the paths differ by one unit of 2^-1074.
@example((1, np.array([[1.297e-159j, 1.297e-159j]]), np.array([[1.297e-159, 0.0]])))
def test_batch_product_rows_are_the_per_pair_product(batch):
    dim, a, b = batch
    out = batch_product(a, b, dim)
    assert out.shape == a.shape and out.dtype == np.complex128
    _close_to_loop(out, a, b, dim)
    for n in range(a.shape[0]):
        one_row = Multivector(dim, a[n]) * Multivector(dim, b[n])
        assert one_row.coeffs.tobytes() == out[n].tobytes()


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 10), n=st.integers(1, 3), data=st.data())
def test_matrix_product_meets_the_blade_loop(dim, n, data):
    part = st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)
    a, b = (data.draw(arrays(np.float64, (n, 1 << dim), elements=part))
            + 1j * data.draw(arrays(np.float64, (n, 1 << dim), elements=part)) for _ in range(2))
    _close_to_loop(batch_product(a, b, dim), a, b, dim)


@pytest.mark.parametrize("dim", [3, 8])
@pytest.mark.parametrize("rows", [1, 2, 7, 20, 37])
def test_batch_product_row_is_the_one_row_product_for_any_batch(dim, rows):
    rng = np.random.default_rng(rows * 100 + dim)
    a, b = (rng.standard_normal((rows, 1 << dim)) + 1j * rng.standard_normal((rows, 1 << dim))
            for _ in range(2))
    out = batch_product(a, b, dim)
    for n in range(rows):
        one_row = Multivector(dim, a[n]) * Multivector(dim, b[n])
        assert one_row.coeffs.tobytes() == out[n].tobytes()


def test_generators_anticommute_at_the_largest_dim():
    _matrix_tables.cache_clear()
    tracemalloc.start()
    try:
        e(MAX_DIM, 1) * e(MAX_DIM, MAX_DIM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    for i in range(1, MAX_DIM + 1):
        for j in range(i, MAX_DIM + 1):
            anti = e(MAX_DIM, i) * e(MAX_DIM, j) + e(MAX_DIM, j) * e(MAX_DIM, i)
            expected = Multivector.scalar(MAX_DIM, -2.0 if i == j else 0.0)
            assert np.array_equal(anti.coeffs, expected.coeffs), (i, j)


@st.composite
def vector_factors(draw):
    """(dim, x, b): N rows of vector components, with some components zero
    in every row and some rows zero, and N coefficient rows with -0.0 parts."""
    dim = draw(st.integers(1, 10))
    n = draw(st.integers(1, 4))
    part = st.floats(-4.0, 4.0, allow_subnormal=False) | st.just(-0.0)
    x = (draw(arrays(np.float64, (n, dim), elements=part))
         + 1j * draw(arrays(np.float64, (n, dim), elements=part)))
    x[:, draw(arrays(np.bool_, dim))] = 0.0
    x[draw(arrays(np.bool_, n))] = 0.0
    # Real and imaginary parts side by side, so a -0.0 part survives.
    b = draw(arrays(np.float64, (n, 1 << dim, 2), elements=part)).view(np.complex128)[..., 0]
    return dim, x, b


@settings(max_examples=120, deadline=None)
@given(vector_factors())
def test_vector_product_meets_the_blade_loop(case):
    """batch_vector_product is batch_product on the vector rows and the one-row
    product bit for bit; it and the interior/exterior split meet the blade
    loop and its sign-table split (tests/product_reference.py) to rounding."""
    dim, x, b = case
    rows = _vector_rows(x, dim)
    got = batch_vector_product(x, b, dim)
    assert got.tobytes() == batch_product(rows, b, dim).tobytes()
    _close_to_loop(got, rows, b, dim)
    for n in range(x.shape[0]):
        xv, bv = Multivector.vector(dim, x[n]), Multivector(dim, b[n])
        assert (xv * bv).coeffs.tobytes() == got[n].tobytes()
        parts, want = _vector_product_parts(xv, bv), ref._vector_product_parts(xv, bv)
        for part, w in zip(parts, want):
            _close_to(part[None], w[None], rows[n:n + 1], b[n:n + 1], dim)


@st.composite
def homogeneous_factors(draw):
    """(x, a, k): a vector x and a multivector a of the one grade k."""
    dim = draw(st.integers(1, 8))
    k = draw(st.integers(0, dim))
    part = st.floats(-4.0, 4.0, allow_subnormal=False)
    x = (draw(arrays(np.float64, dim, elements=part))
         + 1j * draw(arrays(np.float64, dim, elements=part)))
    a = (draw(arrays(np.float64, 1 << dim, elements=part))
         + 1j * draw(arrays(np.float64, 1 << dim, elements=part)))
    a[blade_grades(dim) != k] = 0.0
    return Multivector.vector(dim, x), Multivector(dim, a), k


@settings(max_examples=100, deadline=None)
@given(homogeneous_factors())
def test_interior_and_exterior_of_a_homogeneous_element_keep_to_one_grade(case):
    x, a, k = case
    grades = blade_grades(x.dim)
    assert np.all(vector_interior(x, a).coeffs[grades != k - 1] == 0.0)
    assert np.all(vector_exterior(x, a).coeffs[grades != k + 1] == 0.0)


def test_vector_product_refuses_a_non_vector_and_other_dims():
    with pytest.raises(ValueError, match="pure grade-1"):
        vector_interior(Multivector.scalar(3, 1.0) + e(3, 1), e(3, 2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        vector_exterior(e(3, 1), e(4, 1))
    with pytest.raises(ValueError, match="inconsistent batch shapes"):
        batch_vector_product(np.zeros((2, 3)), np.zeros((2, 16)), 4)
    with pytest.raises(ValueError, match="inconsistent batch shapes"):
        batch_vector_product(np.zeros((2, 4)), np.zeros((3, 16)), 4)


def test_batch_product_rejects_mismatched_rows():
    with pytest.raises(ValueError, match="inconsistent batch shapes"):
        batch_product(np.zeros((2, 4)), np.zeros((3, 4)), 2)
    with pytest.raises(ValueError, match="inconsistent batch shapes"):
        batch_product(np.zeros((2, 8)), np.zeros((2, 8)), 2)
    with pytest.raises(ValueError, match="inconsistent batch shapes"):
        batch_product(np.zeros(4), np.zeros(4), 2)


def test_blade_names():
    assert blade_name(0) == "scalar"
    assert blade_name(0b101) == "e1e3"


def test_point_validation():
    with pytest.raises(ValueError):
        BiaxialPoint(1, 1, np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        BiaxialPoint(2, 1, np.array([1.0, 2.0, 3.0]), np.array([1.0]))
    pt = BiaxialPoint(2, 1, np.array([0.0, 0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        _ = pt.unit_x


@pytest.mark.parametrize("x,y,where", [
    ([math.nan, 0.0], [0.0, 0.0], "x[0] must be finite, got nan"),
    ([0.1, math.inf], [0.0, 0.0], "x[1] must be finite, got inf"),
    ([0.1, 0.0], [0.0, -math.inf], "y[1] must be finite, got -inf"),
    ([0.1, math.nan], [math.nan, 0.0], "x[1] must be finite, got nan"),
])
def test_point_rejects_non_finite_coordinates_naming_them(x, y, where):
    with pytest.raises(ValueError, match=re.escape(f"coordinate {where}")):
        BiaxialPoint(2, 2, x, y)


@pytest.mark.parametrize("norm", [6.5e-161, 1e-163, 1e-300])
def test_point_radius_keeps_tiny_x(norm):
    # The squares of these coordinates are subnormal or zero.
    pt = BiaxialPoint(6, 1, np.full(6, norm / 6 ** 0.5), [0.4])
    assert pt.r == math.hypot(*pt.x)
    assert abs(pt.r - norm) <= 1e-15 * norm
    assert np.allclose(pt.unit_x, np.full(6, 6 ** -0.5), rtol=1e-15, atol=0.0)


def test_point_radius_is_the_plain_norm_above_the_tiny_range():
    rng = np.random.default_rng(7)
    for scale in (1e-140, 1e-8, 1.0, 1e8):
        x = rng.standard_normal(4) * scale
        assert BiaxialPoint(4, 2, x, [0.1, 0.2]).r == float(np.linalg.norm(x))
