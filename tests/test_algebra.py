import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cli_reference as ref
import probe_reference
from biaxial.algebra import (
    BiaxialPoint,
    Multivector,
    batch_product,
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
        ax_inv = a.grade_involution() * x
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
    # batch_vector_mv, the deleted vector-times-multivector kernel, lives on
    # in probe_reference; batch_product on generator rows gives its bytes.
    vectors = np.stack([Multivector.vector(dim, c).coeffs for c in comps])
    out = batch_product(vectors, mats, dim)
    assert out.tobytes() == probe_reference.batch_vector_mv(comps, mats, dim).tobytes()
    for row in range(n):
        direct = Multivector.vector(dim, comps[row]) * Multivector(dim, mats[row])
        np.testing.assert_allclose(out[row], direct.coeffs, atol=1e-13)


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


@settings(max_examples=80, deadline=None)
@given(product_batches())
def test_batch_product_rows_are_the_per_pair_product(batch):
    dim, a, b = batch
    out = batch_product(a, b, dim)
    assert out.shape == a.shape and out.dtype == np.complex128
    for n in range(a.shape[0]):
        want = ref._geometric_product(ref.Multivector(dim, a[n]), ref.Multivector(dim, b[n]))
        assert out[n].tobytes() == want.coeffs.tobytes()
        one_row = Multivector(dim, a[n]) * Multivector(dim, b[n])
        assert one_row.coeffs.tobytes() == want.coeffs.tobytes()


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
