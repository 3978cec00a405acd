"""The probed 2F1 series against the code it replaced, bit for bit, and the
vector-left product against batch_vector_mv, the deleted
vector-times-multivector kernel, to rounding (both kept in
tests/probe_reference.py).  The vector-left product is the general product
on the vector rows, through the matrix representation, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from biaxial.algebra import batch_product, batch_vector_product
from biaxial.special import _MAX_TERMS, _TERM_EPS, _hyp2f1_series

import probe_reference as reference

# (a, b, c) of 2F1(a, b; 2b; z) for the kernel moments I and Phi:
# a = (p+q)/2, b = (p-1)/2 and the shifted (a+1, b+1), over p >= 2, p+q <= 8.
KERNEL_TRIPLES = sorted({
    (a + s, b + s, 2.0 * (b + s))
    for p in range(2, 8) for q in range(1, 9 - p)
    for a, b in [(0.5 * (p + q), 0.5 * (p - 1))]
    for s in (0.0, 1.0)
})


def _same(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def _first_pass(a, b, c, z):
    """Index of the first term at which the one-element series of z passes
    its stopping test."""
    term, total = 1.0, 1.0
    for n in range(_MAX_TERMS):
        term = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * z
        total += term
        if abs(term) < _TERM_EPS * max(1.0, abs(total)):
            return n
    raise AssertionError("series did not converge")


@pytest.mark.parametrize("a,b,c", KERNEL_TRIPLES)
@pytest.mark.parametrize("z", [
    0.3,
    np.float64(0.5),
    [],
    [0.25],
    [0.0, 0.0, 0.0],
    np.zeros((2, 3)),
    np.linspace(0.0, 0.5, 1063),
    np.linspace(0.5, 0.0, 40).reshape(5, 8),
], ids=["0d", "0d-numpy", "empty", "one", "zeros", "zeros-2d", "block", "block-2d"])
def test_series_equals_the_whole_array_test(a, b, c, z):
    _same(_hyp2f1_series(a, b, c, z), reference.hyp2f1_series(a, b, c, z))


@pytest.mark.parametrize("a,b,c", KERNEL_TRIPLES)
def test_series_with_mixed_signs_stops_where_every_element_passes(a, b, c):
    # The largest z passes before the negative element of larger modulus,
    # so the probe passes while the whole-array test still fails.
    z = np.array([0.1, -0.45, 0.05, -0.2])
    assert _first_pass(a, b, c, 0.1) < _first_pass(a, b, c, -0.45)
    _same(_hyp2f1_series(a, b, c, z), reference.hyp2f1_series(a, b, c, z))


@settings(max_examples=60, deadline=None)
@given(triple=st.sampled_from(KERNEL_TRIPLES),
       zs=st.lists(st.floats(-0.5, 0.5, allow_subnormal=False), min_size=1, max_size=40))
def test_series_equals_the_whole_array_test_on_any_block(triple, zs):
    _same(_hyp2f1_series(*triple, zs), reference.hyp2f1_series(*triple, zs))


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _close(comps, mats, dim, want):
    """v_n M_n for the rows n of comps (N, dim) and mats (N, 2^dim) is
    batch_product on the generator coefficient rows of comps bit for bit, and
    meets want to 1e-14 of sum |v_n| max |M_n|, which bounds every coefficient
    of v_n M_n, plus 4 dim subnormal units: where products fall below the
    normal range each rounds to an absolute 2^-1074 grid, and the two paths
    were seen up to 1.5 dim units apart."""
    rows = np.zeros((comps.shape[0], 1 << dim))
    rows[:, 1 << np.arange(dim)] = comps
    got = batch_vector_product(comps, mats, dim)
    _same(got, batch_product(rows, mats, dim))
    scale = np.sum(np.abs(comps), axis=1) * np.max(np.abs(mats), axis=1)
    err = np.max(np.abs(got - want), axis=1)
    assert np.all(err <= 1e-14 * scale + 4 * dim * np.finfo(float).smallest_subnormal)


@pytest.mark.parametrize("dim", [1, 2, 4, 5, 8])
@pytest.mark.parametrize("rows", [1, 7])
def test_batch_vector_mv_equals_the_full_gather_on_dense_rows(dim, rows):
    rng = np.random.default_rng(dim * 10 + rows)
    comps = rng.standard_normal((rows, dim))
    mats = _complex(rng, (rows, 1 << dim))
    _close(comps, mats, dim, reference.batch_vector_mv(comps, mats, dim))


@pytest.mark.parametrize("dim", [3, 4, 5, 8])
def test_batch_vector_mv_equals_the_full_gather_on_sparse_rows(dim):
    rng = np.random.default_rng(dim)
    rows, size = 9, 1 << dim
    comps = rng.standard_normal((rows, dim))
    comps[:, dim // 2] = 0.0  # an all-zero component column
    comps[3] = 0.0
    mats = _complex(rng, (rows, size))
    dead = rng.permutation(size)[: size // 2]
    mats[:, dead[::2]] = 0.0
    mats[:, dead[1::2]] = complex(-0.0, -0.0)
    # Live columns that hold signed zeros in some rows, one that is real and
    # one that is imaginary in every row.
    live = np.setdiff1d(np.arange(size), dead)
    mats[::2, live[0]] = complex(-0.0, 0.0)
    mats[1::3, live[-1]] = complex(0.0, -0.0)
    mats[:, live[1]] = mats[:, live[1]].real + 0.0j
    mats[:, live[2]] = 1j * mats[:, live[2]].imag
    _close(comps, mats, dim, reference.batch_vector_mv(comps, mats, dim))


def test_batch_vector_mv_equals_the_full_gather_on_zero_input():
    comps = np.zeros((3, 4))
    mats = np.full((3, 16), complex(-0.0, -0.0))
    _close(comps, mats, 4, reference.batch_vector_mv(comps, mats, 4))
    comps[:, 1] = 1.0
    _close(comps, mats, 4, reference.batch_vector_mv(comps, mats, 4))


@st.composite
def vector_batches(draw):
    """(dim, comps, mats) with all-zero component columns and rows, all-zero
    blade columns and rows, and -0.0 parts in both factors."""
    dim = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    size = 1 << dim
    part = st.floats(-4.0, 4.0, allow_subnormal=False) | st.just(-0.0)
    zero = st.sampled_from([0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0),
                            complex(-0.0, -0.0)])
    comps = draw(arrays(np.float64, (n, dim), elements=part))
    # Real and imaginary parts side by side, so a -0.0 part survives.
    mats = draw(arrays(np.float64, (n, size, 2), elements=part)).view(np.complex128)[..., 0]
    comps[:, draw(arrays(np.bool_, dim))] = draw(st.sampled_from([0.0, -0.0]))
    comps[draw(arrays(np.bool_, n))] = draw(st.sampled_from([0.0, -0.0]))
    mats[:, draw(arrays(np.bool_, size))] = draw(zero)
    mats[draw(arrays(np.bool_, n))] = draw(zero)
    return dim, comps, mats


# Products of subnormal size: the two paths differ by 4 units of 2^-1074,
# while 1e-14 of the scale (1.4e-318) underflows to 0.
_SUBNORMAL_BATCH = (
    3,
    np.array([[-2e-67, -3e-66, -0.0]]),
    np.array([[-2e-253 + 3.9e-253j, -7e-254 - 3.3e-253j, 1.1e-253 + 1e-254j, 3.3e-253 + 3.3e-253j,
               2.4e-253 - 8e-254j, -2.7e-253 - 1.9e-253j, -2e-254 + 4e-254j, -1e-254 - 1.4e-253j]]),
)


@settings(max_examples=150, deadline=None)
@given(vector_batches())
@example(_SUBNORMAL_BATCH)
def test_batch_product_on_vector_rows_equals_batch_vector_mv(batch):
    dim, comps, mats = batch
    _close(comps, mats, dim, reference.batch_vector_mv(comps, mats, dim))
