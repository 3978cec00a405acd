"""The blade-loop geometric product that biaxial.algebra replaced, kept verbatim.

The library multiplied through three 4^dim tables (sign, perm, gsign) and
one pass per blade live in the left factor; it now multiplies through the
complex matrix representation, and a grade-1 left factor through one sign
row per generator (vector_product).  _blade_tables and _product_columns
are the deleted code; batch_product and product are its two entry points
as they were, and _vector_product_parts is the interior/exterior split
written against the full sign table, with its grade-1 check inlined.  The
vector-left library path must meet this loop bit for bit; the general
product meets it to rounding.
"""

from functools import lru_cache

import numpy as np

from biaxial.algebra import Multivector


@lru_cache(maxsize=None)
def _blade_tables(dim: int):
    """Sign table of blade products (2^dim x 2^dim, int8) and blade grades.

    sign[a, b] is the sign of e_A e_B relative to the canonical blade
    e_{A xor B}: count the generator transpositions needed to merge the
    two factor lists, then flip once more per shared generator since
    e_i^2 = -1.  perm[i, k] = i ^ k and gsign[i, k] = sign[i, i ^ k] are its gather form.
    """
    size = 1 << dim
    idx = np.arange(size)
    grades = np.zeros(size, dtype=np.int64)
    for bit in range(dim):
        grades += (idx >> bit) & 1
    swaps = np.zeros((size, size), dtype=np.int64)
    shifted = idx[:, None] >> 1
    while shifted.any():
        swaps += grades[shifted & idx[None, :]]
        shifted = shifted >> 1
    swaps += grades[idx[:, None] & idx[None, :]]
    sign = np.where(swaps % 2 == 0, 1, -1).astype(np.int8)
    perm = idx[:, None] ^ idx
    gsign = np.take_along_axis(sign, perm, axis=1)[:, :, None]
    for table in (sign, grades, perm, gsign):
        table.setflags(write=False)
    return sign, grades, perm, gsign


def _product_columns(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Products of blade-major coefficient columns a, b (2^dim, N): blade k sums
    (a_i sign[i, i ^ k]) b_{i ^ k} over ascending i, skipping blades zero in all of a."""
    _, _, perm, gsign = _blade_tables(dim)
    out = np.zeros(b.shape, dtype=np.complex128)
    # One column needs no any() reduction, which costs more than a one-blade product.
    for i in np.flatnonzero(a[:, 0] if a.shape[1] == 1 else a.any(axis=1)).tolist():
        out += (a[i] * gsign[i]) * b.take(perm[i], axis=0)
    return out


def batch_product(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Row-wise products of (N, 2^dim) coefficient rows; row n equals
    product(Multivector(dim, a[n]), Multivector(dim, b[n])).coeffs bit for bit."""
    a, b = (np.asarray(m, dtype=np.complex128) for m in (a, b))
    if a.shape != b.shape or a.shape[1:] != (1 << dim,):
        raise ValueError("inconsistent batch shapes")
    return np.ascontiguousarray(_product_columns(a.T, np.ascontiguousarray(b.T), dim).T)


def product(a: Multivector, b: Multivector) -> Multivector:
    """a * b as Multivector.__mul__ computed it."""
    a._check_same(b)
    out = _product_columns(a.coeffs[:, None], b.coeffs[:, None], a.dim)
    return Multivector._wrap(a.dim, out[:, 0])


def _vector_product_parts(x: Multivector, a: Multivector):
    """The grade-lowering and grade-raising parts of x*a, from the sign table."""
    x._check_same(a)
    if np.any(x.coeffs[_blade_tables(x.dim)[1] != 1]):
        raise ValueError("expected a pure grade-1 multivector")
    sign = _blade_tables(x.dim)[0]
    size = 1 << x.dim
    idx = np.arange(size)
    lower = np.zeros(size, dtype=np.complex128)
    raise_ = np.zeros(size, dtype=np.complex128)
    ac = a.coeffs
    for i in range(x.dim):
        xi = x.coeffs[1 << i]
        if xi == 0:
            continue
        bit = 1 << i
        inside = (idx & bit) != 0
        row = (xi * sign[bit]) * ac
        lower[idx[inside] ^ bit] += row[inside]
        raise_[idx[~inside] ^ bit] += row[~inside]
    return lower, raise_
