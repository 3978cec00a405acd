"""Dense multivector arithmetic for complex Clifford algebras.

The algebra is generated by e_1, ..., e_m obeying e_i e_j + e_j e_i =
-2 delta_ij, so every generator squares to -1, and carries complex
coefficients.  Elements are stored densely: the coefficient index is the
blade bitmask, bit i set meaning the factor e_{i+1} is present, factors
taken in increasing order.  All values are immutable and all operations
are pure, so they are safe to use from multiple threads.
"""

import numpy as np
from dataclasses import dataclass
from functools import lru_cache

MAX_DIM = 12


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


def blade_grades(dim: int) -> np.ndarray:
    """Grade (generator count) of every blade bitmask in dimension dim."""
    return _blade_tables(dim)[1]


def blade_name(mask: int) -> str:
    """Human-readable blade label: 'scalar', 'e1', 'e1e3', ..."""
    if mask == 0:
        return "scalar"
    return "".join(f"e{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


def _check_dim(dim: int) -> None:
    if not isinstance(dim, (int, np.integer)) or not 1 <= dim <= MAX_DIM:
        raise ValueError(f"algebra dimension must be an integer in [1, {MAX_DIM}], got {dim!r}")


@dataclass(frozen=True, eq=False)
class Multivector:
    """Element of the complex Clifford algebra with dim generators."""

    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        _check_dim(self.dim)
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.shape != (1 << self.dim,):
            raise ValueError(
                f"coefficient array must have length {1 << self.dim}, got shape {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _wrap(cls, dim: int, coeffs: np.ndarray) -> "Multivector":
        # Internal fast path: takes ownership of a fresh array, skips copy.
        mv = object.__new__(cls)
        coeffs.setflags(write=False)
        object.__setattr__(mv, "dim", dim)
        object.__setattr__(mv, "coeffs", coeffs)
        return mv

    @classmethod
    def zero(cls, dim: int) -> "Multivector":
        _check_dim(dim)
        return cls._wrap(dim, np.zeros(1 << dim, dtype=np.complex128))

    @classmethod
    def scalar(cls, dim: int, value) -> "Multivector":
        _check_dim(dim)
        c = np.zeros(1 << dim, dtype=np.complex128)
        c[0] = value
        return cls._wrap(dim, c)

    @classmethod
    def blade(cls, dim: int, mask: int, value=1.0) -> "Multivector":
        _check_dim(dim)
        if not 0 <= mask < (1 << dim):
            raise ValueError(f"blade mask {mask} out of range for dimension {dim}")
        c = np.zeros(1 << dim, dtype=np.complex128)
        c[mask] = value
        return cls._wrap(dim, c)

    @classmethod
    def basis_vector(cls, dim: int, i: int) -> "Multivector":
        """Generator e_i, with i counted from 1."""
        if not 1 <= i <= dim:
            raise ValueError(f"generator index must be in [1, {dim}], got {i}")
        return cls.blade(dim, 1 << (i - 1))

    @classmethod
    def vector(cls, dim: int, components) -> "Multivector":
        """Grade-1 element sum_i components[i] e_{i+1}."""
        comps = np.asarray(components, dtype=np.complex128)
        if comps.shape != (dim,):
            raise ValueError(f"expected {dim} vector components, got shape {comps.shape}")
        c = np.zeros(1 << dim, dtype=np.complex128)
        for i in range(dim):
            c[1 << i] = comps[i]
        return cls._wrap(dim, c)

    # -- linear structure ------------------------------------------------

    def _check_same(self, other: "Multivector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_same(other)
        return Multivector._wrap(self.dim, self.coeffs + other.coeffs)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_same(other)
        return Multivector._wrap(self.dim, self.coeffs - other.coeffs)

    def __neg__(self):
        return Multivector._wrap(self.dim, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check_same(other)
            out = _product_columns(self.coeffs[:, None], other.coeffs[:, None], self.dim)
            return Multivector._wrap(self.dim, out[:, 0])
        return Multivector._wrap(self.dim, self.coeffs * complex(other))

    def __rmul__(self, other):
        # Scalars commute; multivector * multivector never lands here.
        return Multivector._wrap(self.dim, self.coeffs * complex(other))

    def __truediv__(self, other):
        return Multivector._wrap(self.dim, self.coeffs / complex(other))

    # -- structure -------------------------------------------------------

    def grade(self, k: int) -> "Multivector":
        """Projection onto blades with exactly k generators."""
        if not 0 <= k <= self.dim:
            raise ValueError(f"grade must be in [0, {self.dim}], got {k}")
        grades = blade_grades(self.dim)
        out = np.where(grades == k, self.coeffs, 0.0 + 0.0j)
        return Multivector._wrap(self.dim, out)

    def grade_involution(self) -> "Multivector":
        """Main involution: each grade-k part scaled by (-1)^k."""
        grades = blade_grades(self.dim)
        return Multivector._wrap(self.dim, np.where(grades % 2 == 0, 1, -1) * self.coeffs)

    @property
    def scalar_part(self) -> complex:
        return complex(self.coeffs[0])

    @property
    def norm_inf(self) -> float:
        """Largest blade coefficient magnitude."""
        return float(np.max(np.abs(self.coeffs)))

    def is_vector(self, tol: float = 0.0) -> bool:
        grades = blade_grades(self.dim)
        off = self.coeffs[grades != 1]
        return bool(np.all(np.abs(off) <= tol))

    def __repr__(self):
        terms = []
        for mask in np.flatnonzero(np.abs(self.coeffs) > 0):
            terms.append(f"{self.coeffs[mask]:.6g}*{blade_name(int(mask))}")
            if len(terms) >= 8:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"Multivector(dim={self.dim}: {body})"


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
    (Multivector(dim, a[n]) * Multivector(dim, b[n])).coeffs bit for bit."""
    a, b = (np.asarray(m, dtype=np.complex128) for m in (a, b))
    if a.shape != b.shape or a.shape[1:] != (1 << dim,):
        raise ValueError("inconsistent batch shapes")
    return np.ascontiguousarray(_product_columns(a.T, np.ascontiguousarray(b.T), dim).T)


def _vector_bits(x: Multivector):
    if not x.is_vector():
        raise ValueError("expected a pure grade-1 multivector")
    comps = [(i, x.coeffs[1 << i]) for i in range(x.dim)
             if x.coeffs[1 << i] != 0]
    return comps


def _vector_product_parts(x: Multivector, a: Multivector):
    """Split x*a term-by-term into the grade-lowering and grade-raising parts.

    For a basis vector e_i and a blade e_A the product lowers the grade
    exactly when i is a factor of A; that term partition realizes
    x . a_k = (x a_k - (-1)^k a_k x)/2 and x ^ a_k = (x a_k + (-1)^k a_k x)/2
    with the same per-term arithmetic as the full product.
    """
    x._check_same(a)
    sign = _blade_tables(x.dim)[0]
    size = 1 << x.dim
    idx = np.arange(size)
    lower = np.zeros(size, dtype=np.complex128)
    raise_ = np.zeros(size, dtype=np.complex128)
    ac = a.coeffs
    for i, xi in _vector_bits(x):
        bit = 1 << i
        inside = (idx & bit) != 0
        row = (xi * sign[bit]) * ac
        lower[idx[inside] ^ bit] += row[inside]
        raise_[idx[~inside] ^ bit] += row[~inside]
    return lower, raise_


def vector_interior(x: Multivector, a: Multivector) -> Multivector:
    """Interior product of a grade-1 x with a: the grade-lowering half of x*a."""
    lower, _ = _vector_product_parts(x, a)
    return Multivector._wrap(x.dim, lower)


def vector_exterior(x: Multivector, a: Multivector) -> Multivector:
    """Exterior product of a grade-1 x with a: the grade-raising half of x*a."""
    _, raise_ = _vector_product_parts(x, a)
    return Multivector._wrap(x.dim, raise_)


@dataclass(frozen=True)
class BiaxialPoint:
    """Point (x, y) of R^p x R^q together with its algebra embedding.

    x sits on generators e_1..e_p and y on e_{p+1}..e_{p+q}; the embedded
    vector v satisfies v*v = -(|x|^2 + |y|^2).
    """

    p: int
    q: int
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.p < 2 or self.q < 1:
            raise ValueError(f"need p >= 2 and q >= 1, got p={self.p}, q={self.q}")
        _check_dim(self.p + self.q)
        x = np.array(self.x, dtype=np.float64)
        y = np.array(self.y, dtype=np.float64)
        if x.shape != (self.p,) or y.shape != (self.q,):
            raise ValueError("coordinate arrays do not match the axis dimensions")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def dim(self) -> int:
        return self.p + self.q

    @property
    def r(self) -> float:
        return float(np.linalg.norm(self.x))

    @property
    def unit_x(self) -> np.ndarray:
        r = self.r
        if r == 0.0:
            raise ValueError("x = 0 has no direction")
        return self.x / r

    def embed(self) -> Multivector:
        return Multivector.vector(self.dim, np.concatenate([self.x, self.y]))

    def embed_x(self) -> Multivector:
        return Multivector.vector(self.dim, np.concatenate([self.x, np.zeros(self.q)]))

    def embed_unit_x(self) -> Multivector:
        return Multivector.vector(self.dim, np.concatenate([self.unit_x, np.zeros(self.q)]))

    def embed_y_vector(self, v) -> Multivector:
        """Embed a coordinate vector of R^q on the y generators."""
        v = np.asarray(v, dtype=np.complex128)
        if v.shape != (self.q,):
            raise ValueError(f"expected {self.q} components, got shape {v.shape}")
        return Multivector.vector(self.dim, np.concatenate([np.zeros(self.p), v]))

    def shifted(self, coord: int, delta: float) -> "BiaxialPoint":
        """Point with one of the p+q coordinates displaced by delta."""
        if not 0 <= coord < self.dim:
            raise ValueError(f"coordinate index {coord} out of range")
        x = self.x.copy()
        y = self.y.copy()
        if coord < self.p:
            x[coord] += delta
        else:
            y[coord - self.p] += delta
        return BiaxialPoint(self.p, self.q, x, y)


def embed_vector(dim: int, offset: int, v) -> Multivector:
    """Embed the coordinates v on generators e_{offset+1}.. of a dim-algebra."""
    v = np.asarray(v, dtype=np.complex128)
    comps = np.zeros(dim, dtype=np.complex128)
    comps[offset:offset + v.shape[0]] = v
    return Multivector.vector(dim, comps)
