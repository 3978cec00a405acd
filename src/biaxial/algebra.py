"""Dense multivector arithmetic for complex Clifford algebras.

The algebra is generated by e_1, ..., e_m obeying e_i e_j + e_j e_i =
-2 delta_ij, so every generator squares to -1, and carries complex
coefficients.  Elements are stored densely: the coefficient index is the
blade bitmask, bit i set meaning the factor e_{i+1} is present, factors
taken in increasing order.  All values are immutable and all operations
are pure, so they are safe to use from multiple threads.

Every geometric product goes through one path, the matrix representation
of the algebra (_matrix_tables, _matrix_product): the product operator,
batch_product, batch_vector_product with its vector factors scattered on
the grade-1 blades, and the interior/exterior split of a vector times a
multivector, which projects the products x a_k by grade.
"""

import math
import numpy as np
from dataclasses import dataclass
from functools import lru_cache

MAX_DIM = 12


@lru_cache(maxsize=None)
def blade_grades(dim: int) -> np.ndarray:
    """Grade (generator count) of every blade bitmask in dimension dim."""
    idx = np.arange(1 << dim)
    grades = sum((idx >> bit) & 1 for bit in range(dim))
    grades.setflags(write=False)
    return grades


@lru_cache(maxsize=None)
def _matrix_tables(dim: int):
    """Tables of the product through Cl_2h(C) = M(2^h, C), h = ceil(dim / 2).

    The generators act on h qubits, qubit k being bit k of a row index:
    e_{2k+1} = i Z..Z X_k and e_{2k+2} = i Z..Z Y_k, with Z on the qubits
    below k (Jordan-Wigner; Lounesto, Clifford Algebras and Spinors, 2nd
    ed., ch. 16).  An odd dim uses the first dim generators of dim + 1.
    Every blade matrix is monomial: row r of Gamma_A holds its one entry,
    a phase in {1, i, -1, -i}, in column r ^ mask[A].  With the blades
    grouped by mask, g = 2^dim / 2^h per mask,
      M[r, r ^ m] = sum over A in group m of c_A phase[A, r],
      c_A = tr(Gamma_A^H M) / 2^h = sum_r conj(phase[A, r]) M[r, r ^ m] / 2^h.
    Returns the blade order of the groups and its inverse, the phases as
    (2^h, g, 2^h) and their scaled conjugates as (2^h, 2^h, g), and the
    gathers between the flat matrix and its (mask, row) layout.
    """
    h = (dim + 1) // 2
    n = 1 << h
    rows = np.arange(n)
    # parity[k]: parity of the bits of r below k, the sign of Z..Z on qubits < k.
    parity = np.cumsum([0 * rows] + [(rows >> k) & 1 for k in range(h)], axis=0) % 2
    phase = np.ones((1, n), dtype=np.complex128)
    mask = np.zeros(1, dtype=np.int64)
    for j in range(dim):
        # Blades 2^j .. 2^(j+1) - 1 are the lower ones times e_{j+1} on the
        # right.  Y_k's entries -i, i carry Z_k's sign, so e_{2k+2} is real.
        k = j // 2
        gen = (1 - 2 * parity[k + j % 2]) * (1.0 if j % 2 else 1j)
        phase = np.concatenate([phase, phase * gen[rows ^ mask[:, None]]])
        mask = np.concatenate([mask, mask ^ (1 << k)])
    order = np.argsort(mask, kind="stable")
    to_matrix = phase[order].reshape(n, -1, n)
    del phase
    from_matrix = np.empty((n, n, to_matrix.shape[1]), dtype=np.complex128)
    np.conj(to_matrix.transpose(0, 2, 1), out=from_matrix)
    from_matrix /= n
    # Entry (m, r) of the mask layout is matrix entry (r, r ^ m).
    to_flat = ((rows[:, None] ^ rows) * n + rows[:, None]).ravel()
    from_flat = (rows * n + (rows ^ rows[:, None])).ravel()
    tables = (order, np.argsort(order), to_matrix, from_matrix, to_flat, from_flat)
    for table in tables:
        table.setflags(write=False)
    return tables


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
            out = _matrix_product(self.coeffs[None], other.coeffs[None], self.dim)
            return Multivector._wrap(self.dim, out[0])
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

    @property
    def scalar_part(self) -> complex:
        return complex(self.coeffs[0])

    @property
    def norm_inf(self) -> float:
        """Largest blade coefficient magnitude."""
        return float(np.max(np.abs(self.coeffs)))

    def __repr__(self):
        terms = []
        for mask in np.flatnonzero(np.abs(self.coeffs) > 0):
            terms.append(f"{self.coeffs[mask]:.6g}*{blade_name(int(mask))}")
            if len(terms) >= 8:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"Multivector(dim={self.dim}: {body})"


def _matrix_product(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Row-wise products of (N, 2^dim) coefficient rows through the matrix
    representation of _matrix_tables: each row's two coefficient-to-matrix
    maps, 2^h x 2^h product and map back are matmul calls of their own, with
    shapes that do not depend on N, so a row's bits do not either."""
    order, unorder, to_matrix, from_matrix, to_flat, from_flat = _matrix_tables(dim)
    n, g = to_matrix.shape[:2]
    rows = a.shape[0]

    def matrices(c):
        by_mask = c.take(order, axis=1).reshape(rows, n, 1, g) @ to_matrix
        return by_mask.reshape(rows, n * n).take(to_flat, axis=1).reshape(rows, n, n)

    by_mask = (matrices(a) @ matrices(b)).reshape(rows, n * n).take(from_flat, axis=1)
    return (by_mask.reshape(rows, n, 1, n) @ from_matrix).reshape(rows, -1).take(unorder, axis=1)


def batch_product(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Row-wise products of (N, 2^dim) coefficient rows; row n equals
    (Multivector(dim, a[n]) * Multivector(dim, b[n])).coeffs bit for bit."""
    a, b = (np.asarray(m, dtype=np.complex128) for m in (a, b))
    if a.shape != b.shape or a.shape[1:] != (1 << dim,):
        raise ValueError("inconsistent batch shapes")
    return _matrix_product(a, b, dim)


def batch_vector_product(components: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Rows v_n b_n for vector components (N, dim) and coefficient rows b
    (N, 2^dim): batch_product of the components scattered on the grade-1
    blades, bit for bit."""
    x, b = (np.asarray(m, dtype=np.complex128) for m in (components, b))
    if x.shape != (b.shape[0], dim) or b.shape[1:] != (1 << dim,):
        raise ValueError("inconsistent batch shapes")
    rows = np.zeros(b.shape, dtype=np.complex128)
    rows[:, 1 << np.arange(dim)] = x
    return _matrix_product(rows, b, dim)


def _vector_product_parts(x: Multivector, a: Multivector):
    """The grade-lowering and grade-raising parts of x*a for a pure grade-1 x.

    With a_k the grade-k part of a, x a_k has grades k - 1 and k + 1 only:
    x . a is the grade-(k-1) part of x a_k summed over k, and x ^ a the
    grade-(k+1) part.  The dim + 1 products x a_k are one batch.
    """
    x._check_same(a)
    grades = blade_grades(x.dim)
    if np.any(x.coeffs[grades != 1]):
        raise ValueError("expected a pure grade-1 multivector")
    blades = np.arange(1 << x.dim)
    by_grade = np.zeros((x.dim + 1, blades.size), dtype=np.complex128)
    by_grade[grades, blades] = a.coeffs
    # Row k + 1 of padded is x a_k; rows 0 and dim + 2 stand for the empty
    # grades -1 and dim + 1.  A blade of grade g is lowered from x a_{g+1}
    # and raised from x a_{g-1}.
    padded = np.zeros((x.dim + 3, blades.size), dtype=np.complex128)
    padded[1:-1] = _matrix_product(np.broadcast_to(x.coeffs, by_grade.shape), by_grade, x.dim)
    return padded[grades + 2, blades], padded[grades, blades]


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
        coords = x.tolist() + y.tolist()
        if not all(map(math.isfinite, coords)):
            k = next(k for k, v in enumerate(coords) if not math.isfinite(v))
            where = f"x[{k}]" if k < self.p else f"y[{k - self.p}]"
            raise ValueError(f"coordinate {where} must be finite, got {coords[k]}")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def dim(self) -> int:
        return self.p + self.q

    @property
    def r(self) -> float:
        # Below 1e-150 np.linalg.norm's squares may underflow; math.hypot scales.
        r = float(np.linalg.norm(self.x))
        return r if r >= 1e-150 else math.hypot(*self.x)

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


def embed_vector(dim: int, offset: int, v) -> Multivector:
    """Embed the coordinates v on generators e_{offset+1}.. of a dim-algebra."""
    v = np.asarray(v, dtype=np.complex128)
    comps = np.zeros(dim, dtype=np.complex128)
    comps[offset:offset + v.shape[0]] = v
    return Multivector.vector(dim, comps)
