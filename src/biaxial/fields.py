"""Axially symmetric solution candidates and their numerical residuals.

An axial field is f(x, y) = A(|x|, y) + (x/|x|) B(|x|, y) with A, B valued
in the y-generator subalgebra, each one scalar profile on blade 1 or s.
The module provides those fields, the closed function class
P(t) e^{lambda t} in t = <y, s>, the one series engine for plane waves
sum_j x^j (C_j + s D_j) (the (C_j, D_j) recurrence and its evaluator, which
sums the axial pair; the extension of initial data f(0, y) is the recurrence
with D_0 = 0), and the Dirac, Vekua and reduced-operator
e d_r + d_y + ((p-1)/r) e. residuals, all by one central-difference rule.
ck_bessel_form, the closed extension of exp(<y, s>), is
biaxial.planewave's exponential wave.
"""

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable

import numpy as np

from .algebra import BiaxialPoint, Multivector, batch_vector_product, embed_vector, vector_interior
from .special import ConvergenceError, _check_range

FD_STEP_MIN = 1e-6
FD_STEP_MAX = 1e-2
# Largest J of hpw_recurrence.
MAX_TRUNCATION = 60
# Largest last term of a truncated series, relative to max(1, |sum|).
SERIES_TAIL_TOL = 1e-14


def beta(j: int, p: int) -> int:
    """Eigenvalue of the x-Dirac derivative on x^j: d_x x^j = beta_j x^{j-1}.

    -j for even j, -(j + p - 1) for odd j.
    """
    _check_range("j", j, 1, math.inf)
    return -j if j % 2 == 0 else -(j + p - 1)


def _unit(s) -> np.ndarray:
    s = np.array(s, dtype=np.float64)
    norm = float(np.linalg.norm(s))
    _check_range("|s| of the unit vector s", norm, 1.0 - 1e-9, 1.0 + 1e-9)
    s.setflags(write=False)
    return s


@dataclass(frozen=True)
class ExpLinear:
    """Closed-class function t -> P(t) exp(lam t) of t = <y, s>.

    The class is closed under d/dt, which is all the extension recursions
    use: differentiating in y multiplies by the direction vector s and
    maps P to P' + lam P.
    """

    lam: complex
    s: np.ndarray
    poly: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", _unit(self.s))
        poly = np.atleast_1d(np.array(self.poly, dtype=np.complex128))
        poly.setflags(write=False)
        object.__setattr__(self, "poly", poly)

    @classmethod
    def exponential(cls, s) -> "ExpLinear":
        return cls(1.0, s, [1.0])

    @classmethod
    def polynomial(cls, s, coeffs) -> "ExpLinear":
        return cls(0.0, s, coeffs)

    @classmethod
    def zero(cls, s) -> "ExpLinear":
        return cls(0.0, s, [0.0])

    @cached_property
    def is_zero(self) -> bool:
        return bool(np.all(self.poly == 0))

    def value(self, t: float) -> complex:
        return _closed_class(self.poly[::-1, None], np.array([complex(self.lam)]), t)[0]

    def d_dt(self) -> "ExpLinear":
        deriv = self.poly[1:] * np.arange(1, self.poly.size)
        lam = complex(self.lam)
        if lam == 0:
            out = deriv if deriv.size else np.zeros(1, dtype=complex)
        else:
            out = lam * self.poly
            out[: deriv.size] += deriv
        return ExpLinear(self.lam, self.s, out)

    def scale(self, c) -> "ExpLinear":
        return ExpLinear(self.lam, self.s, self.poly * c)


def _closed_class(coeffs: np.ndarray, lam: np.ndarray, t: float) -> np.ndarray:
    """P(t) exp(lam t) of stacked profiles: coeffs (K, ...) holds each P highest
    power first and lam (...) the rates; a zero rate takes no exponential."""
    acc = reduce(lambda v, c: v * t + c, coeffs, 0j)
    growth = np.exp(lam * t)
    if np.isinf(growth).any():
        raise OverflowError("exp(lam t) overflows")
    return np.where(lam != 0, acc * growth, acc)


@dataclass(frozen=True)
class AxialField:
    """Field A(|x|, y) + (x/|x|) B(|x|, y); A, B take y-subalgebra values.

    A and B accept either one point or a batch.  A scalar r with y of
    shape (q,) returns a Multivector; r of shape (N,) with y of shape
    (N, q) returns an (N, 2^dim) coefficient array.  The library's
    families build both from _axial_part.  A field built from scalar-only
    callables still works with value_at, vekua_residual and
    dirac_apply_fd, but not with boundary_value, reconstruct_ab_variants
    or FullBallCauchy.  reconstruct_ab_variants keeps the values of A and B
    on a rule's nodes while the field and the rule live, so A and B must
    depend on (r, y) alone.
    """

    p: int
    q: int
    A: Callable
    B: Callable

    def value_at(self, pt: BiaxialPoint) -> Multivector:
        if pt.p != self.p or pt.q != self.q:
            raise ValueError("point and field axis dimensions differ")
        r = pt.r
        return _axial_value(pt, r, self.A(r, pt.y), self.B(r, pt.y) if r != 0.0 else None)

    def boundary_value(self, eta: np.ndarray):
        """Values at points of the unit sphere of R^{p+q}.

        One point of shape (dim,) gives a Multivector; an (N, dim) block
        gives (N, 2^dim) coefficients from one A and one B call.  Points
        with |x| < 1e-12 take the value of A alone.
        """
        eta = np.asarray(eta, dtype=np.float64)
        p, dim = self.p, self.p + self.q
        rows = np.atleast_2d(eta)
        if rows.ndim != 2 or rows.shape[1] != dim:
            raise ValueError(f"boundary points must have shape (N, {dim}), got {rows.shape}")
        x, y = rows[:, :p], rows[:, p:]
        r = np.linalg.norm(x, axis=1)
        off_axis = r >= 1e-12
        unit = np.zeros_like(x)
        unit[off_axis] = x[off_axis] / r[off_axis, None]
        out = np.ascontiguousarray(self.A(r, y), dtype=np.complex128)
        _add_unit_times(out, self.B(r, y), unit, p, self.q)
        return Multivector(dim, out[0]) if eta.ndim == 1 else out


def _axial_value(pt: BiaxialPoint, r: float, a: Multivector, b) -> Multivector:
    """A + (x/|x|) B at pt, |x| = r, from the values a and b of A and B there.

    On the x = 0 axis the value is a itself, and b is not read.
    """
    if r == 0.0:
        return a
    out = a.coeffs.copy()
    _add_unit_times(out, b.coeffs, pt.x / r, pt.p, pt.q)
    return Multivector._wrap(pt.dim, out)


def _add_unit_times(out: np.ndarray, b: np.ndarray, unit: np.ndarray, p: int, q: int) -> None:
    """out += u b in place: out, b in the y-subalgebra, u = unit on e_1..e_p.

    e_i e_Y is the blade Y with e_i added, sign +1, so u b only shifts
    blades.  out += 0.0 first turns its signed zeros to +0.0.
    """
    out += 0.0
    # Blade Y << p | X sits at [..., Y, X] of this view.
    grid = out.reshape(out.shape[:-1] + (1 << q, 1 << p))
    b_y = b.reshape(grid.shape)[..., 0]
    for i in range(p):
        grid[..., 1 << i] += unit[..., i, None] * b_y


def _axial_part(dim: int, profile: Callable, blade=None) -> Callable:
    """One A or B from a profile of a scalar r and y (q,), or r (N,), y (N, q).

    Its values, shaped like r, go on blade 1 by column assignment, which
    keeps the sign of a zero, or multiply the coefficients blade (s).
    """

    def part(r, y):
        r = np.asarray(r, dtype=np.float64)
        values = profile(r, np.asarray(y, dtype=np.float64))
        if blade is None:
            out = np.zeros(r.shape + (1 << dim,), dtype=np.complex128)
            out[..., 0] = values
        else:
            out = np.multiply.outer(values, blade)
        return Multivector._wrap(dim, out) if r.ndim == 0 else out

    return part


def _on_radii(profile: Callable, r: np.ndarray):
    """A scalar radial profile at a 0-d r, or once per distinct radius of r.

    profile maps a float to a number.  Hemisphere nodes share few radii,
    so the scalar special functions run once per radius, not per node.
    """
    if r.ndim == 0:
        return profile(float(r))
    radii, inverse = np.unique(r, return_inverse=True)
    values = np.array([profile(float(rad)) for rad in radii])
    return values[inverse.reshape(-1)]


def constant_field(p: int, q: int, value=1.0) -> AxialField:
    dim = p + q
    return AxialField(
        p, q,
        _axial_part(dim, lambda r, y: np.full(r.shape, value)),
        _axial_part(dim, lambda r, y: 0.0),
    )


def linear_monogenic_field(p: int, q: int, s) -> AxialField:
    """The Dirac-null polynomial <y, s> + (1/p) x s in axial form."""
    s = _unit(s)
    dim = p + q
    s_coeffs = embed_vector(dim, p, s).coeffs
    return AxialField(
        p, q,
        _axial_part(dim, lambda r, y: y @ s),
        _axial_part(dim, lambda r, y: r / p, s_coeffs),
    )


@dataclass(frozen=True)
class PlaneWaveSeries:
    """Series sum_j x^j (C_j(t) + s D_j(t)) of closed-class profiles, t = <y, s>.

    terminated marks series whose recurrence reached an identically zero
    pair, making the stored terms exact.
    """

    p: int
    q: int
    s: np.ndarray
    C: tuple
    D: tuple
    terminated: bool

    def __post_init__(self):
        object.__setattr__(self, "s", _unit(self.s))
        if len(self.C) != len(self.D):
            raise ValueError("C and D profile lists must have equal length")
        if any(g.s.tolist() != self.s.tolist() for g in self.C + self.D):
            raise ValueError(f"every profile must lie on the series' s = {self.s.tolist()}")

    @property
    def truncation(self) -> int:
        return len(self.C)

    @property
    def profiles(self) -> tuple:
        # The (C_j, D_j) pair of each stored index.  The benchmark's trace
        # hook (bench/tracing.py) counts series terms as len(profiles).
        return tuple(zip(self.C, self.D))

    @cached_property
    def _table(self):
        """Coefficients (K, 2, n), highest power first, and rates (2, n) of the n pairs:
        C_j is column [:, 0, j], D_j column [:, 1, j], and a zero profile a zero column."""
        K = max((g.poly.size for g in self.C + self.D), default=1)
        coeffs = np.zeros((K, 2, self.truncation), dtype=np.complex128)
        rates = np.zeros((2, self.truncation), dtype=np.complex128)
        for j, pair in enumerate(self.profiles):
            for i, g in enumerate(pair):
                coeffs[K - g.poly.size:, i, j] = g.poly[::-1]
                rates[i, j] = 0.0 if g.is_zero else g.lam
        return coeffs, rates


def hpw_recurrence(c0: ExpLinear, d0: ExpLinear, p: int, q: int, J: int = 40) -> PlaneWaveSeries:
    """Extend initial profiles through the coupled first-order system.

    C_{j+1} = (-1)^j beta_{j+1}^{-1} D_j',
    D_{j+1} = -(-1)^j beta_{j+1}^{-1} C_j'.

    J steps store at most J + 1 pairs.  A zero pair is never stored:
    reaching one sets terminated, so the zero datum gives the empty
    series (truncation 0).
    """
    _check_range("truncation J", J, 0, MAX_TRUNCATION)
    C, D = [], []
    c, d = c0, d0
    for j in range(J + 1):
        if c.is_zero and d.is_zero:
            return PlaneWaveSeries(p, q, c0.s, tuple(C), tuple(D), True)
        C.append(c)
        D.append(d)
        if j < J:
            b = beta(j + 1, p)
            sign = (-1.0) ** j
            c, d = _derive(d, sign / b), _derive(c, -sign / b)
    return PlaneWaveSeries(p, q, c0.s, tuple(C), tuple(D), False)


def _derive(g: ExpLinear, factor: float) -> ExpLinear:
    """factor * g'; a zero profile stays zero, so it is passed on as it is."""
    return g if g.is_zero else g.d_dt().scale(factor)


def ck_extend(f0: ExpLinear, p: int, q: int, J: int = 40) -> PlaneWaveSeries:
    """Unique Dirac-null series extension of the initial datum f(0, y) = f0.

    This is the recurrence with D_0 = 0: even-index terms are plain
    (D_j = 0) and odd-index terms are s-multiplied (C_j = 0).
    """
    return hpw_recurrence(f0, ExpLinear.zero(f0.s), p, q, J)


def eval_series(series: PlaneWaveSeries, pt: BiaxialPoint):
    """Evaluate the series at pt as its axial pair A + (x/|x|) B.

    Returns (value, tail): tail is the largest blade coefficient of the last
    stored term, or 0 for a terminated series.  Raises ConvergenceError when
    tail exceeds SERIES_TAIL_TOL times max(1, largest coefficient of value).
    """
    if pt.p != series.p or pt.q != series.q:
        raise ValueError("point and series axis dimensions differ")
    r = pt.r
    a, b, tail = _series_pair(series, pt, r)
    value = _axial_value(pt, r, a, b)
    tail = 0.0 if series.terminated else tail
    if tail > SERIES_TAIL_TOL * max(1.0, float(np.max(np.abs(value.coeffs)))):
        raise ConvergenceError(
            f"series tail {tail:.3e} above tolerance {SERIES_TAIL_TOL:.1e}; "
            "increase J or shrink |x|"
        )
    return value, tail


def _series_pair(series: PlaneWaveSeries, pt: BiaxialPoint, r: float):
    """(A, B, tail) of the series at pt, |x| = r, with tail as in eval_series.

    x^j = (-1)^(j//2) r^j (x/r)^(j%2), so A (B) is c + d s with c and d the
    sums of (-1)^(j//2) r^j C_j(t) and D_j(t), t = <y, s>, over the even
    (odd) j: one pass over the series' table, each parity summed in index order.
    """
    t = float(np.dot(pt.y, series.s))
    values = _closed_class(*series._table, t)
    n = values.shape[1]
    # Two zero terms lead, so both sums start at zero, and an odd n ends in a zero;
    # the weights take libm's r ** j, which numpy's array power does not round alike.
    terms = np.zeros((2, 2 + n + n % 2), dtype=np.complex128)
    terms[:, 2:2 + n] = values * [(-1.0 if (j // 2) % 2 else 1.0) * r ** j for j in range(n)]
    c_sums, d_sums = np.cumsum(terms.reshape(2, -1, 2), axis=1)[:, -1]
    # Added onto zeros, as a sum of terms is, so that no coefficient is -0.0.
    out = np.zeros((2, 1 << pt.dim), dtype=np.complex128)
    out[:, 0] = c_sums
    out += np.multiply.outer(d_sums, embed_vector(pt.dim, pt.p, series.s).coeffs)
    # Term j puts C_j on 1 or r^(j-1) x and D_j on s or r^(j-1) x s, whose
    # coefficients are x_i s_k; an empty series has c = d = 0.
    c, d = values[:, -1] if n else (0.0, 0.0)
    j = max(n - 1, 0)
    size = r ** j if j % 2 == 0 else r ** (j - 1) * float(np.max(np.abs(pt.x)))
    tail = size * max(abs(c), abs(d) * float(np.max(np.abs(series.s))))
    return Multivector._wrap(pt.dim, out[0]), Multivector._wrap(pt.dim, out[1]), tail


def ck_bessel_form(pt: BiaxialPoint, s) -> Multivector:
    """Closed evaluation of the extension of exp(<y, s>).

    Gamma(p/2) [ sum_j (-1)^j |x|^{2j} / (j! 2^{2j} Gamma(p/2+j))
               + (1/2) sum_j (-1)^j |x|^{2j} / (j! 2^{2j} Gamma(p/2+j+1)) x s ]
    exp(<y, s>).  The sums are Bessel-J series: this is the exponential plane
    wave planewave.hpw_exp_closed, with |x| <= BESSEL_J_MAX_ARG as for bessel_j.
    """
    from .planewave import hpw_exp_closed  # planewave imports this module

    return hpw_exp_closed(pt, s)


def _central_difference(g: Callable, c: np.ndarray, first: int, dim: int, r: float,
                        h: float) -> Multivector:
    """sum_i e_{first+i} (g(c + h u_i) - g(c - h u_i)) / 2h over the coordinates c.

    The one finite-difference rule of the residuals: g maps a coordinate
    array to a dim-generator Multivector, u_i is the i-th unit vector, and
    generators count from 1.  r is the point's distance from the x = 0
    axis, which the step must not cross.
    """
    _check_range("finite-difference step", h, FD_STEP_MIN, FD_STEP_MAX)
    if not r > 2.0 * h:
        raise ValueError(f"need |x| > 2h = {2.0 * h:g} for the step size, got |x| = {r:g}")

    def at(i, delta):
        moved = c.copy()
        moved[i] += delta
        return g(moved)

    diffs = [((at(i, h) - at(i, -h)) / (2.0 * h)).coeffs for i in range(c.size)]
    generators = np.eye(dim)[first - 1:first - 1 + c.size]
    return Multivector._wrap(dim, batch_vector_product(generators, diffs, dim).sum(axis=0))


def dirac_apply_fd(f, pt: BiaxialPoint, h: float = 1e-4) -> Multivector:
    """Central-difference (d_x + d_y) f: sum_i e_i (f(pt+h e_i) - f(pt-h e_i)) / 2h."""
    p, q = pt.p, pt.q
    return _central_difference(lambda c: f(BiaxialPoint(p, q, c[:p], c[p:])),
                               np.concatenate([pt.x, pt.y]), 1, pt.dim, pt.r, h)


def dirac_residual_relative(f, pt: BiaxialPoint, h: float = 1e-4) -> float:
    """Max-blade Dirac residual scaled by max(1, |f(pt)|)."""
    res = dirac_apply_fd(f, pt, h)
    return res.norm_inf / max(1.0, f(pt).norm_inf)


def vekua_residual(field: AxialField, r: float, y: np.ndarray, h: float = 1e-4):
    """Residuals of the first-order axial system.

    res1 = d_y A - d_r B - ((p-1)/r) B,  res2 = d_y B - d_r A,
    both by central differences; Dirac-null axial fields satisfy
    res1 = res2 = 0.
    """
    y = np.asarray(y, dtype=np.float64)
    p, q = field.p, field.q

    def dy(g):
        return _central_difference(lambda c: g(r, c), y, p + 1, p + q, r, h)

    def dr(g):
        return (g(r + h, y) - g(r - h, y)) / (2.0 * h)

    res1 = dy(field.A) - dr(field.B) - ((p - 1.0) / r) * field.B(r, y)
    res2 = dy(field.B) - dr(field.A)
    return res1, res2


def modified_dirac_residual(f, p: int, q: int, r: float, y: np.ndarray,
                            h: float = 1e-4) -> Multivector:
    """Apply e d_r + d_y + ((p-1)/r) e. in the reduced (q+1)-generator picture.

    f maps (r, y) to a multivector over generators (e, y_1, ..., y_q) with
    e on generator 1; e d_r + d_y is the central-difference rule on the
    coordinates (r, y), and the interior multiplication supplies the e. term.
    """
    y = np.asarray(y, dtype=np.float64)
    acc = _central_difference(lambda c: f(float(c[0]), c[1:]), np.concatenate([[r], y]),
                              1, q + 1, r, h)
    return acc + ((p - 1.0) / r) * vector_interior(Multivector.basis_vector(q + 1, 1), f(r, y))


def lift_axial(mv: Multivector, u: np.ndarray, p: int, q: int) -> Multivector:
    """Map a reduced-picture value into the full algebra at x-direction u.

    The axial generator e becomes the embedded unit vector u on the x
    generators; y generators shift onto e_{p+1}..e_{p+q}.  This is an
    algebra map because u^2 = -1 and u anticommutes with the y block.
    """
    if mv.dim != q + 1:
        raise ValueError(f"expected a ({q + 1})-generator value, got dim {mv.dim}")
    ymasks = np.arange(1 << q) << p
    a, b = np.zeros((2, 1 << (p + q)), dtype=np.complex128)
    a[ymasks] = mv.coeffs[0::2]  # e_Y in the reduced picture
    b[ymasks] = mv.coeffs[1::2]  # e e_Y
    _add_unit_times(a, b, np.asarray(u, dtype=np.float64), p, q)
    return Multivector._wrap(p + q, a)


def modified_dirac_correspondence(f, p: int, q: int, pt: BiaxialPoint, h: float = 1e-4):
    """Both sides of the operator correspondence at a point with |x| = r.

    Returns (lifted axial-operator value, full-space Dirac value) for the
    field F(x, y) = lift(f(|x|, y)) at direction x/|x|; for radial fields
    the two agree.
    """
    m_small = modified_dirac_residual(f, p, q, pt.r, pt.y, h)
    m_big = lift_axial(m_small, pt.unit_x, p, q)

    def lifted(pt2: BiaxialPoint) -> Multivector:
        return lift_axial(f(pt2.r, pt2.y), pt2.unit_x, p, q)

    d_big = dirac_apply_fd(lifted, pt, h)
    return m_big, d_big
