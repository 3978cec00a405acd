"""Axially symmetric solution candidates and their numerical residuals.

An axial field is f(x, y) = A(|x|, y) + (x/|x|) B(|x|, y) with A, B valued
in the y-generator subalgebra, each one scalar profile on blade 1 or s.
The module provides those fields, the closed function class
P(t) e^{lambda t} in t = <y, s>, the one series engine for plane waves
sum_j x^j (C_j + s D_j) (the (C_j, D_j) recurrence, its evaluator and its
axial split; the power-series extension of initial data f(0, y) is the
recurrence with D_0 = 0), finite-difference Dirac and Vekua residuals,
and the axial-operator form e d_r + d_y + ((p-1)/r) e. acting in the
reduced (q+1)-generator picture.  ck_bessel_form, the closed extension
of exp(<y, s>), is biaxial.planewave's exponential wave.
"""

import cmath
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .algebra import BiaxialPoint, Multivector, embed_vector, vector_interior
from .special import ConvergenceError

FD_STEP_MIN = 1e-6
FD_STEP_MAX = 1e-2


def beta(j: int, p: int) -> int:
    """Eigenvalue of the x-Dirac derivative on x^j: d_x x^j = beta_j x^{j-1}.

    -j for even j, -(j + p - 1) for odd j.
    """
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")
    return -j if j % 2 == 0 else -(j + p - 1)


def _check_step(h: float) -> None:
    if not FD_STEP_MIN <= h <= FD_STEP_MAX:
        raise ValueError(f"finite-difference step must lie in [{FD_STEP_MIN}, {FD_STEP_MAX}]")


def _unit(s) -> np.ndarray:
    s = np.array(s, dtype=np.float64)
    norm = float(np.linalg.norm(s))
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"direction must be a unit vector, |s| = {norm}")
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
        acc = 0.0 + 0.0j
        for c in self.poly[::-1]:
            acc = acc * t + c
        lam = complex(self.lam)
        return acc * cmath.exp(lam * t) if lam != 0 else acc

    def d_dt(self) -> "ExpLinear":
        n = self.poly.size
        deriv = self.poly[1:] * np.arange(1, n) if n > 1 else np.zeros(0, dtype=complex)
        lam = complex(self.lam)
        if lam == 0:
            out = deriv if deriv.size else np.zeros(1, dtype=complex)
        else:
            out = lam * self.poly
            out = out.copy()
            out[: deriv.size] += deriv
        return ExpLinear(self.lam, self.s, out)

    def scale(self, c) -> "ExpLinear":
        return ExpLinear(self.lam, self.s, self.poly * c)


@dataclass(frozen=True)
class AxialField:
    """Field A(|x|, y) + (x/|x|) B(|x|, y); A, B take y-subalgebra values.

    A and B accept either one point or a batch.  A scalar r with y of
    shape (q,) returns a Multivector; r of shape (N,) with y of shape
    (N, q) returns an (N, 2^dim) coefficient array.  The library's
    families build both from _axial_part.  A field built from scalar-only
    callables still works with value_at, vekua_residual and
    dirac_apply_fd, but not with boundary_value, reconstruct_ab_variants
    or FullBallCauchy.
    """

    p: int
    q: int
    A: Callable
    B: Callable

    def value_at(self, pt: BiaxialPoint) -> Multivector:
        if pt.p != self.p or pt.q != self.q:
            raise ValueError("point and field axis dimensions differ")
        r = pt.r
        a = self.A(r, pt.y)
        if r == 0.0:
            return a
        out = a.coeffs.copy()
        _add_unit_times(out, self.B(r, pt.y).coeffs, pt.x / r, self.p, self.q)
        return Multivector._wrap(pt.dim, out)

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

    @property
    def truncation(self) -> int:
        return len(self.C)

    @property
    def profiles(self) -> tuple:
        # The (C_j, D_j) pair of each stored index.  The benchmark's trace
        # hook (bench/tracing.py) counts series terms as len(profiles).
        return tuple(zip(self.C, self.D))


def hpw_recurrence(c0: ExpLinear, d0: ExpLinear, p: int, q: int, J: int = 40) -> PlaneWaveSeries:
    """Extend initial profiles through the coupled first-order system.

    C_{j+1} = (-1)^j beta_{j+1}^{-1} D_j',
    D_{j+1} = -(-1)^j beta_{j+1}^{-1} C_j'.

    J steps store at most J + 1 pairs.  A zero pair is never stored:
    reaching one sets terminated, so the zero datum gives the empty
    series (truncation 0).
    """
    if J > 60:
        raise ValueError(f"truncation must satisfy J <= 60, got {J}")
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


def eval_series(series: PlaneWaveSeries, pt: BiaxialPoint, tail_tol: float = 1e-14):
    """Evaluate the series at pt, realizing x^{2j} = (-1)^j |x|^{2j}.

    Returns (value, tail) where tail is the magnitude of the last term
    relative to the partial sum; raises ConvergenceError when the series
    is truncated and the tail exceeds tail_tol.
    """
    if pt.p != series.p or pt.q != series.q:
        raise ValueError("point and series axis dimensions differ")
    dim = pt.dim
    t = float(np.dot(pt.y, series.s))
    r = pt.r
    s_mv = embed_vector(dim, series.p, series.s)
    x_mv = pt.embed_x()
    # Term j multiplies C_j and D_j by (1, s) for even j and by (x, x s)
    # for odd j, where x^j = (-1)^(j//2) |x|^(j-1) x.
    bases = (
        (Multivector.scalar(dim, 1.0).coeffs, s_mv.coeffs),
        (x_mv.coeffs, (x_mv * s_mv).coeffs),
    )
    acc = np.zeros(1 << dim, dtype=np.complex128)
    term = 0.0
    for j, (cj, dj) in enumerate(zip(series.C, series.D)):
        weight = (-1.0 if (j // 2) % 2 else 1.0) * r ** (j - j % 2)
        plain, with_s = bases[j % 2]
        # A zero half would add only signed zeros, so it is skipped.
        term = 0.0
        if not cj.is_zero:
            term = (weight * cj.value(t)) * plain
        if not dj.is_zero:
            term = term + (weight * dj.value(t)) * with_s
        acc += term
    tail = 0.0 if series.terminated else float(np.max(np.abs(term)))
    if tail > tail_tol * max(1.0, float(np.max(np.abs(acc)))):
        raise ConvergenceError(
            f"series tail {tail:.3e} above tolerance {tail_tol:.1e}; increase J or shrink |x|"
        )
    return Multivector(dim, acc), tail


def _parity_sum(profiles, parity: int, r: float, t: float) -> complex:
    """sum_j (-1)^(j//2) r^j profiles[j](t) over the indices j of one parity."""
    acc = 0.0 + 0.0j
    for j in range(parity, len(profiles), 2):
        sign = -1.0 if (j // 2) % 2 else 1.0
        acc += sign * r ** j * profiles[j].value(t)
    return acc


def series_axial_parts(series: PlaneWaveSeries, r: float, y: np.ndarray):
    """Axial split f = A + (x/|x|) B with A (B) the even (odd) terms at |x| = r."""
    dim = series.p + series.q
    t = float(np.dot(np.asarray(y, dtype=float), series.s))
    s_mv = embed_vector(dim, series.p, series.s)

    def part(parity):
        c = _parity_sum(series.C, parity, r, t)
        return Multivector.scalar(dim, c) + _parity_sum(series.D, parity, r, t) * s_mv

    return part(0), part(1)


def ck_bessel_form(pt: BiaxialPoint, s) -> Multivector:
    """Closed evaluation of the extension of exp(<y, s>).

    Gamma(p/2) [ sum_j (-1)^j |x|^{2j} / (j! 2^{2j} Gamma(p/2+j))
               + (1/2) sum_j (-1)^j |x|^{2j} / (j! 2^{2j} Gamma(p/2+j+1)) x s ]
    exp(<y, s>).  The sums are Bessel-J series: this is the exponential plane
    wave planewave.hpw_exp_closed, with |x| <= BESSEL_J_MAX_ARG as for bessel_j.
    """
    from .planewave import hpw_exp_closed  # planewave imports this module

    return hpw_exp_closed(pt, s)


def dirac_apply_fd(f, pt: BiaxialPoint, h: float = 1e-4) -> Multivector:
    """Central-difference (d_x + d_y) f: sum_i e_i (f(pt+h e_i) - f(pt-h e_i)) / 2h."""
    _check_step(h)
    if pt.r <= 2.0 * h:
        raise ValueError("evaluation too close to the x = 0 axis for the step size")
    dim = pt.dim
    acc = Multivector.zero(dim)
    for i in range(dim):
        diff = f(pt.shifted(i, h)) - f(pt.shifted(i, -h))
        acc = acc + Multivector.basis_vector(dim, i + 1) * (diff / (2.0 * h))
    return acc


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
    _check_step(h)
    if r <= 2.0 * h:
        raise ValueError("need r > 2h")
    y = np.asarray(y, dtype=np.float64)
    p, q = field.p, field.q
    dim = p + q

    def dy(g):
        acc = Multivector.zero(dim)
        for i in range(q):
            step = np.zeros(q)
            step[i] = h
            diff = g(r, y + step) - g(r, y - step)
            acc = acc + Multivector.basis_vector(dim, p + i + 1) * (diff / (2.0 * h))
        return acc

    def dr(g):
        return (g(r + h, y) - g(r - h, y)) / (2.0 * h)

    b_here = field.B(r, y)
    res1 = dy(field.A) - dr(field.B) - ((p - 1.0) / r) * b_here
    res2 = dy(field.B) - dr(field.A)
    return res1, res2


def modified_dirac_residual(f, p: int, q: int, r: float, y: np.ndarray,
                            h: float = 1e-4) -> Multivector:
    """Apply e d_r + d_y + ((p-1)/r) e. in the reduced (q+1)-generator picture.

    f maps (r, y) to a multivector over generators (e, y_1, ..., y_q) with
    e on generator 1; the interior multiplication supplies the e. term.
    """
    _check_step(h)
    if r <= 2.0 * h:
        raise ValueError("need r > 2h")
    y = np.asarray(y, dtype=np.float64)
    dim = q + 1
    e_mv = Multivector.basis_vector(dim, 1)
    drf = (f(r + h, y) - f(r - h, y)) / (2.0 * h)
    acc = e_mv * drf
    for i in range(q):
        step = np.zeros(q)
        step[i] = h
        diff = f(r, y + step) - f(r, y - step)
        acc = acc + Multivector.basis_vector(dim, i + 2) * (diff / (2.0 * h))
    return acc + ((p - 1.0) / r) * vector_interior(e_mv, f(r, y))


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
