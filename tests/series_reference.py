"""Reference copies of the two series evaluators the library merged.

The CK extension (ck_extend, eval_series over HypermonogenicSeries) and the
plane-wave evaluator (eval_planewave) are copied unchanged from the code
before the merge into one (C_j, D_j) engine in biaxial.fields, their x s
through product_reference's blade loop, the product of that time.  The
tests hold the merged engine to these references.
"""

from dataclasses import dataclass

import numpy as np

from biaxial.algebra import BiaxialPoint, Multivector, embed_vector
from biaxial.fields import ExpLinear, PlaneWaveSeries, _unit, beta
from biaxial.special import ConvergenceError
from product_reference import product


@dataclass(frozen=True)
class HypermonogenicSeries:
    """Series sum_j x^j f_j(y) with f_j = profile_j(t) times s^(j parity).

    The recursion f_{j+1} = -(-1)^j beta_{j+1}^{-1} d_y f_j stays inside
    the closed class: profiles alternate between plain and s-multiplied.
    terminated marks series whose recursion reached an identically zero
    profile, making the stored terms exact.
    """

    p: int
    q: int
    s: np.ndarray
    profiles: tuple
    vector_flags: tuple
    terminated: bool

    def __post_init__(self):
        object.__setattr__(self, "s", _unit(self.s))

    @property
    def truncation(self) -> int:
        return len(self.profiles)


def ck_extend(f0: ExpLinear, p: int, q: int = None, J: int = 40) -> HypermonogenicSeries:
    """Unique Dirac-null series extension of the initial datum f(0, y) = f0.

    Each step applies f_{j+1} = -(-1)^j beta_{j+1}^{-1} d_y f_j inside the
    closed class; d_y of a plain profile g is s g', and of an s-multiplied
    profile is -g' since s^2 = -1.
    """
    if J > 60:
        raise ValueError(f"truncation must satisfy J <= 60, got {J}")
    if q is None:
        q = int(np.asarray(f0.s).size)
    profiles = [f0]
    flags = [False]
    g, has_s = f0, False
    terminated = f0.is_zero
    for j in range(J):
        if terminated:
            break
        dg = g.d_dt()
        factor = -((-1.0) ** j) / beta(j + 1, p)
        if has_s:
            g, has_s = dg.scale(-factor), False
        else:
            g, has_s = dg.scale(factor), True
        if g.is_zero:
            terminated = True
            break
        profiles.append(g)
        flags.append(has_s)
    return HypermonogenicSeries(p, q, f0.s, tuple(profiles), tuple(flags), terminated)


def eval_series(series: HypermonogenicSeries, pt: BiaxialPoint, tail_tol: float = 1e-14):
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
    xs_mv = product(x_mv, s_mv)
    acc = np.zeros(1 << dim, dtype=np.complex128)
    tail = 0.0
    for j, (profile, has_s) in enumerate(zip(series.profiles, series.vector_flags)):
        c = profile.value(t)
        half = j // 2
        sign = -1.0 if half % 2 else 1.0
        if j % 2 == 0:
            base = s_mv.coeffs if has_s else None
            weight = sign * r ** j * c
            if base is None:
                term = np.zeros_like(acc)
                term[0] = weight
            else:
                term = weight * base
        else:
            base = xs_mv.coeffs if has_s else x_mv.coeffs
            term = (sign * r ** (j - 1) * c) * base
        acc += term
        tail = float(np.max(np.abs(term)))
    if series.terminated:
        tail = 0.0
    if tail > tail_tol * max(1.0, float(np.max(np.abs(acc)))):
        raise ConvergenceError(
            f"series tail {tail:.3e} above tolerance {tail_tol:.1e}; increase J or shrink |x|"
        )
    return Multivector(dim, acc), tail


def eval_planewave(series: PlaneWaveSeries, pt: BiaxialPoint, tail_tol: float = 1e-14):
    """Evaluate at pt; returns (value, tail diagnostic)."""
    if pt.p != series.p or pt.q != series.q:
        raise ValueError("point and series axis dimensions differ")
    dim = pt.dim
    t = float(np.dot(pt.y, series.s))
    r = pt.r
    s_mv = embed_vector(dim, series.p, series.s)
    x_mv = pt.embed_x()
    xs_mv = product(x_mv, s_mv)
    acc = np.zeros(1 << dim, dtype=np.complex128)
    tail = 0.0
    for j, (cj, dj) in enumerate(zip(series.C, series.D)):
        cv, dv = cj.value(t), dj.value(t)
        sign = -1.0 if (j // 2) % 2 else 1.0
        if j % 2 == 0:
            term = (sign * r ** j * dv) * s_mv.coeffs
            term[0] += sign * r ** j * cv
        else:
            term = (sign * r ** (j - 1)) * (cv * x_mv.coeffs + dv * xs_mv.coeffs)
        acc += term
        tail = float(np.max(np.abs(term)))
    if series.terminated:
        tail = 0.0
    if tail > tail_tol * max(1.0, float(np.max(np.abs(acc)))):
        raise ConvergenceError(f"plane-wave tail {tail:.3e} above tolerance {tail_tol:.1e}")
    return Multivector(dim, acc), tail


