"""Plane waves with x-radial symmetry.

Constructions on the series engine of biaxial.fields (the coefficient
recurrence determined by the initial pair (C_0, D_0)): the Gamma-ratio
closed coefficients of the exponential family and its Bessel-J form,
the polynomial radialization of (<x,t> + i<y,s>)^k (t + i s) over t in
S^{p-1}, and the Fourier-kernel family with its modified-Bessel form.
Each profile is defined once: the exponential and Fourier closed forms
are value_at of their axial pairs.  radialize_poly stays a closed form
because its pair's array path costs several times more for one point.
Every closed form has a sphere-quadrature oracle next to it.

All spherical prefactors use the equatorial measure
kappa_p = |S^{p-2}| = 2 pi^{(p-1)/2} / Gamma((p-1)/2), the constant the
zonal-integral oracle actually fixes (see the p = 2 anchors in the tests).
"""

import cmath
import math

import numpy as np

from .algebra import BiaxialPoint, Multivector, embed_vector
from .fields import (
    AxialField,
    ExpLinear,
    PlaneWaveSeries,
    _on_radii,
    _scalar_rows,
    _unit,
    batched_part,
    ck_extend,
    eval_series,
    hpw_recurrence,
)
from .quadrature import SphereRule, sphere_area
from .special import bessel_i, bessel_j, gamma_fn

MAX_POLY_DEGREE = 12


# The series engine lives in fields; PlaneWaveSeries, hpw_recurrence and
# the one evaluator, as eval_planewave, stay importable from here.
eval_planewave = eval_series


def exp_coeffs_closed(j: int, p: int) -> float:
    """Nonzero coefficient at index j of the exponential family (c0=1, d0=0).

    Even j gives c_j = Gamma(p/2) / (2^j Gamma(j/2+1) Gamma(j/2+p/2)),
    odd j gives d_j = Gamma(p/2) / (2^j Gamma((j+1)/2) Gamma((j+1)/2+p/2)).
    """
    if j < 0:
        raise ValueError(f"need j >= 0, got {j}")
    half_p = 0.5 * p
    return math.exp(
        math.lgamma(half_p) - j * math.log(2.0)
        - math.lgamma(j // 2 + 1.0) - math.lgamma((j + 1) // 2 + half_p)
    )


def exp_hpw_series(p: int, q: int, s, J: int = 40) -> PlaneWaveSeries:
    """Exponential family: the extension of exp(<y, s>), so c_0 = 1, d_0 = 0."""
    return ck_extend(ExpLinear.exponential(s), p, q, J)


def _exp_profile(p: int, r: float, k: int) -> float:
    """Radial coefficient of 1 (k = 0) or of (x/|x|) s (k = 1) in the
    exponential family's Bessel closed form: scale(r) J_{p/2-1+k}(r)."""
    half_p = 0.5 * p
    if r == 0.0:
        return (1.0, 0.0)[k]
    scale = 2.0 ** (half_p - 1.0) * gamma_fn(half_p) / r ** (half_p - 1.0)
    return scale * bessel_j(half_p - 1.0 + k, r)


def hpw_exp_closed(pt: BiaxialPoint, s) -> Multivector:
    """Bessel-J closed form of the exponential plane wave.

    (2^{p/2-1} Gamma(p/2) / |x|^{p/2-1})
    (J_{p/2-1}(|x|) + J_{p/2}(|x|) (x/|x|) s) exp(<y, s>);
    the |x| -> 0 limit is exp(<y, s>).  It is exp_hpw_axial_field's value.
    """
    return exp_hpw_axial_field(pt.p, pt.q, s).value_at(pt)


def exp_hpw_axial_field(p: int, q: int, s) -> AxialField:
    """The exponential plane wave as an axial A/B pair."""
    s = _unit(s)
    dim = p + q
    s_coeffs = embed_vector(dim, p, s).coeffs

    def a_rows(r, y):
        c = _on_radii(lambda rad: _exp_profile(p, rad, 0), r)
        return _scalar_rows(dim, c * np.exp(y @ s))

    def b_rows(r, y):
        d = _on_radii(lambda rad: _exp_profile(p, rad, 1), r)
        return (d * np.exp(y @ s))[:, None] * s_coeffs

    return AxialField(p, q, batched_part(dim, a_rows), batched_part(dim, b_rows))


def poly_coeff_a(j: int, k: int, p: int) -> float:
    """Gamma-ratio coefficient of x^{2j+1} in the radialized vector part."""
    if not 0 <= 2 * j + 1 <= k:
        raise ValueError(f"need 0 <= 2j+1 <= k, got j={j}, k={k}")
    return (
        (-1.0) ** j * math.comb(k, 2 * j + 1)
        * gamma_fn(0.5 * (p - 1.0)) * gamma_fn(j + 1.5) / gamma_fn(0.5 * p + j + 1.0)
    )


def poly_coeff_b(j: int, k: int, p: int) -> float:
    """Gamma-ratio coefficient of x^{2j} in the radialized scalar part."""
    if not 0 <= 2 * j <= k:
        raise ValueError(f"need 0 <= 2j <= k, got j={j}, k={k}")
    return (
        (-1.0) ** j * math.comb(k, 2 * j)
        * gamma_fn(0.5 * (p - 1.0)) * gamma_fn(j + 0.5) / gamma_fn(0.5 * p + j)
    )


def _poly_radial_coeffs(k: int, p: int, r, t):
    """Coefficients (of x/|x| and of i s) in the radialized degree-k wave.

    The x powers carry their multivector signs: x^{2j} = (-1)^j |x|^{2j}.
    r and t are floats or equal-shape arrays.
    """
    it = 1j * t
    coef_a = 0.0 + 0.0j
    for j in range((k - 1) // 2 + 1):
        coef_a += ((-1.0) ** j * r ** (2 * j)) * poly_coeff_a(j, k, p) * it ** (k - 2 * j - 1)
    coef_b = 0.0 + 0.0j
    for j in range(k // 2 + 1):
        coef_b += ((-1.0) ** j * r ** (2 * j)) * poly_coeff_b(j, k, p) * it ** (k - 2 * j)
    kappa = sphere_area(p - 1)
    return kappa * coef_a, kappa * coef_b


def radialize_poly(k: int, pt: BiaxialPoint, s) -> Multivector:
    """Closed form of g = int (<x,t> + i<y,s>)^k (t + i s) dS(t) over S^{p-1}.

    g = A + i B s with the vector part A along x and scalar B.
    """
    if not 0 <= k <= MAX_POLY_DEGREE:
        raise ValueError(f"degree must lie in [0, {MAX_POLY_DEGREE}], got {k}")
    s = _unit(s)
    t = float(np.dot(pt.y, s))
    coef_a, coef_b = _poly_radial_coeffs(k, pt.p, pt.r, t)
    out = coef_a * pt.embed_x()
    return out + (1j * coef_b) * embed_vector(pt.dim, pt.p, s)


def radialize_poly_oracle(k: int, pt: BiaxialPoint, s, rule: SphereRule) -> Multivector:
    """Direct sphere quadrature of the radialization integrand."""
    s = _unit(s)
    if rule.dim != pt.p:
        raise ValueError("oracle needs a rule on S^{p-1}")
    proj = rule.points @ pt.x + 1j * float(np.dot(pt.y, s))
    zonal = rule.weights * proj ** k
    x_part = zonal @ rule.points
    y_part = np.sum(zonal) * 1j * s
    return Multivector.vector(pt.dim, np.concatenate([x_part, y_part]))


def poly_hpw_axial_field(p: int, q: int, s, k: int) -> AxialField:
    """Radialized polynomial wave as an axial pair.

    A(r, y) = i kappa coef_b s and B(r, y) = kappa coef_a r, so that
    A + (x/|x|) B reassembles the closed form.
    """
    if not 0 <= k <= MAX_POLY_DEGREE:
        raise ValueError(f"degree must lie in [0, {MAX_POLY_DEGREE}], got {k}")
    s = _unit(s)
    dim = p + q
    s_coeffs = embed_vector(dim, p, s).coeffs

    def a_rows(r, y):
        _, coef_b = _poly_radial_coeffs(k, p, r, y @ s)
        return (1j * coef_b)[:, None] * s_coeffs

    def b_rows(r, y):
        coef_a, _ = _poly_radial_coeffs(k, p, r, y @ s)
        return _scalar_rows(dim, coef_a * r)

    return AxialField(p, q, batched_part(dim, a_rows), batched_part(dim, b_rows))


def _fourier_profile(p: int, r: float, k: int) -> complex:
    """Coefficient of s (k = 0) or of x/|x| (k = 1) in the Fourier kernel,
    less the phase.

    sqrt(pi) kappa_p 2^{(p-2)/2} Gamma((p-1)/2) / r^{(p-2)/2} times
    i I_{(p-2)/2}(r) for k = 0 and I_{p/2}(r) for k = 1; at r = 0 the
    pair is (i |S^{p-1}|, 0).
    """
    if r == 0.0:
        return (1j * sphere_area(p), 0.0)[k]
    kappa = sphere_area(p - 1)
    const = math.sqrt(math.pi) * kappa * 2.0 ** (0.5 * (p - 2.0)) * gamma_fn(0.5 * (p - 1.0))
    const /= r ** (0.5 * (p - 2.0))
    return (1j, 1.0)[k] * const * bessel_i(0.5 * (p - 2.0) + k, r)


def fourier_kernel_closed(pt: BiaxialPoint, s) -> Multivector:
    """Modified-Bessel closed form of the radialized Fourier kernel.

    G = sqrt(pi) kappa_p 2^{(p-2)/2} Gamma((p-1)/2) / |x|^{(p-2)/2}
        (i I_{(p-2)/2}(|x|) s + (x/|x|) I_{p/2}(|x|)) exp(i <y, s>),
    with G -> i |S^{p-1}| s exp(i<y,s>) as x -> 0; fourier_axial_field's value.
    """
    return fourier_axial_field(pt.p, pt.q, s).value_at(pt)


def fourier_kernel_oracle(pt: BiaxialPoint, s, rule: SphereRule) -> Multivector:
    """Sphere quadrature of exp(<x,t> + i<y,s>) (t + i s) over t in S^{p-1}."""
    s = _unit(s)
    if rule.dim != pt.p:
        raise ValueError("oracle needs a rule on S^{p-1}")
    phase = cmath.exp(1j * float(np.dot(pt.y, s)))
    zonal = rule.weights * np.exp(rule.points @ pt.x) * phase
    x_part = zonal @ rule.points
    y_part = np.sum(zonal) * 1j * s
    return Multivector.vector(pt.dim, np.concatenate([x_part, y_part]))


def fourier_axial_field(p: int, q: int, s) -> AxialField:
    """Fourier-kernel wave as an axial pair: A = (i-part) s, B scalar."""
    s = _unit(s)
    dim = p + q
    s_coeffs = embed_vector(dim, p, s).coeffs

    def a_rows(r, y):
        cs = _on_radii(lambda rad: _fourier_profile(p, rad, 0), r)
        return (cs * np.exp(1j * (y @ s)))[:, None] * s_coeffs

    def b_rows(r, y):
        be = _on_radii(lambda rad: _fourier_profile(p, rad, 1), r)
        return _scalar_rows(dim, be * np.exp(1j * (y @ s)))

    return AxialField(p, q, batched_part(dim, a_rows), batched_part(dim, b_rows))
