"""Plane waves with x-radial symmetry.

Constructions on the series engine of biaxial.fields (the coefficient
recurrence determined by the initial pair (C_0, D_0)): the Gamma-ratio
closed coefficients of the exponential family and its Bessel-J form,
the polynomial radialization of (<x,t> + i<y,s>)^k (t + i s) over t in
S^{p-1}, and the Fourier-kernel family with its modified-Bessel form.
Each profile is defined once: every closed form (exponential,
polynomial, Fourier) is value_at of its axial pair and has a
sphere-quadrature oracle next to it.

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
    _axial_part,
    _on_radii,
    _unit,
    ck_extend,
    eval_series,
    hpw_recurrence,
)
from .quadrature import SphereRule, sphere_area
from .special import _check_range, bessel_i, bessel_j, gamma_fn

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


# Below this |x| a Bessel profile is its leading term to double precision (k = 0:
# its r = 0 value; k = 1: c r/p, c = 1 or |S^{p-1}|), and r^{p/2-1} underflows.
_PROFILE_TINY_R = 1e-8


def _exp_profile(p: int, r: float, k: int) -> float:
    """Radial coefficient of 1 (k = 0) or of (x/|x|) s (k = 1) in the
    exponential family's Bessel closed form: scale(r) J_{p/2-1+k}(r)."""
    half_p = 0.5 * p
    if 0.0 <= r < _PROFILE_TINY_R:
        return (1.0, r / p)[k]
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

    def profile(k):
        radial = lambda rad: _exp_profile(p, rad, k)
        return lambda r, y: _on_radii(radial, r) * np.exp(y @ s)

    s_coeffs = embed_vector(dim, p, s).coeffs
    return AxialField(p, q, _axial_part(dim, profile(0)), _axial_part(dim, profile(1), s_coeffs))


def poly_coeff_a(j: int, k: int, p: int) -> float:
    """Gamma-ratio coefficient of x^{2j+1} in the radialized vector part."""
    _check_range("2j+1", 2 * j + 1, 0, k)
    return (
        (-1.0) ** j * math.comb(k, 2 * j + 1)
        * gamma_fn(0.5 * (p - 1.0)) * gamma_fn(j + 1.5) / gamma_fn(0.5 * p + j + 1.0)
    )


def poly_coeff_b(j: int, k: int, p: int) -> float:
    """Gamma-ratio coefficient of x^{2j} in the radialized scalar part."""
    _check_range("2j", 2 * j, 0, k)
    return (
        (-1.0) ** j * math.comb(k, 2 * j)
        * gamma_fn(0.5 * (p - 1.0)) * gamma_fn(j + 0.5) / gamma_fn(0.5 * p + j)
    )


def _poly_profile(k: int, p: int, parity: int, r, t):
    """kappa times the x^{2j+parity} terms of the radialized degree-k wave, the
    coefficient of i s (parity 0) or of x (parity 1), with x^{2j} = (-1)^j |x|^{2j};
    r and t are floats or equal-shape arrays."""
    coeff = (poly_coeff_b, poly_coeff_a)[parity]
    it = 1j * t
    acc = 0.0 + 0.0j
    for j in range((k - parity) // 2 + 1):
        acc += ((-1.0) ** j * r ** (2 * j)) * coeff(j, k, p) * it ** (k - 2 * j - parity)
    return sphere_area(p - 1) * acc


def radialize_poly(k: int, pt: BiaxialPoint, s) -> Multivector:
    """Closed form of g = int (<x,t> + i<y,s>)^k (t + i s) dS(t) over S^{p-1}.

    g = A + i B s with the vector part A along x and scalar B; it is
    poly_hpw_axial_field's value.
    """
    return poly_hpw_axial_field(pt.p, pt.q, s, k).value_at(pt)


def _sphere_oracle(pt: BiaxialPoint, s, rule: SphereRule, integrand) -> Multivector:
    """Quadrature of F (t + i s) over t in S^{p-1}, the one oracle of the
    radialized families.  integrand maps the nodes' <x, t>, a fresh array it
    may overwrite, and the number <y, s> to terms (v, c) with w F = sum c v:
    real weighted node values v and complex constants c.  Every product with
    the node array is real, and each c multiplies only the p sums of its v
    and their total."""
    s = _unit(s)
    if rule.dim != pt.p:
        raise ValueError("oracle needs a rule on S^{p-1}")
    terms = integrand(rule.points @ pt.x, float(np.dot(pt.y, s)))
    x_part = sum(c * (v @ rule.points) for v, c in terms)
    y_part = sum(c * np.sum(v) for v, c in terms) * 1j * s
    return Multivector.vector(pt.dim, np.concatenate([x_part, y_part]))


def radialize_poly_oracle(k: int, pt: BiaxialPoint, s, rule: SphereRule) -> Multivector:
    """Direct sphere quadrature of the radialization integrand."""

    def integrand(xt, ys):
        zonal = rule.weights * (xt + 1j * ys) ** k
        return (zonal.real, 1.0), (zonal.imag, 1j)

    return _sphere_oracle(pt, s, rule, integrand)


def poly_hpw_axial_field(p: int, q: int, s, k: int) -> AxialField:
    """Radialized polynomial wave as an axial pair.

    A(r, y) = i kappa coef_b s and B(r, y) = kappa coef_a r, where
    _poly_profile gives kappa coef_b (parity 0) and kappa coef_a (parity 1).
    """
    _check_range("degree", k, 0, MAX_POLY_DEGREE)
    s = _unit(s)
    dim = p + q
    return AxialField(
        p, q,
        _axial_part(dim, lambda r, y: 1j * _poly_profile(k, p, 0, r, y @ s),
                    embed_vector(dim, p, s).coeffs),
        _axial_part(dim, lambda r, y: _poly_profile(k, p, 1, r, y @ s) * r),
    )


def _fourier_profile(p: int, r: float, k: int) -> complex:
    """Coefficient of s (k = 0) or of x/|x| (k = 1) in the Fourier kernel,
    less the phase.

    sqrt(pi) kappa_p 2^{(p-2)/2} Gamma((p-1)/2) / r^{(p-2)/2} times
    i I_{(p-2)/2}(r) for k = 0 and I_{p/2}(r) for k = 1; at r = 0 the
    pair is (i |S^{p-1}|, 0).
    """
    if 0.0 <= r < _PROFILE_TINY_R:
        return (1j * sphere_area(p), sphere_area(p) * r / p)[k]
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

    def integrand(xt, ys):
        # w exp(<x,t>) is real and fills <x,t>'s buffer; the phase exp(i<y,s>)
        # multiplies the p sums and their total, so the reported values round
        # as (sum of w exp(<x,t>) t) * phase.
        np.exp(xt, out=xt)
        xt *= rule.weights
        return ((xt, cmath.exp(1j * ys)),)

    return _sphere_oracle(pt, s, rule, integrand)


def fourier_axial_field(p: int, q: int, s) -> AxialField:
    """Fourier-kernel wave as an axial pair: A = (i-part) s, B scalar."""
    s = _unit(s)
    dim = p + q

    def profile(k):
        radial = lambda rad: _fourier_profile(p, rad, k)
        # np.multiply, so a 0-d r goes through the array loop too: scalar
        # math multiplies a real profile by the phase as a complex number,
        # which can flip the sign of a zero imaginary part.
        return lambda r, y: np.multiply(_on_radii(radial, r), np.exp(1j * (y @ s)))

    s_coeffs = embed_vector(dim, p, s).coeffs
    return AxialField(p, q, _axial_part(dim, profile(0), s_coeffs), _axial_part(dim, profile(1)))
