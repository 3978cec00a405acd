"""Reference copies of the closed forms that became value_at of their pairs.

hpw_exp_closed, fourier_kernel_closed and radialize_poly assembled their
profiles by hand, and ck_bessel_form summed its own Bessel-J series.
They are copied unchanged from the code before each became one value_at
call on its axial pair (ck_bessel_form: the exponential wave);
radialize_poly computes its coefficients with axial_reference's copy of
the former _poly_radial_coeffs.  Their products go through
product_reference's blade loop, the product of that time.  The tests hold
the library to these references.
"""

import cmath
import math

import numpy as np

from axial_reference import _poly_radial_coeffs
from biaxial.algebra import BiaxialPoint, Multivector, embed_vector
from biaxial.fields import _unit
from biaxial.planewave import MAX_POLY_DEGREE, _exp_profile, _fourier_profile
from biaxial.special import BESSEL_J_MAX_ARG, gamma_fn
from product_reference import product

_TERM_EPS = 1e-16
_MAX_TERMS = 500


def hpw_exp_closed(pt: BiaxialPoint, s) -> Multivector:
    """Bessel-J closed form of the exponential plane wave.

    (2^{p/2-1} Gamma(p/2) / |x|^{p/2-1})
    (J_{p/2-1}(|x|) + J_{p/2}(|x|) (x/|x|) s) exp(<y, s>);
    the |x| -> 0 limit is exp(<y, s>).
    """
    s = _unit(s)
    dim = pt.dim
    phase = math.exp(float(np.dot(pt.y, s)))
    c, d = _exp_profile(pt.p, pt.r, 0), _exp_profile(pt.p, pt.r, 1)
    out = Multivector.scalar(dim, c * phase)
    if pt.r > 0.0:
        es = product(pt.embed_unit_x(), embed_vector(dim, pt.p, s))
        out = out + (d * phase) * es
    return out


def fourier_kernel_closed(pt: BiaxialPoint, s) -> Multivector:
    """Modified-Bessel closed form of the radialized Fourier kernel.

    G = sqrt(pi) kappa_p 2^{(p-2)/2} Gamma((p-1)/2) / |x|^{(p-2)/2}
        (i I_{(p-2)/2}(|x|) s + (x/|x|) I_{p/2}(|x|)) exp(i <y, s>),
    with G -> i |S^{p-1}| s exp(i<y,s>) as x -> 0.
    """
    s = _unit(s)
    phase = cmath.exp(1j * float(np.dot(pt.y, s)))
    out = (_fourier_profile(pt.p, pt.r, 0) * phase) * embed_vector(pt.dim, pt.p, s)
    if pt.r == 0.0:
        return out
    return out + (_fourier_profile(pt.p, pt.r, 1) * phase) * pt.embed_unit_x()


def ck_bessel_form(pt: BiaxialPoint, s) -> Multivector:
    """Closed evaluation of the extension of exp(<y, s>).

    Gamma(p/2) [ sum_j (-1)^j |x|^{2j} / (j! 2^{2j} Gamma(p/2+j))
               + (1/2) sum_j (-1)^j |x|^{2j} / (j! 2^{2j} Gamma(p/2+j+1)) x s ]
    exp(<y, s>), summed adaptively.  The sums are the Bessel-J series, so
    |x| is limited to BESSEL_J_MAX_ARG as for bessel_j.
    """
    s = _unit(s)
    if pt.r > BESSEL_J_MAX_ARG:
        raise ValueError(f"|x| must lie in [0, {BESSEL_J_MAX_ARG}], got {pt.r}")
    p, dim = pt.p, pt.dim
    r2 = pt.r ** 2
    half_p = 0.5 * p
    term1 = 1.0 / gamma_fn(half_p)
    term2 = 1.0 / gamma_fn(half_p + 1.0)
    s1, s2 = term1, term2
    j = 0
    while j < _MAX_TERMS:
        j += 1
        scale = -r2 / (4.0 * j)
        term1 *= scale / (half_p + j - 1.0)
        term2 *= scale / (half_p + j)
        s1 += term1
        s2 += term2
        if max(abs(term1), abs(term2)) < _TERM_EPS * max(abs(s1), abs(s2), 1e-300):
            break
    phase = math.exp(float(np.dot(pt.y, s)))
    xs = product(pt.embed_x(), embed_vector(dim, p, s))
    value = Multivector.scalar(dim, s1) + 0.5 * s2 * xs
    return gamma_fn(half_p) * phase * value


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
