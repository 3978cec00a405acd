import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biaxial.special import (
    BESSEL_I_MAX_ARG,
    BESSEL_J_MAX_ARG,
    HYP2F1_MAX_Z,
    _hyp2f1_euler,
    _hyp2f1_series,
    bessel_i,
    bessel_j,
    gamma_fn,
    gegenbauer,
    gegenbauer_normalized,
    hyp2f1_symmetric,
    pochhammer,
)
from biaxial.quadrature import gauss_jacobi_rule


def test_gamma_basics():
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_recurrence():
    for x in np.linspace(0.5, 20.0, 17):
        assert gamma_fn(x + 1.0) / gamma_fn(x) == pytest.approx(x, rel=1e-13)


def test_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma_fn(0.0)
    with pytest.raises(ValueError):
        gamma_fn(-1.5)


def test_pochhammer_values():
    assert pochhammer(2.0, 0) == 1.0
    assert pochhammer(3.0, 2) == 12.0
    assert pochhammer(2.5, 4) == pytest.approx(gamma_fn(6.5) / gamma_fn(2.5), rel=1e-13)


def test_bessel_j_at_zero():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(2.0, 0.0) == 0.0


def test_bessel_half_order_closed_form():
    z = 1.0
    expected = math.sqrt(2.0 / (math.pi * z)) * math.sin(z)
    assert bessel_j(0.5, z) == pytest.approx(expected, rel=1e-13)


def test_bessel_range_validation():
    with pytest.raises(ValueError):
        bessel_j(-0.5, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0.5, 51.0)
    # J stops where its alternating series loses accuracy; I does not cancel.
    with pytest.raises(ValueError, match=r"\[0, 12\.0\]"):
        bessel_j(0.5, 12.5)
    assert bessel_i(0.5, 12.5) > 0.0
    with pytest.raises(ValueError, match=r"\[0, 50\.0\]"):
        bessel_i(0.5, 51.0)


def test_bessel_j_matches_mpmath_on_its_domain():
    for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.5, 10.0):
        for z in np.linspace(0.0, BESSEL_J_MAX_ARG, 400):
            ref = float(mpmath.besselj(nu, z))
            assert abs(bessel_j(nu, float(z)) - ref) <= 1e-12 * max(1.0, abs(ref)), (nu, z)


# Small arguments: there a high-order value is far below 1, which an
# absolute stop of the series would truncate.
_SMALL_Z = np.geomspace(1e-3, 0.1, 20, endpoint=False)


def test_bessel_j_is_relatively_accurate_where_it_has_no_zero():
    # J_nu has no zero on (0, 2] for these orders, so the bound can be relative.
    for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.5, 10.0):
        for z in np.concatenate([_SMALL_Z, np.linspace(0.1, 2.0, 96)]):
            ref = float(mpmath.besselj(nu, z))
            assert abs(bessel_j(nu, float(z)) - ref) <= 1e-12 * abs(ref), (nu, z)


def test_bessel_i_is_relatively_accurate_on_its_domain():
    for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.5, 7.0, 10.0):
        for z in np.concatenate([_SMALL_Z, np.linspace(0.1, BESSEL_I_MAX_ARG, 200)]):
            ref = float(mpmath.besseli(nu, z))
            assert abs(bessel_i(nu, float(z)) - ref) <= 1e-12 * ref, (nu, z)


def test_bessel_series_stops_when_its_terms_underflow():
    # (z/2)^nu underflows to 0 here, so the relative stop must accept 0 <= 0.
    for nu in (1.5, 10.0):
        assert bessel_j(nu, 1e-221) == 0.0 and bessel_i(nu, 1e-221) == 0.0
    assert bessel_j(1.0, 1e-310) == pytest.approx(5e-311, rel=1e-12)


def test_bessel_i_integral_representation():
    # (1/(Gamma(nu+1/2) sqrt(pi))) (r/2)^nu Int_{-1}^{1} e^{-ru} (1-u^2)^{nu-1/2} du
    nu, r = 1.0, 2.0
    rule = gauss_jacobi_rule(80, nu - 0.5)
    integral = rule.integrate(lambda u: np.exp(-r * u))
    expected = (r / 2.0) ** nu * integral / (gamma_fn(nu + 0.5) * math.sqrt(math.pi))
    assert bessel_i(nu, r) == pytest.approx(expected, rel=1e-12)


def test_bessel_i_derivative_identity():
    # d/dz (z^-nu I_nu(z)) = z^-nu I_{nu+1}(z), by central differences.
    h = 1e-5
    for nu in (0.5, 1.0, 2.0):
        for z in (0.5, 1.0, 3.0):
            f = lambda u: u ** (-nu) * bessel_i(nu, u)
            lhs = (f(z + h) - f(z - h)) / (2.0 * h)
            rhs = z ** (-nu) * bessel_i(nu + 1.0, z)
            assert lhs == pytest.approx(rhs, rel=1e-8)


def test_gegenbauer_low_degrees():
    for lam in (0.5, 1.0, 2.5):
        for t in (-0.8, 0.0, 0.3, 1.0):
            assert gegenbauer(0, lam, t) == 1.0
            assert gegenbauer(1, lam, t) == pytest.approx(2.0 * lam * t, abs=1e-15)


def test_gegenbauer_endpoint_value():
    for lam in (0.5, 1.0, 1.5):
        for k in range(11):
            assert gegenbauer(k, lam, 1.0) == pytest.approx(
                pochhammer(2.0 * lam, k) / math.factorial(k), rel=1e-12
            )


def test_gegenbauer_normalized_degree_one_is_identity():
    for p in (3, 4, 5, 6):
        for u in (-0.9, -0.2, 0.5, 1.0):
            assert gegenbauer_normalized(1, p, u) == pytest.approx(u, abs=1e-14)


def test_gegenbauer_normalized_chebyshev_limit():
    for k in range(6):
        for t in (-0.7, 0.1, 0.9):
            assert gegenbauer_normalized(k, 2, t) == pytest.approx(
                math.cos(k * math.acos(t)), abs=1e-14
            )


def test_gegenbauer_domain():
    with pytest.raises(ValueError):
        gegenbauer(2, 1.0, 1.5)


def test_2f1_at_zero():
    assert hyp2f1_symmetric(2.0, 1.0, 0.0) == 1.0


def test_2f1_log_closed_form():
    z = 0.5
    expected = -math.log(1.0 - z) / z
    assert float(hyp2f1_symmetric(1.0, 1.0, z)) == pytest.approx(expected, rel=1e-13)


def test_2f1_branches_agree_on_overlap():
    for z in np.linspace(0.4, 0.6, 7):
        s = float(_hyp2f1_series(3.0, 1.0, 2.0, z))
        e = float(_hyp2f1_euler(3.0, 1.0, z))
        assert s == pytest.approx(e, rel=1e-10)


def test_2f1_branches_agree_for_kernel_parameters():
    # Parameter triples of the hemisphere kernel: a=(p+q)/2, b=(p-1)/2, c=2b.
    for p in (2, 3, 4, 5):
        for q in (2, 3):
            if p + q > 8:
                continue
            a, b = 0.5 * (p + q), 0.5 * (p - 1.0)
            for z in np.linspace(0.4, 0.6, 5):
                s = float(_hyp2f1_series(a, b, 2.0 * b, z))
                e = float(_hyp2f1_euler(a, b, z))
                assert s == pytest.approx(e, rel=1e-10)


@st.composite
def kernel_triples(draw):
    # Shift 0 gives the triples of the moment I, shift 1 those of Phi.
    p = draw(st.integers(2, 7))
    q = draw(st.integers(1, 8 - p))
    shift = draw(st.integers(0, 1))
    return 0.5 * (p + q) + shift, 0.5 * (p - 1.0) + shift


@settings(max_examples=60, deadline=None)
@given(ab=kernel_triples(),
       zs=st.lists(st.floats(0.0, HYP2F1_MAX_Z), min_size=1, max_size=8),
       bad=st.floats(-10.0, 0.0, exclude_max=True)
       | st.floats(HYP2F1_MAX_Z, 10.0, exclude_min=True))
@example(ab=(4.0, 2.0), zs=[HYP2F1_MAX_Z], bad=1.0)
@example(ab=(5.0, 3.0), zs=[HYP2F1_MAX_Z], bad=1.0)
def test_hyp2f1_symmetric_matches_mpmath(ab, zs, bad):
    # The one 2F1 entry over the kernel triples a = (p+q)/2 + s,
    # b = (p-1)/2 + s, c = 2b (p >= 2, p+q <= 8, s in {0, 1}).  Rounding near
    # the pole grows with z: the worst of 50,000 random z in [0.99, 0.999] is
    # 5.9e-13 at s = 0, and the worst of 3,000 is 8.7e-13 at s = 1.
    a, b = ab
    got = hyp2f1_symmetric(a, b, np.array(zs))
    with mpmath.workdps(30):
        for z, value in zip(zs, got):
            ref = float(mpmath.hyp2f1(a, b, 2.0 * b, z))
            assert abs(value - ref) <= 1e-12 * abs(ref), (a, b, z)
    with pytest.raises(ValueError, match="0.999"):
        hyp2f1_symmetric(a, b, np.array(zs + [bad]))


def test_2f1_domain_validation():
    with pytest.raises(ValueError, match="0.999"):
        hyp2f1_symmetric(1.0, 1.0, 0.9999)
    with pytest.raises(ValueError):
        hyp2f1_symmetric(1.0, 1.0, 1.2)
