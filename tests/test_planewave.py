import math

import numpy as np
import pytest

import closed_form_reference
from biaxial.algebra import BiaxialPoint, Multivector
from biaxial.fields import (
    ExpLinear,
    _series_pair,
    ck_bessel_form,
    dirac_apply_fd,
    vekua_residual,
)
from biaxial.planewave import (
    eval_planewave,
    exp_coeffs_closed,
    exp_hpw_axial_field,
    exp_hpw_series,
    fourier_axial_field,
    fourier_kernel_closed,
    fourier_kernel_oracle,
    hpw_recurrence,
    hpw_exp_closed,
    poly_coeff_a,
    poly_coeff_b,
    poly_hpw_axial_field,
    radialize_poly,
    radialize_poly_oracle,
)
from biaxial.quadrature import sphere_rule, sphere_area
from biaxial.special import bessel_i
from biaxial.rng import SplitMix64

S2 = np.array([1.0, 0.0])


def exp_profile_value(series, j, kind):
    profile = series.C[j] if kind == "c" else series.D[j]
    assert profile.poly.size == 1
    return complex(profile.poly[0])


def test_recurrence_first_coefficients():
    for p in (2, 3, 4, 5):
        series = exp_hpw_series(p, 2, S2, J=8)
        assert exp_profile_value(series, 1, "d") == pytest.approx(1.0 / p)
        assert exp_profile_value(series, 2, "c") == pytest.approx(1.0 / (2.0 * p))
        assert exp_profile_value(series, 3, "d") == pytest.approx(
            1.0 / (2.0 * p * (p + 2.0))
        )


def test_recurrence_parity_structure():
    series = exp_hpw_series(3, 2, S2, J=20)
    for j in range(series.truncation):
        if j % 2 == 1:
            assert exp_profile_value(series, j, "c") == 0.0
        if j % 2 == 0 and j > 0:
            assert exp_profile_value(series, j, "d") == 0.0


def test_closed_coefficients_match_recurrence():
    for p in (2, 3, 4, 5):
        series = exp_hpw_series(p, 2, S2, J=21)
        for j in range(21):
            got = exp_profile_value(series, j, "c" if j % 2 == 0 else "d")
            want = exp_coeffs_closed(j, p)
            assert got.real == pytest.approx(want, rel=1e-13), (p, j)


def test_closed_coefficients_anchor_values():
    assert exp_coeffs_closed(0, 3) == pytest.approx(1.0)
    for p in (2, 3, 4):
        assert exp_coeffs_closed(1, p) == pytest.approx(1.0 / p, rel=1e-14)


def test_closed_form_matches_series():
    rng = SplitMix64(42)
    for p in (2, 3, 4, 5):
        series = exp_hpw_series(p, 2, S2, J=40)
        for _ in range(6):
            x = rng.unit_vector(p) * rng.uniform(0.0, 2.0)
            y = rng.uniform_array(2, -0.7, 0.7)
            pt = BiaxialPoint(p, 2, x, y)
            closed = hpw_exp_closed(pt, S2)
            value, _ = eval_planewave(series, pt)
            scale = max(1.0, closed.norm_inf)
            assert (closed - value).norm_inf / scale < 1e-12, (p, x, y)


def test_closed_form_matches_ck_route():
    # ck_bessel_form is the exponential wave; the reference is the separate
    # Bessel-J series it summed before.
    rng = SplitMix64(43)
    for p in (2, 3, 4, 5):
        for _ in range(4):
            x = rng.unit_vector(p) * rng.uniform(0.0, 2.0)
            y = rng.uniform_array(2, -0.7, 0.7)
            pt = BiaxialPoint(p, 2, x, y)
            closed = ck_bessel_form(pt, S2)
            via_ck = closed_form_reference.ck_bessel_form(pt, S2)
            scale = max(1.0, closed.norm_inf)
            assert (closed - via_ck).norm_inf / scale < 1e-14


def test_closed_form_axis_limit():
    pt = BiaxialPoint(3, 2, np.zeros(3), np.array([0.2, 0.5]))
    out = hpw_exp_closed(pt, S2)
    expected = Multivector.scalar(5, math.exp(0.2))
    assert (out - expected).norm_inf < 1e-14


def test_exp_wave_is_dirac_null():
    rng = SplitMix64(44)
    for p, q in ((2, 2), (3, 2), (2, 3), (3, 3)):
        s = np.zeros(q)
        s[0] = 1.0
        for _ in range(3):
            x = rng.unit_vector(p) * rng.uniform(0.2, 1.4)
            y = rng.uniform_array(q, -0.6, 0.6)
            pt = BiaxialPoint(p, q, x, y)
            res = dirac_apply_fd(lambda pt2: hpw_exp_closed(pt2, s), pt, h=1e-3)
            assert res.norm_inf < 1e-6


def test_exp_axial_field_vekua():
    field = exp_hpw_axial_field(3, 2, S2)
    res1, res2 = vekua_residual(field, 0.8, np.array([0.3, -0.2]), h=1e-4)
    assert res1.norm_inf < 1e-8
    assert res2.norm_inf < 1e-8


def test_quadruple_round_trip():
    # The axial split A + x_hat B reassembles the series value.
    rng = SplitMix64(45)
    series = exp_hpw_series(3, 2, S2, J=40)
    for _ in range(6):
        x = rng.unit_vector(3) * rng.uniform(0.1, 1.5)
        y = rng.uniform_array(2, -0.7, 0.7)
        pt = BiaxialPoint(3, 2, x, y)
        direct, _ = eval_planewave(series, pt)
        a_part, b_part, _ = _series_pair(series, pt, pt.r)
        assembled = a_part + pt.embed_unit_x() * b_part
        scale = max(1.0, direct.norm_inf)
        assert (assembled - direct).norm_inf / scale < 1e-13


def test_general_recurrence_polynomial_start():
    # Polynomial initial data stays polynomial and terminates.
    c0 = ExpLinear.polynomial(S2, [0.0, 0.0, 1.0])  # t^2
    d0 = ExpLinear.zero(S2)
    series = hpw_recurrence(c0, d0, p=3, q=2, J=20)
    assert series.terminated
    pt = BiaxialPoint(3, 2, np.array([0.4, 0.2, -0.1]), np.array([0.3, 0.6]))
    res = dirac_apply_fd(lambda pt2: eval_planewave(series, pt2)[0], pt, h=1e-3)
    assert res.norm_inf < 1e-6


def test_poly_coeff_anchors():
    # k=1, j=0, p=2: Gamma(1/2) Gamma(3/2) / Gamma(2) = pi/2.
    assert poly_coeff_a(0, 1, 2) == pytest.approx(math.pi / 2.0, rel=1e-14)
    for p in (2, 3, 4):
        want = math.gamma(0.5 * (p - 1.0)) * math.gamma(0.5) / math.gamma(0.5 * p)
        assert poly_coeff_b(0, 0, p) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        poly_coeff_a(1, 2, 3)


def test_circle_anchor_fixes_prefactor():
    # int_{S^1} <x,t> t dS(t) = pi x: the equatorial measure kappa_2 = 2
    # balances, the full circle measure 2 pi would not.
    pt = BiaxialPoint(2, 2, np.array([1.0, 0.0]), np.zeros(2))
    out = radialize_poly(1, pt, S2)
    x_component = out.coeffs[1]
    assert complex(x_component) == pytest.approx(math.pi, rel=1e-14)
    oracle = radialize_poly_oracle(1, pt, S2, sphere_rule(2, 64))
    assert (out - oracle).norm_inf < 1e-12


def test_radialize_degree_zero():
    pt = BiaxialPoint(3, 2, np.array([0.3, 0.1, 0.2]), np.array([0.4, 0.0]))
    out = radialize_poly(0, pt, S2)
    expected = (1j * sphere_area(3)) * pt.embed_y_vector(S2)
    assert (out - expected).norm_inf < 1e-12


def test_radialize_closed_vs_oracle():
    rng = SplitMix64(46)
    for p in (2, 3, 4):
        rule = sphere_rule(p, 32)
        for k in range(7):
            x = rng.unit_vector(p) * rng.uniform(0.1, 1.2)
            y = rng.uniform_array(2, -0.8, 0.8)
            pt = BiaxialPoint(p, 2, x, y)
            closed = radialize_poly(k, pt, S2)
            oracle = radialize_poly_oracle(k, pt, S2, rule)
            scale = max(1.0, closed.norm_inf, oracle.norm_inf)
            assert (closed - oracle).norm_inf / scale < 1e-9, (p, k)


def test_radialize_oracle_self_convergence():
    pt = BiaxialPoint(3, 2, np.array([0.5, 0.2, -0.4]), np.array([0.3, 0.1]))
    coarse = radialize_poly_oracle(5, pt, S2, sphere_rule(3, 24))
    fine = radialize_poly_oracle(5, pt, S2, sphere_rule(3, 48))
    assert (coarse - fine).norm_inf < 1e-10


def test_poly_axial_field_matches_closed_form():
    rng = SplitMix64(47)
    for k in (1, 3, 4):
        field = poly_hpw_axial_field(3, 2, S2, k)
        for _ in range(4):
            r = rng.uniform(0.1, 1.0)
            x = np.zeros(3)
            x[0] = r
            y = rng.uniform_array(2, -0.5, 0.5)
            pt = BiaxialPoint(3, 2, x, y)
            closed = radialize_poly(k, pt, S2)
            assembled = field.value_at(pt)
            scale = max(1.0, closed.norm_inf)
            assert (assembled - closed).norm_inf / scale < 1e-12


def test_poly_wave_is_dirac_null():
    # Degree-k polynomials carry k^3-sized third derivatives, so the
    # central-difference truncation needs the verdict step h = 1e-4 to
    # push the residual under 1e-6; the order check confirms it is pure
    # truncation and not a property failure.
    rng = SplitMix64(48)
    for k in (2, 5, 6):
        for _ in range(3):
            x = rng.unit_vector(3) * rng.uniform(0.2, 1.0)
            y = rng.uniform_array(2, -0.6, 0.6)
            pt = BiaxialPoint(3, 2, x, y)
            scale = max(1.0, radialize_poly(k, pt, S2).norm_inf)
            res = dirac_apply_fd(lambda pt2: radialize_poly(k, pt2, S2), pt, h=1e-4)
            assert res.norm_inf / scale < 1e-6
            coarse = dirac_apply_fd(lambda pt2: radialize_poly(k, pt2, S2), pt, h=1e-3)
            finer = dirac_apply_fd(lambda pt2: radialize_poly(k, pt2, S2), pt, h=5e-4)
            if coarse.norm_inf / scale > 1e-10:
                order = np.log2(coarse.norm_inf / finer.norm_inf)
                assert order > 1.8


def test_fourier_circle_anchor():
    # Scalar part of the p=2 kernel at y=0 is int_0^{2pi} e^{r cos phi} dphi
    # = 2 pi I_0(r), checked against both the closed form and quadrature.
    r = 1.3
    pt = BiaxialPoint(2, 2, np.array([r, 0.0]), np.zeros(2))
    closed = fourier_kernel_closed(pt, S2)
    s_part = complex(closed.coeffs[0b0100])  # coefficient of e3 = s direction
    assert s_part == pytest.approx(1j * 2.0 * math.pi * bessel_i(0.0, r), rel=1e-12)
    phi = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    riemann = float(np.mean(np.exp(r * np.cos(phi)))) * 2.0 * math.pi
    assert s_part.imag == pytest.approx(riemann, rel=1e-10)


def test_fourier_axis_limit_is_sphere_measure():
    for p in (2, 3, 4):
        pt = BiaxialPoint(p, 2, np.zeros(p), np.array([0.3, 0.2]))
        closed = fourier_kernel_closed(pt, S2)
        oracle = fourier_kernel_oracle(pt, S2, sphere_rule(p, 32))
        assert (closed - oracle).norm_inf < 1e-10
        s_mv = pt.embed_y_vector(S2)
        expected = (1j * sphere_area(p) * np.exp(1j * 0.3)) * s_mv
        assert (closed - expected).norm_inf < 1e-12


def test_fourier_closed_vs_oracle():
    rng = SplitMix64(49)
    for p in (2, 3, 4):
        rule = sphere_rule(p, 48)
        for r in (0.5, 1.0, 2.0):
            x = rng.unit_vector(p) * r
            y = rng.uniform_array(2, -0.8, 0.8)
            pt = BiaxialPoint(p, 2, x, y)
            closed = fourier_kernel_closed(pt, S2)
            oracle = fourier_kernel_oracle(pt, S2, rule)
            scale = max(1.0, closed.norm_inf, oracle.norm_inf)
            assert (closed - oracle).norm_inf / scale < 1e-9, (p, r)


def test_fourier_oracle_self_convergence():
    pt = BiaxialPoint(3, 2, np.array([0.8, -0.3, 0.1]), np.array([0.2, 0.4]))
    coarse = fourier_kernel_oracle(pt, S2, sphere_rule(3, 24))
    fine = fourier_kernel_oracle(pt, S2, sphere_rule(3, 48))
    assert (coarse - fine).norm_inf < 1e-10


def test_fourier_wave_is_dirac_null():
    rng = SplitMix64(50)
    for p, q in ((2, 2), (3, 2)):
        s = np.zeros(q)
        s[0] = 1.0
        for _ in range(3):
            x = rng.unit_vector(p) * rng.uniform(0.3, 1.2)
            y = rng.uniform_array(q, -0.6, 0.6)
            pt = BiaxialPoint(p, q, x, y)
            res = dirac_apply_fd(lambda pt2: fourier_kernel_closed(pt2, s), pt, h=1e-3)
            scale = max(1.0, fourier_kernel_closed(pt, s).norm_inf)
            assert res.norm_inf / scale < 1e-6


def test_fourier_axial_field_matches_closed():
    field = fourier_axial_field(3, 2, S2)
    pt = BiaxialPoint(3, 2, np.array([0.6, 0.0, 0.0]), np.array([0.1, -0.2]))
    assembled = field.value_at(pt)
    closed = fourier_kernel_closed(pt, S2)
    assert (assembled - closed).norm_inf < 1e-12


@pytest.mark.parametrize("make", [exp_hpw_axial_field, fourier_axial_field])
def test_axial_parts_make_one_bessel_call_per_radius(monkeypatch, make):
    # A and B each need one Bessel order, so each evaluates it once per
    # distinct radius and never the other part's order.
    import biaxial.planewave as planewave

    radii = []

    def counted(real):
        def bessel(nu, z):
            radii.append(z)
            return real(nu, z)
        return bessel

    for name in ("bessel_j", "bessel_i"):
        monkeypatch.setattr(planewave, name, counted(getattr(planewave, name)))
    field = make(3, 2, S2)
    r = np.array([0.3, 0.7, 0.3, 1.1, 0.7])
    y = np.linspace(-0.5, 0.5, 10).reshape(5, 2)
    for part in (field.A, field.B):
        radii.clear()
        part(r, y)
        assert sorted(radii) == [0.3, 0.7, 1.1]
        radii.clear()
        part(0.4, y[0])
        assert radii == [0.4]
