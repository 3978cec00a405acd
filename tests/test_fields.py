import math
import re

import numpy as np
import pytest

from biaxial.algebra import BiaxialPoint, Multivector, embed_vector
from biaxial.fields import (
    AxialField,
    ExpLinear,
    _series_pair,
    beta,
    ck_bessel_form,
    ck_extend,
    constant_field,
    dirac_apply_fd,
    eval_series,
    lift_axial,
    linear_monogenic_field,
    modified_dirac_correspondence,
    modified_dirac_residual,
    vekua_residual,
)
from biaxial.special import ConvergenceError
from biaxial.rng import SplitMix64

S2 = np.array([1.0, 0.0])


def test_beta_values():
    assert beta(2, 3) == -2
    assert beta(1, 3) == -3
    assert beta(1, 5) == -5
    assert beta(3, 2) == -4
    with pytest.raises(ValueError, match=r"^j must lie in \[1, inf\], got 0$"):
        beta(0, 3)


def test_beta_matches_finite_difference_on_x_powers():
    # d_x x^j = beta_j x^{j-1} with x the embedded vector; y-independent,
    # so the full first-order operator reduces to the x part.
    rng = SplitMix64(101)
    for p in (2, 3, 4):
        q = 2
        for j in (1, 2, 3, 4, 5):
            x = rng.uniform_array(p, 0.2, 0.9)
            pt = BiaxialPoint(p, q, x, rng.uniform_array(q, -0.5, 0.5))

            def power(pt2, jj=j):
                v = pt2.embed_x()
                out = Multivector.scalar(pt2.dim, 1.0)
                for _ in range(jj):
                    out = v * out
                return out

            lhs = dirac_apply_fd(power, pt, h=1e-4)
            v = pt.embed_x()
            expected = Multivector.scalar(pt.dim, float(beta(j, p)))
            for _ in range(j - 1):
                expected = v * expected
            err = (lhs - expected).norm_inf / max(1.0, expected.norm_inf)
            assert err < 1e-6, (p, j, err)


def test_exp_linear_value_and_derivative():
    f = ExpLinear(0.5, S2, [1.0, 2.0])
    t = 0.3
    assert f.value(t) == pytest.approx((1.0 + 2.0 * t) * math.exp(0.5 * t), rel=1e-14)
    df = f.d_dt()
    h = 1e-6
    numeric = (f.value(t + h) - f.value(t - h)) / (2.0 * h)
    assert df.value(t) == pytest.approx(numeric, rel=1e-8)


def test_exp_linear_requires_unit_direction():
    with pytest.raises(ValueError):
        ExpLinear(1.0, np.array([1.0, 1.0]), [1.0])


@pytest.mark.parametrize("s", [[np.nan, 0.0], [np.inf, 0.0], [np.nan, np.nan]])
def test_non_finite_directions_are_rejected(s):
    from biaxial.planewave import exp_hpw_axial_field

    message = "^" + re.escape("|s| of the unit vector s must lie in [0.999999999, 1.000000001], "
                              f"got {np.linalg.norm(s)}") + "$"
    with pytest.raises(ValueError, match=message):
        ExpLinear(1.0, np.array(s), [1.0])
    with pytest.raises(ValueError, match=message):
        exp_hpw_axial_field(2, 2, s)


def test_dirac_constant_field_is_zero():
    pt = BiaxialPoint(2, 2, np.array([0.5, 0.1]), np.array([0.2, -0.3]))
    res = dirac_apply_fd(lambda _: Multivector.scalar(4, 2.0 + 1.0j), pt, h=1e-3)
    assert res.norm_inf < 1e-12


def test_dirac_on_embedded_vector_gives_minus_p():
    for p in (2, 3, 4):
        q = 2
        pt = BiaxialPoint(p, q, np.full(p, 0.4), np.full(q, 0.1))
        res = dirac_apply_fd(lambda pt2: pt2.embed_x(), pt, h=1e-4)
        expected = Multivector.scalar(p + q, float(-p))
        assert (res - expected).norm_inf < 1e-9


def test_dirac_annihilates_linear_monogenic():
    # f = <y, s> + (1/p) x s: the x part differentiates to -s, the y part to +s.
    for p in (2, 3):
        q = 2
        field = linear_monogenic_field(p, q, S2)
        pt = BiaxialPoint(p, q, np.full(p, 0.3), np.array([0.4, -0.2]))
        res = dirac_apply_fd(field.value_at, pt, h=1e-4)
        assert res.norm_inf < 1e-9


def test_dirac_step_validation():
    pt = BiaxialPoint(2, 2, np.array([0.5, 0.0]), np.zeros(2))
    with pytest.raises(ValueError):
        dirac_apply_fd(lambda _: Multivector.scalar(4, 1.0), pt, h=0.5)
    near_axis = BiaxialPoint(2, 2, np.array([1e-5, 0.0]), np.zeros(2))
    with pytest.raises(ValueError):
        dirac_apply_fd(lambda _: Multivector.scalar(4, 1.0), near_axis, h=1e-3)


def test_vekua_constant():
    field = constant_field(2, 2)
    res1, res2 = vekua_residual(field, 0.5, np.array([0.1, 0.2]), h=1e-4)
    assert res1.norm_inf == 0.0
    assert res2.norm_inf == 0.0


def test_vekua_linear_monogenic():
    for p in (2, 3):
        field = linear_monogenic_field(p, 2, S2)
        res1, res2 = vekua_residual(field, 0.6, np.array([0.3, -0.1]), h=1e-4)
        assert res1.norm_inf < 1e-9
        assert res2.norm_inf < 1e-9


def test_vekua_flags_broken_field():
    # B scaled wrongly: no longer solves the axial system.
    p, q = 2, 2
    dim = p + q
    field = AxialField(
        p, q,
        A=lambda r, y: Multivector.scalar(dim, float(np.dot(y, S2))),
        B=lambda r, y: embed_vector(dim, p, (r / (p + 1.0)) * S2),
    )
    res1, _ = vekua_residual(field, 0.5, np.array([0.2, 0.1]), h=1e-4)
    assert res1.norm_inf > 1e-3


def test_ck_extension_of_linear_datum_terminates():
    f0 = ExpLinear.polynomial(S2, [0.0, 1.0])  # f0(y) = <y, s>
    series = ck_extend(f0, p=3, q=2)
    assert series.terminated
    assert series.truncation == 2
    # f1 = (1/p) s: an s-multiplied term, so its plain half vanishes
    assert series.C[1].is_zero
    np.testing.assert_allclose(series.D[1].poly, [1.0 / 3.0])
    pt = BiaxialPoint(3, 2, np.array([0.2, 0.1, -0.3]), np.array([0.5, 0.4]))
    value, tail = eval_series(series, pt)
    direct = linear_monogenic_field(3, 2, S2).value_at(pt)
    assert tail == 0.0
    assert (value - direct).norm_inf < 1e-14


def test_ck_extension_of_constant_is_constant():
    series = ck_extend(ExpLinear.polynomial(S2, [1.0]), p=2, q=2)
    assert series.terminated
    assert series.truncation == 1
    pt = BiaxialPoint(2, 2, np.array([0.3, 0.4]), np.array([0.1, 0.0]))
    value, _ = eval_series(series, pt)
    assert (value - Multivector.scalar(4, 1.0)).norm_inf < 1e-15


def test_ck_exponential_coefficients():
    # Extension of exp(<y,s>): f1 = (1/p) s e^t, f2 = 1/(2p) e^t.
    p = 3
    series = ck_extend(ExpLinear.exponential(S2), p=p, q=2)
    # Even terms are plain (D_j = 0), odd terms s-multiplied (C_j = 0).
    assert series.D[0].is_zero
    assert series.C[1].is_zero
    assert series.D[2].is_zero
    np.testing.assert_allclose(series.D[1].poly, [1.0 / p])
    np.testing.assert_allclose(series.C[2].poly, [1.0 / (2.0 * p)])


def test_ck_series_annihilated_by_dirac():
    series = ck_extend(ExpLinear.exponential(S2), p=3, q=2, J=40)
    rng = SplitMix64(55)
    for _ in range(5):
        x = rng.unit_vector(3) * rng.uniform(0.2, 1.2)
        y = rng.uniform_array(2, -0.6, 0.6)
        pt = BiaxialPoint(3, 2, x, y)
        res = dirac_apply_fd(lambda pt2: eval_series(series, pt2)[0], pt, h=1e-3)
        assert res.norm_inf < 1e-6


def test_eval_series_tail_error():
    series = ck_extend(ExpLinear.exponential(S2), p=2, q=2, J=6)
    pt = BiaxialPoint(2, 2, np.array([1.5, 0.0]), np.zeros(2))
    with pytest.raises(ConvergenceError):
        eval_series(series, pt)


def test_axial_split_matches_evaluation():
    series = ck_extend(ExpLinear.exponential(S2), p=3, q=2, J=40)
    rng = SplitMix64(77)
    for _ in range(5):
        x = rng.unit_vector(3) * rng.uniform(0.1, 1.0)
        y = rng.uniform_array(2, -0.5, 0.5)
        pt = BiaxialPoint(3, 2, x, y)
        a_part, b_part, _ = _series_pair(series, pt, pt.r)
        recombined = a_part + pt.embed_unit_x() * b_part
        value, _ = eval_series(series, pt)
        assert (recombined - value).norm_inf < 1e-12


def test_ck_bessel_form_matches_series():
    for p in (2, 3, 4):
        series = ck_extend(ExpLinear.exponential(S2), p=p, q=2, J=40)
        rng = SplitMix64(1000 + p)
        for _ in range(5):
            x = rng.unit_vector(p) * rng.uniform(0.0, 2.0)
            y = rng.uniform_array(2, -0.8, 0.8)
            pt = BiaxialPoint(p, 2, x, y)
            closed = ck_bessel_form(pt, S2)
            value, _ = eval_series(series, pt)
            scale = max(1.0, closed.norm_inf)
            assert (closed - value).norm_inf / scale < 1e-12


def test_ck_bessel_form_at_axis():
    pt = BiaxialPoint(3, 2, np.zeros(3), np.array([0.3, -0.1]))
    out = ck_bessel_form(pt, S2)
    expected = Multivector.scalar(5, math.exp(0.3))
    assert (out - expected).norm_inf < 1e-14


def test_ck_bessel_form_rejects_beyond_bessel_j_range():
    # Its sums are the Bessel-J series, which bessel_j limits to z <= 12.
    from biaxial.planewave import hpw_exp_closed

    edge = BiaxialPoint(2, 2, np.array([12.0, 0.0]), np.zeros(2))
    assert (ck_bessel_form(edge, S2) - hpw_exp_closed(edge, S2)).norm_inf < 1e-12
    with pytest.raises(ValueError, match=r"\[0, 12\.0\]"):
        ck_bessel_form(BiaxialPoint(2, 2, np.array([12.5, 0.0]), np.zeros(2)), S2)


def test_vekua_and_dirac_agree_as_solution_tests():
    # Battery of five fields: three solutions, two deliberately broken.
    # Both residual notions must vanish together or fail together.
    from biaxial.planewave import exp_hpw_axial_field

    p, q = 2, 2
    dim = p + q
    good = [
        constant_field(p, q),
        linear_monogenic_field(p, q, S2),
        exp_hpw_axial_field(p, q, S2),
    ]
    broken = [
        AxialField(
            p, q,
            A=lambda r, y: Multivector.scalar(dim, float(np.dot(y, S2))),
            B=lambda r, y: embed_vector(dim, p, (r / (p + 1.0)) * S2),
        ),
        AxialField(
            p, q,
            A=lambda r, y: Multivector.scalar(dim, float(np.dot(y, S2))),
            B=lambda r, y: embed_vector(dim, p, -(r / p) * S2),
        ),
    ]
    pt = BiaxialPoint(p, q, np.array([0.5, 0.2]), np.array([0.3, -0.1]))
    for field in good:
        res1, res2 = vekua_residual(field, pt.r, pt.y, h=1e-4)
        dres = dirac_apply_fd(field.value_at, pt, h=1e-4)
        assert max(res1.norm_inf, res2.norm_inf) < 1e-6
        assert dres.norm_inf < 1e-6
    for field in broken:
        res1, res2 = vekua_residual(field, pt.r, pt.y, h=1e-4)
        dres = dirac_apply_fd(field.value_at, pt, h=1e-4)
        assert max(res1.norm_inf, res2.norm_inf) > 1e-2
        assert dres.norm_inf > 1e-2


def test_ck_series_residual_order_under_step_halving():
    series = ck_extend(ExpLinear.exponential(S2), p=3, q=2, J=40)
    pt = BiaxialPoint(3, 2, np.array([0.6, 0.3, -0.2]), np.array([0.4, 0.1]))
    fn = lambda pt2: eval_series(series, pt2)[0]
    coarse = dirac_apply_fd(fn, pt, h=1e-3).norm_inf
    fine = dirac_apply_fd(fn, pt, h=5e-4).norm_inf
    assert np.log2(coarse / fine) > 1.8


def test_modified_dirac_scalar_and_axis_vector():
    p, q = 3, 2
    r = 0.7
    y = np.array([0.2, -0.4])
    res = modified_dirac_residual(lambda r_, y_: Multivector.scalar(q + 1, 1.0), p, q, r, y)
    assert res.norm_inf < 1e-12
    res_e = modified_dirac_residual(
        lambda r_, y_: Multivector.basis_vector(q + 1, 1), p, q, r, y
    )
    expected = Multivector.scalar(q + 1, -(p - 1.0) / r)
    assert (res_e - expected).norm_inf < 1e-10


def test_lift_axial_is_algebra_map():
    q = 2
    u = np.array([0.6, 0.8, 0.0])
    p = 3
    rng = SplitMix64(5)
    a = Multivector(q + 1, rng.complex_coeffs(1 << (q + 1)))
    b = Multivector(q + 1, rng.complex_coeffs(1 << (q + 1)))
    lhs = lift_axial(a * b, u, p, q)
    rhs = lift_axial(a, u, p, q) * lift_axial(b, u, p, q)
    assert (lhs - rhs).norm_inf < 1e-12


def test_modified_dirac_correspondence_exp_field():
    # Radial A + e B picture against the ambient first-order operator.
    from biaxial.planewave import _exp_profile

    p, q = 3, 2
    e_mv = Multivector.basis_vector(q + 1, 1)
    s_small = Multivector.vector(q + 1, [0.0, 1.0, 0.0])

    def small_field(r, y):
        c, d = _exp_profile(p, r, 0), _exp_profile(p, r, 1)
        phase = math.exp(float(np.dot(y, S2)))
        return (c * phase) * Multivector.scalar(q + 1, 1.0) + (d * phase) * (e_mv * s_small)

    rng = SplitMix64(9)
    for _ in range(8):
        x = rng.unit_vector(p) * rng.uniform(0.4, 1.2)
        y = rng.uniform_array(q, -0.6, 0.6)
        pt = BiaxialPoint(p, q, x, y)
        m_big, d_big = modified_dirac_correspondence(small_field, p, q, pt, h=3e-5)
        assert (m_big - d_big).norm_inf < 1e-8
        # The field solves the equation, so both sides are near zero too.
        assert d_big.norm_inf < 1e-6
