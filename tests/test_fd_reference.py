"""The one central-difference rule against the three residuals it replaced
(tests/fd_reference.py): equal to rounding, and refusing the same steps and
near-axis points.  The rule itself is the per-coordinate sum of products
e_i diff_i to rounding.

Cases cover p in 2..4, q in 1..3 and h in {1e-3, 1e-4, 3e-5}: the full
operator on the value functions of every family and of the CK series,
the (A, B) system on every axial family, and the reduced operator on
those families written in the (e, y) picture.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fd_reference as ref
from biaxial.algebra import BiaxialPoint, Multivector
from biaxial.fields import (
    ExpLinear,
    _central_difference,
    ck_extend,
    constant_field,
    dirac_apply_fd,
    eval_series,
    linear_monogenic_field,
    modified_dirac_residual,
    vekua_residual,
)
from biaxial.planewave import (
    exp_hpw_axial_field,
    fourier_axial_field,
    poly_hpw_axial_field,
    radialize_poly,
)

FAMILIES = ("constant", "linear", "exp-hpw", "fourier", "poly")
STEPS = (1e-3, 1e-4, 3e-5)


def _field(name, p, q, s, k):
    if name == "constant":
        return constant_field(p, q, 1.0 - 0.5j)
    if name == "linear":
        return linear_monogenic_field(p, q, s)
    if name == "exp-hpw":
        return exp_hpw_axial_field(p, q, s)
    if name == "fourier":
        return fourier_axial_field(p, q, s)
    return poly_hpw_axial_field(p, q, s, k)


def _reduced(field):
    """The field in the (e, y) picture: A on the e-free blades, B on e e_Y."""
    ymasks = np.arange(1 << field.q) << field.p

    def f(r, y):
        out = np.zeros(1 << (field.q + 1), dtype=np.complex128)
        out[0::2] = field.A(r, y).coeffs[ymasks]
        out[1::2] = field.B(r, y).coeffs[ymasks]
        return Multivector(field.q + 1, out)

    return f


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    return np.eye(v.size)[0] if norm < 1e-3 else v / norm


@st.composite
def cases(draw):
    p = draw(st.integers(2, 4))
    q = draw(st.integers(1, 3))
    coord = st.floats(-1.0, 1.0, allow_subnormal=False)
    x = _unit(draw(st.lists(coord, min_size=p, max_size=p)))
    r = draw(st.one_of(st.floats(0.0, 0.01), st.floats(0.05, 1.2)))
    y = 0.6 * np.array(draw(st.lists(coord, min_size=q, max_size=q)))
    s = _unit(draw(st.lists(coord, min_size=q, max_size=q)))
    return BiaxialPoint(p, q, r * x, y), s, draw(st.sampled_from(STEPS))


def _close(got, want, scale):
    """Every coefficient within 1e-14 of scale plus 4 dim subnormal units,
    the bound of test_probe_reference._close."""
    floor = 4 * got.dim * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(got.coeffs - want.coeffs) <= 1e-14 * scale + floor)


def _diff_scale(g, c, h):
    """sum_i max |g(c + h u_i) - g(c - h u_i)| / 2h, which bounds the terms of
    every coefficient of the central-difference sum over the coordinates c."""
    return sum(((g(c + step) - g(c - step)) / (2.0 * h)).norm_inf for step in np.eye(c.size) * h)


def _close_or_same_refusal(new, old, scale):
    """Both calls return values within rounding of the residual's terms,
    whose size scale() bounds, or both raise ValueError."""
    try:
        want = old()
    except ValueError:
        with pytest.raises(ValueError):
            new()
        return
    got = new()
    for g, w in zip(got if isinstance(got, tuple) else (got,),
                    want if isinstance(want, tuple) else (want,)):
        _close(g, w, scale())


@settings(max_examples=100, deadline=None)
@given(case=cases(), name=st.sampled_from(FAMILIES + ("ck", "radialize")),
       k=st.integers(0, 4))
def test_dirac_apply_fd_matches_its_old_loop(case, name, k):
    pt, s, h = case
    if name == "ck":
        series = ck_extend(ExpLinear.exponential(s), pt.p, pt.q)
        fn = lambda pt2: eval_series(series, pt2)[0]
    elif name == "radialize":
        fn = lambda pt2: radialize_poly(k, pt2, s)
    else:
        fn = _field(name, pt.p, pt.q, s, k).value_at
    p, q = pt.p, pt.q
    _close_or_same_refusal(
        lambda: dirac_apply_fd(fn, pt, h), lambda: ref.dirac_apply_fd(fn, pt, h),
        lambda: _diff_scale(lambda c: fn(BiaxialPoint(p, q, c[:p], c[p:])),
                            np.concatenate([pt.x, pt.y]), h))


@settings(max_examples=100, deadline=None)
@given(case=cases(), name=st.sampled_from(FAMILIES), k=st.integers(0, 4))
def test_vekua_residual_matches_its_old_loop(case, name, k):
    pt, s, h = case
    field = _field(name, pt.p, pt.q, s, k)
    ry = np.concatenate([[pt.r], pt.y])
    _close_or_same_refusal(
        lambda: vekua_residual(field, pt.r, pt.y, h),
        lambda: ref.vekua_residual(field, pt.r, pt.y, h),
        lambda: (_diff_scale(lambda c: field.A(c[0], c[1:]), ry, h)
                 + _diff_scale(lambda c: field.B(c[0], c[1:]), ry, h)
                 + (pt.p - 1.0) / pt.r * field.B(pt.r, pt.y).norm_inf))


@settings(max_examples=100, deadline=None)
@given(case=cases(), name=st.sampled_from(FAMILIES), k=st.integers(0, 4))
def test_modified_dirac_residual_matches_its_old_loop(case, name, k):
    pt, s, h = case
    f = _reduced(_field(name, pt.p, pt.q, s, k))
    _close_or_same_refusal(
        lambda: modified_dirac_residual(f, pt.p, pt.q, pt.r, pt.y, h),
        lambda: ref.modified_dirac_residual(f, pt.p, pt.q, pt.r, pt.y, h),
        lambda: (_diff_scale(lambda c: f(float(c[0]), c[1:]), np.concatenate([[pt.r], pt.y]), h)
                 + (pt.p - 1.0) / pt.r * f(pt.r, pt.y).norm_inf))


@settings(max_examples=60, deadline=None)
@given(case=cases(), name=st.sampled_from(FAMILIES), k=st.integers(0, 4))
def test_central_difference_is_the_sum_of_per_coordinate_products(case, name, k):
    pt, s, h = case
    p, q, dim = pt.p, pt.q, pt.dim
    fn = _field(name, p, q, s, k).value_at

    def g(c):
        return fn(BiaxialPoint(p, q, c[:p], c[p:]))

    c = np.concatenate([pt.x, pt.y])
    if not pt.r > 2.0 * h:
        with pytest.raises(ValueError, match="need"):
            _central_difference(g, c, 1, dim, pt.r, h)
        return
    want = Multivector.zero(dim)
    for i, step in enumerate(np.eye(dim) * h):
        diff = (g(c + step) - g(c - step)) / (2.0 * h)
        want = want + Multivector.basis_vector(dim, i + 1) * diff
    _close(_central_difference(g, c, 1, dim, pt.r, h), want, _diff_scale(g, c, h))


@pytest.mark.parametrize("h", [1e-7, 0.05])
def test_every_residual_refuses_a_step_out_of_range(h):
    field = exp_hpw_axial_field(2, 2, [1.0, 0.0])
    pt = BiaxialPoint(2, 2, [0.5, 0.0], [0.1, 0.2])
    for call in (lambda: dirac_apply_fd(field.value_at, pt, h),
                 lambda: vekua_residual(field, pt.r, pt.y, h),
                 lambda: modified_dirac_residual(_reduced(field), 2, 2, pt.r, pt.y, h)):
        with pytest.raises(ValueError, match="finite-difference step"):
            call()
