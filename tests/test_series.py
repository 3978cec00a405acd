"""The one (C_j, D_j) series engine against the two evaluators it replaced.

series_reference.py holds the former CK extension and plane-wave
evaluator unchanged.  The CK extension is the recurrence with D_0 = 0, so
its values and tails must come out bit for bit; the plane-wave evaluator
grouped its odd-term products differently and agrees to rounding.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biaxial.fields as fields
import biaxial.planewave as planewave
import series_reference as ref
from biaxial.algebra import BiaxialPoint
from biaxial.fields import ExpLinear, ck_extend, eval_series, hpw_recurrence, series_axial_parts
from biaxial.special import ConvergenceError

S2 = np.array([1.0, 0.0])

_coef = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def exp_linear(draw, s):
    lam = complex(draw(st.floats(-1.5, 1.5)), draw(st.sampled_from([0.0, 0.5, -1.0])))
    poly = draw(st.lists(_coef, min_size=1, max_size=5))
    return ExpLinear(draw(st.sampled_from([0.0, lam])), s, poly)


@st.composite
def unit_vector(draw, n):
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    norm = float(np.linalg.norm(v))
    if norm < 1e-3:
        v, norm = np.eye(n)[0], 1.0
    return v / norm


@st.composite
def case(draw, with_d0: bool):
    p = draw(st.integers(2, 5))
    q = draw(st.sampled_from([2, 3]))
    s = draw(unit_vector(q))
    c0 = draw(exp_linear(s))
    d0 = draw(exp_linear(s)) if with_d0 else ExpLinear.zero(s)
    J = draw(st.sampled_from([1, 2, 3, 10, 40]))
    x = draw(unit_vector(p)) * draw(st.floats(0.0, 1.8))
    y = np.array(draw(st.lists(st.floats(-0.6, 0.6), min_size=q, max_size=q)))
    return p, q, c0, d0, J, BiaxialPoint(p, q, x, y)


def _outcome(evaluate, series, pt, **kwargs):
    try:
        value, tail = evaluate(series, pt, **kwargs)
    except ConvergenceError as exc:
        return None, str(exc)
    return value.coeffs, tail


def _close_to_planewave_reference(series, pt):
    # Values are compared whatever the tail, so neither side may raise.
    with mock.patch.object(fields, "SERIES_TAIL_TOL", np.inf):
        got, got_tail = eval_series(series, pt)
    want, want_tail = ref.eval_planewave(series, pt, tail_tol=np.inf)
    scale = max(1.0, float(np.max(np.abs(want.coeffs))))
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-15 * scale
    assert abs(got_tail - want_tail) <= 1e-15 * scale


@settings(max_examples=150, deadline=None)
@given(case(with_d0=False))
def test_ck_extension_matches_reference_evaluators(data):
    p, q, f0, _, J, pt = data
    series = ck_extend(f0, p, q, J=J)
    old = ref.ck_extend(f0, p, q, J=J)
    assert len(series.profiles) == series.truncation
    assert series.terminated == old.terminated
    # The former extension stored the zero datum as one term; the merged
    # recurrence never stores a zero pair.
    assert series.truncation == (0 if f0.is_zero else old.truncation)
    for (c, d), profile, has_s in zip(series.profiles, old.profiles, old.vector_flags):
        kept, dropped = (d, c) if has_s else (c, d)
        assert dropped.is_zero
        assert kept.lam == profile.lam
        assert np.array_equal(kept.poly, profile.poly)
    got, got_tail = _outcome(eval_series, series, pt)
    want, want_tail = _outcome(ref.eval_series, old, pt)
    assert got_tail == want_tail
    assert (got is None) == (want is None)
    if got is not None:
        assert np.array_equal(got, want)
    _close_to_planewave_reference(series, pt)


@settings(max_examples=100, deadline=None)
@given(case(with_d0=True))
def test_plane_wave_pairs_match_reference_evaluator(data):
    p, q, c0, d0, J, pt = data
    series = hpw_recurrence(c0, d0, p, q, J=J)
    assert len(series.profiles) == series.truncation
    _close_to_planewave_reference(series, pt)


@pytest.mark.parametrize("coeffs, J", [([0.0, 1.0], 2), ([0.0, 0.0, 1.0], 3), ([1.0, -1.0, 2.0], 3)])
def test_zero_pair_at_last_step_terminates(coeffs, J):
    # A degree-d datum makes pair d+1 zero; with J = d + 1 it is produced
    # at the last step and must still end the series.
    f0 = ExpLinear.polynomial(S2, coeffs)
    for series in (hpw_recurrence(f0, ExpLinear.zero(S2), 3, 2, J=J), ck_extend(f0, 3, 2, J=J)):
        assert series.terminated
        assert series.truncation == len(coeffs)
        assert not any(c.is_zero and d.is_zero for c, d in series.profiles)


def test_zero_datum_gives_empty_series():
    zero = ExpLinear.zero(S2)
    pt = BiaxialPoint(3, 2, np.array([0.2, 0.1, -0.3]), np.array([0.5, 0.4]))
    for series in (ck_extend(zero, 3, 2), hpw_recurrence(zero, zero, 3, 2)):
        assert series.terminated
        assert series.truncation == 0
        assert series.profiles == ()
        value, tail = eval_series(series, pt)
        assert value.norm_inf == 0.0
        assert tail == 0.0
        a_part, b_part = series_axial_parts(series, pt.r, pt.y)
        assert a_part.norm_inf == 0.0 and b_part.norm_inf == 0.0


def test_plane_wave_names_are_the_engine():
    assert planewave.eval_planewave is fields.eval_series
    assert planewave.PlaneWaveSeries is fields.PlaneWaveSeries
    assert planewave.hpw_recurrence is fields.hpw_recurrence
