"""The coefficient table's one pass against the per-term evaluator it
replaced (kept in tests/series_pair_reference.py).

Every profile of an exponential series is c exp(t), one coefficient and
one rate, so the table takes each term through the same operations in the
same order as the per-term walk: the axial pair, the value and the tail
agree bit for bit, and a reordering of either parity sum shows in the
bits.  ExpLinear.value, the one-column case of the same Horner, stays
within 2 ulp of the per-scalar loop on general closed-class data.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import biaxial.fields as fields
import series_pair_reference as ref
from biaxial.algebra import BiaxialPoint
from biaxial.fields import ExpLinear, _axial_value, _series_pair, ck_extend, eval_series
from biaxial.planewave import exp_hpw_series
from test_series import exp_linear, unit_vector


@st.composite
def exponential_case(draw):
    p = draw(st.integers(2, 5))
    q = draw(st.sampled_from([2, 3]))
    s = draw(unit_vector(q))
    J = draw(st.sampled_from([1, 2, 3, 10, 40]))
    if draw(st.booleans()):
        series = ck_extend(ExpLinear.exponential(s), p, q, J=J)
    else:
        series = exp_hpw_series(p, q, s, J=J)
    x = draw(unit_vector(p)) * draw(st.floats(0.0, 1.8))
    y = np.array(draw(st.lists(st.floats(-0.6, 0.6), min_size=q, max_size=q)))
    return series, BiaxialPoint(p, q, x, y)


@settings(max_examples=300, deadline=None)
@given(exponential_case())
def test_exponential_series_is_the_per_term_walk_bit_for_bit(data):
    series, pt = data
    a, b, tail = _series_pair(series, pt, pt.r)
    want_a, want_b, want_tail = ref.series_pair(series, pt, pt.r)
    assert a.coeffs.tobytes() == want_a.coeffs.tobytes()
    assert b.coeffs.tobytes() == want_b.coeffs.tobytes()
    assert np.float64(tail).tobytes() == np.float64(want_tail).tobytes()
    # Values whatever the tail, so that neither side may raise.
    with mock.patch.object(fields, "SERIES_TAIL_TOL", np.inf):
        value, tail = eval_series(series, pt)
    want = _axial_value(pt, pt.r, want_a, want_b)
    assert value.coeffs.tobytes() == want.coeffs.tobytes()
    assert tail == (0.0 if series.terminated else want_tail)


def _within_ulps(got, want, ulps):
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        assert abs(g - w) <= ulps * np.spacing(abs(w)), (got, want)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(unit_vector).flatmap(exp_linear),
       st.floats(-1.5, 1.5))
def test_profile_value_is_the_scalar_loop_within_2_ulp(g, t):
    _within_ulps(g.value(t), ref.profile_value(g, t), 2)
