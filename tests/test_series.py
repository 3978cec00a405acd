"""The one (C_j, D_j) series engine against the two evaluators it replaced.

series_reference.py holds the former CK extension and plane-wave
evaluator unchanged.  The CK extension is the recurrence with D_0 = 0, so
its profiles, truncation and termination must come out exactly.  Values
and tails are summed as the axial pair A + (x/|x|) B, with A and B scalar
parity sums, where the references added one 2^dim-wide term at a time, so
both evaluators agree to rounding; eval_series is the pair's assembly bit
for bit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biaxial.fields as fields
import biaxial.planewave as planewave
import series_reference as ref
from biaxial.algebra import BiaxialPoint
from biaxial.fields import (
    ExpLinear,
    _axial_value,
    _series_pair,
    ck_extend,
    eval_series,
    hpw_recurrence,
)
from biaxial.special import ConvergenceError

S2 = np.array([1.0, 0.0])
S3 = np.array([0.0, 0.6, -0.8])

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


def _rounding_bound(series, pt):
    """4 n (eps sum_j max|term_j| + tiny) over the n stored terms of series at pt.

    Term j, x^j (C_j(t) + s D_j(t)), has no blade coefficient above
    |x|^j max(|C_j(t)|, |D_j(t)|), since |x_i| <= |x| and |s_k| <= 1.  Two
    evaluators that add the same n terms in different orders each round
    within about n eps times the sum of the terms' sizes, and a result
    that underflows within the smallest subnormal, tiny; the factor 4 takes
    the two sides and the few roundings that form each term.
    """
    t = float(np.dot(pt.y, series.s))
    sizes = [pt.r ** j * max(abs(c.value(t)), abs(d.value(t)))
             for j, (c, d) in enumerate(series.profiles)]
    info = np.finfo(float)
    return 4 * len(sizes) * (info.eps * sum(sizes) + info.smallest_subnormal)


def _close_to_planewave_reference(series, pt):
    # Values are compared whatever the tail, so neither side may raise.
    with mock.patch.object(fields, "SERIES_TAIL_TOL", np.inf):
        got, got_tail = eval_series(series, pt)
    want, want_tail = ref.eval_planewave(series, pt, tail_tol=np.inf)
    bound = _rounding_bound(series, pt)
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= bound
    assert abs(got_tail - want_tail) <= bound


_S_CK4 = [-0.901488918488994, -0.432802183267996]
_S_CK1 = [0.9949763780118025, 0.1001099755195003]


@settings(max_examples=150, deadline=None)
@given(case(with_d0=False))
# An odd last index at r = 0, whose last term is 0, and an odd last index
# off the axis, whose pair has only D nonzero.
@example((3, 2, ExpLinear.exponential(S2), None, 1, BiaxialPoint(3, 2, np.zeros(3), [0.3, -0.2])))
@example((2, 3, ExpLinear.exponential(S3), None, 3, BiaxialPoint(2, 3, [0.3, 0.2], [0.1, 0.4, -0.5])))
# The two largest deviations from the references, as fractions of
# _rounding_bound, that a hypothesis.target search of this strategy found
# (8,000 draws at each of five seeds): 0.130 and 0.118.
@example((2, 2, ExpLinear(complex(0.033804361839085306, 0.5), _S_CK4,
                          [0.01, -0.35064318588932464, 1.1754943508222875e-38,
                           1.0832575853333237, -1.6462980574949402]),
          None, 1, BiaxialPoint(2, 2, [0.6100777897843387, -1.1595236220769223],
                                [-0.1930594307496602, 0.4090527331024444])))
@example((4, 2, ExpLinear(0.0, _S_CK1, [0.0, -0.8136121773759972, 0.9, 1.7957360310653616,
                                        -0.6261111870059535]),
          None, 1, BiaxialPoint(4, 2, [0.0, 0.0, 0.32390792929688506, 0.03259013539324303],
                                [2.220446049250313e-16, 5e-324])))
# Two draws whose terms cancel: 0.004 and 0.014 of the bound.
@example((2, 2, ExpLinear(complex(-0.8088956165676069, 0.5), [0.999949903614523, 0.01000950854468992],
                          [0.884573231187519, -7.507684615629055e-131, -8.356701143699286e-199,
                           -1.9971113198578578]),
          None, 10, BiaxialPoint(2, 2, [0.7869788781193208, -0.7641069683825128],
                                 [-0.4987197159330553, 0.26461084653797984])))
@example((3, 3, ExpLinear(0.0, [0.27784013692723497, 0.3072327807271871, -0.9101718940721557],
                          [0.012254859703461962, 1.0003774777582937, -1.0218328941585628,
                           0.5459361998883812, -2.0]),
          None, 40, BiaxialPoint(3, 3, [0.48277990101830376, 0.5338530750432773, -1.5815306664813424],
                                 [8.226824803560761e-89, -0.5909143368560741, 0.5112806741248394])))
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
    assert (got is None) == (want is None)
    if got is None:
        # Both raised: the tails they refused must agree too, so take them
        # at an infinite tolerance.
        assert got_tail.startswith("series tail ") and want_tail.startswith("series tail ")
        with mock.patch.object(fields, "SERIES_TAIL_TOL", np.inf):
            got, got_tail = _outcome(eval_series, series, pt)
        want, want_tail = _outcome(ref.eval_series, old, pt, tail_tol=np.inf)
    bound = _rounding_bound(series, pt)
    assert np.max(np.abs(got - want)) <= bound
    assert abs(got_tail - want_tail) <= bound
    _close_to_planewave_reference(series, pt)


_S_PIN = [0.46906990863446285, -0.8831610390034519]
_POLY_PIN = [0.21242390605168027, -1.1499731589768023, 1.080613176752479, -0.18639671640839195,
             1.4876776183751481]
_S5_PIN = [-0.6669136292193508, -0.7451350288112043]
_S_PW5 = [0.0008025057777128365, 0.9999996779921866]
_S_PW1 = [0.00011240067492300874, -0.09007941097945944, -0.9959345797208178]


@settings(max_examples=100, deadline=None)
@given(case(with_d0=True))
# The two largest deviations from the reference, as fractions of
# _rounding_bound, that a hypothesis.target search of this strategy found
# (8,000 draws at each of five seeds): 0.194 and 0.153.
@example((4, 2, ExpLinear(complex(0.9938144077628084, 0.5), _S_PW5,
                          [0.0, -1.9999999999999998, 1.3318568694071882, 0.0]),
          ExpLinear(0.0, _S_PW5, [0.0]), 1,
          BiaxialPoint(4, 2, [-0.016782663740564082, -0.0007495662248378939,
                              0.07705212019182957, 0.0],
                       [0.5161143937593845, 9.152986959724541e-67])))
@example((5, 3, ExpLinear(0.0, _S_PW1, [0.0, 1.2148690598500917]),
          ExpLinear(0.0, _S_PW1, [0.0, 0.0]), 2,
          BiaxialPoint(5, 3, [3.5383554904621855e-05, -0.028356856276449675, -0.31351863240235206,
                              -0.27687067760162754, -3.676220604673999e-292], [0.0, 0.0, 0.0])))
# Two draws whose terms cancel: 0.020 and 0.004 of the bound.
@example((2, 2, ExpLinear(0.0, _S_PIN, _POLY_PIN), ExpLinear(0.0, _S_PIN, _POLY_PIN), 40,
          BiaxialPoint(2, 2, [0.3668985313807781, 1.4188831374316682], [0.0, 0.3856683648743987])))
@example((5, 2, ExpLinear(0.0, _S5_PIN, [0.3117487621970203]),
          ExpLinear(complex(0.9, -1.0), _S5_PIN,
                    [-1.4277379991362, -1.9689047100710022, -2.0, 1.8916493927009137,
                     1.4061375965240677]),
          40, BiaxialPoint(5, 2, [0.4738122973874045, 2.0125250800614977e-07, 2.61525972426664e-210,
                                  1.6882283979834218e-05, -1.4172632591120884],
                           [0.5, 1.2182143800647076e-272])))
def test_plane_wave_pairs_match_reference_evaluator(data):
    p, q, c0, d0, J, pt = data
    series = hpw_recurrence(c0, d0, p, q, J=J)
    assert len(series.profiles) == series.truncation
    _close_to_planewave_reference(series, pt)


@settings(max_examples=100, deadline=None)
@given(case(with_d0=True))
def test_value_is_the_assembly_of_the_axial_pair(data):
    p, q, c0, d0, J, pt = data
    series = hpw_recurrence(c0, d0, p, q, J=J)
    with mock.patch.object(fields, "SERIES_TAIL_TOL", np.inf):
        value, tail = eval_series(series, pt)
    a, b, last = _series_pair(series, pt, pt.r)
    assembled = _axial_value(pt, pt.r, a, b)
    assert value.coeffs.tobytes() == assembled.coeffs.tobytes()
    assert tail == (0.0 if series.terminated else last)


@pytest.mark.parametrize("J", [1, 3])
def test_odd_last_term_is_zero_on_the_axis(J):
    series = ck_extend(ExpLinear.exponential(S2), 3, 2, J=J)
    assert not series.terminated and series.truncation == J + 1
    value, tail = eval_series(series, BiaxialPoint(3, 2, np.zeros(3), np.array([0.3, -0.2])))
    want = np.zeros(32, dtype=np.complex128)
    want[0] = ExpLinear.exponential(S2).value(0.3)
    assert tail == 0.0
    assert value.coeffs.tobytes() == want.tobytes()


def test_tail_of_a_pair_with_only_d_nonzero():
    # One stored pair (C_0, D_0) = (0, exp): the term s e^t, whose largest
    # blade coefficient is e^t max |s_k|.
    s = np.array([0.6, -0.8])
    exp = ExpLinear.exponential(s)
    series = hpw_recurrence(ExpLinear.zero(s), exp, 2, 2, J=0)
    assert series.C[0].is_zero and not series.terminated
    pt = BiaxialPoint(2, 2, np.array([0.3, 0.1]), np.array([0.2, 0.5]))
    with mock.patch.object(fields, "SERIES_TAIL_TOL", np.inf):
        value, tail = eval_series(series, pt)
    t = float(np.dot(pt.y, s))
    assert tail == abs(exp.value(t)) * 0.8
    assert tail == float(np.max(np.abs(value.coeffs)))


def test_series_refuses_a_profile_off_its_direction():
    # s comes from C_0 = 0 on e_3's direction; D_0 = 1 lies on [0, 1], so
    # its s term would land on e_3 (blade 4) instead of e_4 (blade 8).
    with pytest.raises(ValueError, match=r"every profile must lie on the series' s = \[1.0, 0.0\]"):
        hpw_recurrence(ExpLinear.zero([1, 0]), ExpLinear.polynomial([0, 1], [1.0]), 2, 2, J=3)


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
        a_part, b_part, last = _series_pair(series, pt, pt.r)
        assert a_part.norm_inf == 0.0 and b_part.norm_inf == 0.0 and last == 0.0


def test_plane_wave_names_are_the_engine():
    assert planewave.eval_planewave is fields.eval_series
    assert planewave.PlaneWaveSeries is fields.PlaneWaveSeries
    assert planewave.hpw_recurrence is fields.hpw_recurrence
