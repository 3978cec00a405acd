"""The closed forms that became value_at of their axial pairs against the
hand-assembled code they replaced (closed_form_reference.py).

Both sides evaluate the same profiles; the pair adds its blades in another
order and takes the phase from numpy's exp, and the polynomial pair
computes (x/|x|)(coef_a |x|) where the old form computed coef_a x, so they
agree to rounding.
ck_bessel_form against its old series is test_planewave's
test_closed_form_matches_ck_route.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import closed_form_reference as ref
from biaxial.algebra import BiaxialPoint
from biaxial.planewave import (MAX_POLY_DEGREE, fourier_kernel_closed, hpw_exp_closed,
                               radialize_poly)

# Each entry maps (pt, s, k) to a value; only the polynomial wave reads k.
PAIRS = {
    "exp": (lambda pt, s, k: hpw_exp_closed(pt, s), lambda pt, s, k: ref.hpw_exp_closed(pt, s)),
    "fourier": (lambda pt, s, k: fourier_kernel_closed(pt, s),
                lambda pt, s, k: ref.fourier_kernel_closed(pt, s)),
    "poly": (lambda pt, s, k: radialize_poly(k, pt, s),
             lambda pt, s, k: ref.radialize_poly(k, pt, s)),
}


def _unit_vector(draw, n):
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    norm = float(np.linalg.norm(v))
    if norm < 1e-3:
        v, norm = np.eye(n)[0], 1.0
    return v / norm


@st.composite
def points_and_directions(draw):
    p = draw(st.integers(2, 6))
    q = draw(st.integers(1, 8 - p))
    r = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.8)))
    x = _unit_vector(draw, p) * r
    y = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=q, max_size=q)))
    return BiaxialPoint(p, q, x, y), _unit_vector(draw, q)


@settings(max_examples=150, deadline=None)
@given(case=points_and_directions(), name=st.sampled_from(sorted(PAIRS)),
       k=st.integers(0, MAX_POLY_DEGREE))
@example(case=(BiaxialPoint(2, 2, np.zeros(2), np.array([0.3, -0.2])), np.array([0.6, 0.8])),
         name="fourier", k=0)
@example(case=(BiaxialPoint(3, 2, np.zeros(3), np.array([0.5, -0.4])), np.array([0.6, 0.8])),
         name="poly", k=5)
# |x|^2 is subnormal here, so a profile that divides by |x|^{p/2-1} overflows.
@example(case=(BiaxialPoint(6, 1, np.full(6, 6.5e-161 / 6 ** 0.5), np.array([0.4])),
               np.array([1.0])), name="exp", k=0)
def test_closed_forms_match_the_code_they_replaced(case, name, k):
    pt, s = case
    new, old = PAIRS[name]
    want = old(pt, s, k)
    got = new(pt, s, k)
    assert (got - want).norm_inf <= 1e-14 * max(1.0, want.norm_inf)
