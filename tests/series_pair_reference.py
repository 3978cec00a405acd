"""The per-term series evaluator that biaxial.fields replaced, kept verbatim.

fields._series_pair walked the stored (C_j, D_j) pairs one at a time,
skipped zero profiles, and evaluated each other profile with
ExpLinear.value: a Horner loop over numpy complex scalars and its own
cmath.exp.  profile_value is that loop, and series_pair is the walk with
profile_value in place of ExpLinear.value.  The tests hold the coefficient
table's one pass to these references: bit for bit on exponential data,
within 2 ulp per profile.
"""

import cmath

import numpy as np

from biaxial.algebra import BiaxialPoint, Multivector, embed_vector
from biaxial.fields import ExpLinear, PlaneWaveSeries


def profile_value(g: ExpLinear, t: float) -> complex:
    acc = 0.0 + 0.0j
    for c in g.poly[::-1]:
        acc = acc * t + c
    lam = complex(g.lam)
    return acc * cmath.exp(lam * t) if lam != 0 else acc


def series_pair(series: PlaneWaveSeries, pt: BiaxialPoint, r: float):
    """(A, B, tail) of the series at pt, |x| = r, with tail as in eval_series.

    x^j = (-1)^(j//2) r^j (x/r)^(j%2), so A (B) is c + d s with c and d the
    sums of (-1)^(j//2) r^j C_j(t) and D_j(t), t = <y, s>, over the even
    (odd) j; zero profiles are not evaluated.
    """
    t = float(np.dot(pt.y, series.s))
    c_sums, d_sums = [0j, 0j], [0j, 0j]
    c = d = 0.0
    for j, (cj, dj) in enumerate(zip(series.C, series.D)):
        weight = (-1.0 if (j // 2) % 2 else 1.0) * r ** j
        c = 0.0 if cj.is_zero else profile_value(cj, t)
        d = 0.0 if dj.is_zero else profile_value(dj, t)
        c_sums[j % 2] += weight * c
        d_sums[j % 2] += weight * d
    # Added onto zeros, as a sum of terms is, so that no coefficient is -0.0.
    out = np.zeros((2, 1 << pt.dim), dtype=np.complex128)
    out[:, 0] = c_sums
    out += np.multiply.outer(d_sums, embed_vector(pt.dim, pt.p, series.s).coeffs)
    # Term j puts C_j on 1 or r^(j-1) x and D_j on s or r^(j-1) x s, whose
    # coefficients are x_i s_k; an empty series has c = d = 0.
    j = max(series.truncation - 1, 0)
    size = r ** j if j % 2 == 0 else r ** (j - 1) * float(np.max(np.abs(pt.x)))
    tail = size * max(abs(c), abs(d) * float(np.max(np.abs(series.s))))
    return Multivector._wrap(pt.dim, out[0]), Multivector._wrap(pt.dim, out[1]), tail
