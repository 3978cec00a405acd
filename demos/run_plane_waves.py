# Exponential plane waves two ways: the coefficient recurrence and the
# Bessel-J closed form.  The extension of exp(<y, s>) is the same recurrence
# with D_0 = 0, and its closed form ck_bessel_form is the same Bessel-J wave.
# The two routes agree to machine precision and are annihilated by the
# first-order operator.

import numpy as np

from biaxial.algebra import BiaxialPoint
from biaxial.fields import dirac_apply_fd, series_axial_parts
from biaxial.planewave import (
    eval_planewave,
    exp_coeffs_closed,
    exp_hpw_series,
    hpw_exp_closed,
)

p, q = 3, 2
s = np.array([1.0, 0.0])

print(f"axis split p={p}, q={q}, direction s={s}")
print()

# Coefficients from the recurrence against their Gamma-ratio closed form.
series = exp_hpw_series(p, q, s, J=40)
print("j   recurrence        closed form       (c_j for even j, d_j for odd j)")
for j in range(8):
    profile = series.C[j] if j % 2 == 0 else series.D[j]
    got = float(profile.poly[0].real)
    want = exp_coeffs_closed(j, p)
    print(f"{j}   {got:.15f} {want:.15f}")
print()

# Pointwise agreement of the two construction routes.
rows = []
for r in (0.0, 0.5, 1.0, 1.5, 2.0):
    x = np.zeros(p)
    x[0] = r
    pt = BiaxialPoint(p, q, x, np.array([0.4, -0.2]))
    closed = hpw_exp_closed(pt, s)
    via_series = eval_planewave(series, pt)[0]
    rows.append((r, (closed - via_series).norm_inf))
print("|x|   closed-vs-series")
for r, e1 in rows:
    print(f"{r:3.1f}   {e1:.3e}")
print()

# The finite-difference residual of the first-order operator vanishes to
# truncation order.
pt = BiaxialPoint(p, q, np.array([0.7, 0.3, -0.2]), np.array([0.3, 0.5]))
for h in (1e-3, 5e-4):
    res = dirac_apply_fd(lambda pt2: hpw_exp_closed(pt2, s), pt, h=h)
    print(f"operator residual at h={h:g}: {res.norm_inf:.3e}")
print()

# Axial split into the even part A and the odd part B, and back.
a_part, b_part = series_axial_parts(series, pt.r, pt.y)
assembled = a_part + pt.embed_unit_x() * b_part
direct = eval_planewave(series, pt)[0]
print(f"axial split round-trip gap: {(assembled - direct).norm_inf:.3e}")
