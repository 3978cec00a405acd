"""The three finite-difference residuals that biaxial replaced, kept verbatim.

dirac_apply_fd, vekua_residual and modified_dirac_residual each had their
own central-difference loop, step check and axis guard; the library now
runs all three through one rule.  dirac_apply_fd moved its point with the
BiaxialPoint.shifted method, which was deleted with it; shifted is copied
here as a function, and the products by e_i go through product_reference's
blade loop, the product of that time.  The tests hold the library to this
module bit for bit.
"""

import numpy as np

from biaxial.algebra import BiaxialPoint, Multivector, vector_interior
from biaxial.fields import FD_STEP_MAX, FD_STEP_MIN, AxialField
from product_reference import product


def _check_step(h: float) -> None:
    if not FD_STEP_MIN <= h <= FD_STEP_MAX:
        raise ValueError(f"finite-difference step must lie in [{FD_STEP_MIN}, {FD_STEP_MAX}]")


def shifted(pt: BiaxialPoint, coord: int, delta: float) -> BiaxialPoint:
    """Point with one of the p+q coordinates displaced by delta."""
    if not 0 <= coord < pt.dim:
        raise ValueError(f"coordinate index {coord} out of range")
    x = pt.x.copy()
    y = pt.y.copy()
    if coord < pt.p:
        x[coord] += delta
    else:
        y[coord - pt.p] += delta
    return BiaxialPoint(pt.p, pt.q, x, y)


def dirac_apply_fd(f, pt: BiaxialPoint, h: float = 1e-4) -> Multivector:
    """Central-difference (d_x + d_y) f: sum_i e_i (f(pt+h e_i) - f(pt-h e_i)) / 2h."""
    _check_step(h)
    if pt.r <= 2.0 * h:
        raise ValueError("evaluation too close to the x = 0 axis for the step size")
    dim = pt.dim
    acc = Multivector.zero(dim)
    for i in range(dim):
        diff = f(shifted(pt, i, h)) - f(shifted(pt, i, -h))
        acc = acc + product(Multivector.basis_vector(dim, i + 1), diff / (2.0 * h))
    return acc


def vekua_residual(field: AxialField, r: float, y: np.ndarray, h: float = 1e-4):
    """Residuals of the first-order axial system.

    res1 = d_y A - d_r B - ((p-1)/r) B,  res2 = d_y B - d_r A,
    both by central differences; Dirac-null axial fields satisfy
    res1 = res2 = 0.
    """
    _check_step(h)
    if r <= 2.0 * h:
        raise ValueError("need r > 2h")
    y = np.asarray(y, dtype=np.float64)
    p, q = field.p, field.q
    dim = p + q

    def dy(g):
        acc = Multivector.zero(dim)
        for i in range(q):
            step = np.zeros(q)
            step[i] = h
            diff = g(r, y + step) - g(r, y - step)
            acc = acc + product(Multivector.basis_vector(dim, p + i + 1), diff / (2.0 * h))
        return acc

    def dr(g):
        return (g(r + h, y) - g(r - h, y)) / (2.0 * h)

    b_here = field.B(r, y)
    res1 = dy(field.A) - dr(field.B) - ((p - 1.0) / r) * b_here
    res2 = dy(field.B) - dr(field.A)
    return res1, res2


def modified_dirac_residual(f, p: int, q: int, r: float, y: np.ndarray,
                            h: float = 1e-4) -> Multivector:
    """Apply e d_r + d_y + ((p-1)/r) e. in the reduced (q+1)-generator picture.

    f maps (r, y) to a multivector over generators (e, y_1, ..., y_q) with
    e on generator 1; the interior multiplication supplies the e. term.
    """
    _check_step(h)
    if r <= 2.0 * h:
        raise ValueError("need r > 2h")
    y = np.asarray(y, dtype=np.float64)
    dim = q + 1
    e_mv = Multivector.basis_vector(dim, 1)
    drf = (f(r + h, y) - f(r - h, y)) / (2.0 * h)
    acc = product(e_mv, drf)
    for i in range(q):
        step = np.zeros(q)
        step[i] = h
        diff = f(r, y + step) - f(r, y - step)
        acc = acc + product(Multivector.basis_vector(dim, i + 2), diff / (2.0 * h))
    return acc + ((p - 1.0) / r) * vector_interior(e_mv, f(r, y))
