"""The 2F1 series, vector-times-multivector batch and full-ball evaluation
that biaxial replaced, kept verbatim.

The series ran its whole-array convergence test after every term; the
batch gathered all 2^dim blade columns once per generator; the evaluation
summed each node's squared distance with np.add.reduce over its row.  The
reference evaluation uses this module's own batch_vector_mv, so it pins
the distance change independently of the live-column gather.  Its sign
table is product_reference's.  The tests hold the new code to these
references bit for bit.
"""

import numpy as np

from biaxial.algebra import Multivector
from biaxial.cauchy import _MIN_BOUNDARY_DISTANCE, _check_interior
from biaxial.quadrature import sphere_area
from biaxial.special import _MAX_TERMS, _TERM_EPS, ConvergenceError
from product_reference import _blade_tables


def hyp2f1_series(a: float, b: float, c: float, z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    term = np.ones_like(z)
    total = term.copy()
    for n in range(_MAX_TERMS):
        term = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * z
        total += term
        if np.all(np.abs(term) < _TERM_EPS * np.maximum(1.0, np.abs(total))):
            return total
    raise ConvergenceError(f"2F1 series stalled at z_max={float(np.max(z))}")


def batch_vector_mv(components: np.ndarray, mats: np.ndarray, dim: int) -> np.ndarray:
    """Left-multiply rows of multivector coefficients by grade-1 vectors.

    components: (N, dim) vector components, mats: (N, 2^dim) coefficients.
    Returns the (N, 2^dim) coefficients of v_n * M_n for every row n.
    """
    comps = np.asarray(components)
    mats = np.asarray(mats, dtype=np.complex128)
    size = 1 << dim
    if comps.shape[1] != dim or mats.shape[1] != size or comps.shape[0] != mats.shape[0]:
        raise ValueError("inconsistent batch shapes")
    sign = _blade_tables(dim)[0]
    idx = np.arange(size)
    out = np.zeros_like(mats)
    for i in range(dim):
        col = comps[:, i]
        if not np.any(col):
            continue
        # e_i e_B lands on blade B ^ bit: gather instead of scattering.
        src = idx ^ (1 << i)
        term = mats[:, src]
        term *= sign[1 << i][src]
        term *= col[:, None]
        out += term
    return out


def full_ball_evaluate(oracle, pt, f) -> Multivector:
    """FullBallCauchy.evaluate(pt) of the oracle instance, as it was, with
    its cached complex boundary block f, shape (N, 2^dim)."""
    self = oracle
    if pt.dim != self.dim:
        raise ValueError("point dimension does not match the rule")
    _check_interior(pt.r, pt.y)
    dim = self.dim
    eta = self.rule.points
    z = np.concatenate([pt.x, pt.y])
    d = z[None, :] - eta
    dist = np.sqrt(np.add.reduce(d * d, axis=1))
    if float(np.min(dist)) < _MIN_BOUNDARY_DISTANCE:
        raise ValueError("evaluation point is too close to a boundary node")
    scale = self.rule.weights * dist ** (-float(dim))
    # Bilinearity, with eta eta = -|eta|^2:
    # sum scale (z - eta) eta f = z sum_i e_i (sum scale eta_i f) + sum scale |eta|^2 f.
    moments = (scale[:, None] * eta).T @ f
    eta_f = batch_vector_mv(np.eye(dim), moments, dim).sum(axis=0)
    total = batch_vector_mv(z[None, :], eta_f[None, :], dim)[0]
    total += (scale * np.einsum("ij,ij->i", eta, eta)) @ f
    return Multivector(dim, total / sphere_area(dim))
