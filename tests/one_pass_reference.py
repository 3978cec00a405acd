"""The one-pass kernel_I_oracle and FullBallCauchy.evaluate that
biaxial.cauchy replaced, kept verbatim.

The oracle formed its (N, p) and (N,) temporaries over the whole omega
rule at once; the evaluation took its distances from np.linalg.norm and
recomputed |eta|^2 on every call.  The tests hold the streamed oracle and
the cached evaluation to these references bit for bit.
"""

import math

import numpy as np

from biaxial.algebra import Multivector
from biaxial.cauchy import _MIN_BOUNDARY_DISTANCE, _check_interior
from biaxial.quadrature import SphereRule, sphere_area
from probe_reference import batch_vector_mv


def kernel_I_oracle(x: np.ndarray, y: np.ndarray, theta: float, nu: np.ndarray,
                    rule: SphereRule):
    """Direct S^{p-1} quadrature of the kernel integral.

    Integrates |x + y - cos(theta) omega - sin(theta) nu|^{-(p+q)} over
    omega; depends on x only through |x|, which the zonal-invariance tests
    exercise.  y of shape (q,) gives a float; a stack (K, q) gives the K
    floats as an array, sharing one pass over the omega nodes.
    """
    x = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    p = x.size
    q = ys.shape[-1]
    if rule.dim != p:
        raise ValueError("oracle rule must live on S^{p-1}")
    c, s = math.cos(theta), math.sin(theta)
    dx = x[None, :] - c * rule.points
    dx2 = np.einsum("ij,ij->i", dx, dx)
    values = []
    for y in ys if ys.ndim == 2 else (ys,):
        dy = y - s * np.asarray(nu, dtype=np.float64)
        dist2 = dx2 + float(np.dot(dy, dy))
        if math.sqrt(float(np.min(dist2))) < _MIN_BOUNDARY_DISTANCE:
            raise ValueError("kernel oracle integrand is near-singular at this node")
        values.append(float(np.dot(rule.weights, dist2 ** (-0.5 * (p + q)))))
    return values[0] if ys.ndim == 1 else np.array(values)


def full_ball_evaluate(oracle, pt) -> Multivector:
    """FullBallCauchy.evaluate(pt) of the oracle instance, as it was."""
    self = oracle
    if pt.dim != self.dim:
        raise ValueError("point dimension does not match the rule")
    _check_interior(pt.r, pt.y)
    dim = self.dim
    eta = self.rule.points
    z = np.concatenate([pt.x, pt.y])
    dist = np.linalg.norm(z[None, :] - eta, axis=1)
    if float(np.min(dist)) < _MIN_BOUNDARY_DISTANCE:
        raise ValueError("evaluation point is too close to a boundary node")
    scale = self.rule.weights * dist ** (-float(dim))
    # Bilinearity, with eta eta = -|eta|^2:
    # sum scale (z - eta) eta f = z sum_i e_i (sum scale eta_i f) + sum scale |eta|^2 f.
    moments = (scale[:, None] * eta).T @ self._f
    eta_f = batch_vector_mv(np.eye(dim), moments, dim).sum(axis=0)
    total = batch_vector_mv(z[None, :], eta_f[None, :], dim)[0]
    total += (scale * np.einsum("ij,ij->i", eta, eta)) @ self._f
    return Multivector(dim, total / sphere_area(dim))
