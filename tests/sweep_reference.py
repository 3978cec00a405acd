"""The hemisphere sweep that biaxial.cauchy replaced, kept verbatim: it calls
field.A/field.B and gathers their live columns on every node block at every
point.  The tests require the stored sweep to give the same values bit for
bit.  The kernels and the block size come from the library, as they did;
the geometric products are product_reference's blade loop, as they were.
"""

import math

import numpy as np

from biaxial import cauchy
from biaxial.algebra import Multivector
from biaxial.cauchy import _check_interior, _kernel_I, _kernel_phi
from biaxial.quadrature import sphere_area
from product_reference import batch_product, product


def _node_geometry(r, y, theta, nu):
    c = np.cos(theta)
    s = np.sin(theta)
    tau = r ** 2 + c * c + np.sum((y - s[:, None] * nu) ** 2, axis=1)
    return tau, 2.0 * r * np.maximum(c, 0.0)


def _live_columns(rows):
    view = np.ascontiguousarray(rows, dtype=np.complex128).view(np.float64)
    live = np.flatnonzero(view.any(axis=0))
    return live, view[:, live], view.shape[1]


def _live_product(weights, cols):
    live, block, width = cols
    out = np.zeros((weights.shape[0], width))
    out[:, live] = weights @ block
    return out.view(np.complex128)


def _node_moments(field, r, y, theta, nu, w):
    c, s = np.cos(theta), np.sin(theta)
    a_b = field.A(c, s[:, None] * nu)
    b_b = field.B(c, s[:, None] * nu)
    tau, c2 = _node_geometry(r, y, theta, nu)
    w_i = w * _kernel_I(field.p, field.q, tau, c2)
    w_phi = w * _kernel_phi(field.p, field.q, tau, c2)
    weights_a = np.vstack([w_i, w_phi * c, (w_i * s) * nu.T])
    weights_b = np.vstack([w_phi, w_i * c, (w_phi * s) * nu.T])
    return np.stack([_live_product(weights_a, _live_columns(a_b)),
                     _live_product(weights_b, _live_columns(b_b))])


def reconstruct_ab_variants(field, pt, hrule):
    p, q = field.p, field.q
    if (pt.p, pt.q) != (p, q) or (hrule.p, hrule.q) != (p, q):
        raise ValueError("field, point, and rule must share (p, q)")
    _check_interior(pt.r, pt.y)
    theta = hrule.theta_nodes
    if np.any(theta < 0.0) or np.any(theta > 0.5 * math.pi + 1e-12):
        raise ValueError("theta must lie in [0, pi/2]")
    if np.any(np.abs(np.linalg.norm(hrule.nu.points, axis=1) - 1.0) > 1e-9):
        raise ValueError("nu must be a unit vector")
    dim = p + q
    r = pt.r
    n_nu = hrule.nu.points.shape[0]
    total = hrule.theta_nodes.size * n_nu
    block = cauchy._NODE_BLOCK
    mom = np.zeros((2, q + 2, 1 << dim), dtype=np.complex128)
    for start in range(0, total, block):
        i_theta, i_nu = np.divmod(np.arange(start, min(start + block, total)), n_nu)
        w = hrule.theta_weights[i_theta] * hrule.nu.weights[i_nu]
        mom += _node_moments(field, r, pt.y, hrule.theta_nodes[i_theta],
                             hrule.nu.points[i_nu], w)
    mom /= sphere_area(dim)
    y_basis = np.eye(1 << dim)[1 << np.arange(p, dim)]
    nu_a = batch_product(y_basis, mom[0, 2:], dim).sum(axis=0)
    nu_b = batch_product(y_basis, mom[1, 2:], dim).sum(axis=0)
    core = nu_a - mom[1, 1]
    odd = nu_b - mom[0, 1]
    y_mv = pt.embed_y_vector(pt.y)
    y_core, y_odd = (product(y_mv, Multivector._wrap(dim, v)).coeffs for v in (core, odd))
    a_full = Multivector(dim, mom[0, 0] + y_core)
    return {
        "full": (a_full, Multivector(dim, r * core)),
        "printed": (a_full, Multivector(dim, r * nu_a)),
        "corrected": (
            Multivector(dim, a_full.coeffs + r * odd),
            Multivector(dim, mom[1, 0] + y_odd + r * core),
        ),
    }
