"""Per-node reference implementations of the hemisphere reconstruction and
the full-sphere Cauchy sum.

These are the straightforward loops the batched library code replaced:
one hemisphere node (or one boundary node) at a time, through the scalar
field calls, KernelParams and the scalar kernel API, with products from
product_reference's blade loop.  The tests hold the array implementations
in biaxial.cauchy to these references.  Beside them is the fixed 96-node
Gauss-Jacobi integral that evaluated the moment Phi before its closed form.
"""

import math

import numpy as np

from biaxial.algebra import Multivector, embed_vector
from biaxial.cauchy import KernelParams, kernel_I_closed, kernel_phi
from biaxial.quadrature import gauss_jacobi_rule, sphere_area
from probe_reference import batch_vector_mv
from product_reference import product

PHI_NODES = 96


def reconstruct_ab_variants_per_node(field, pt, hrule):
    """{variant: (A_value, B_value)}, summed node by node."""
    p, q = field.p, field.q
    dim = p + q
    r = pt.r
    y_mv = embed_vector(dim, p, pt.y)
    size = 1 << dim
    acc = {key: np.zeros(size, dtype=np.complex128)
           for key in ("A_full", "B_full", "B_printed", "A_corr", "B_corr")}
    for theta, wt in zip(hrule.theta_nodes, hrule.theta_weights):
        c, s = math.cos(theta), math.sin(theta)
        for nu, wn in zip(hrule.nu.points, hrule.nu.weights):
            w = wt * wn
            a_b = field.A(c, s * nu)
            b_b = field.B(c, s * nu)
            nu_mv = embed_vector(dim, p, nu)
            kp = KernelParams(p, q, r, pt.y, theta, nu)
            kern_i = kernel_I_closed(kp)
            nu_a = product(nu_mv, a_b)
            core = s * nu_a - c * b_b
            acc["A_full"] += (w * kern_i) * (a_b + product(y_mv, core)).coeffs
            acc["B_full"] += (w * kern_i * r) * core.coeffs
            acc["B_printed"] += (w * kern_i * r * s) * nu_a.coeffs
            phi = kernel_phi(kp)
            if phi != 0.0:
                nu_b = product(nu_mv, b_b)
                acc["A_corr"] += (w * phi * r) * (s * nu_b - c * a_b).coeffs
                acc["B_corr"] += (w * phi) * (
                    b_b + s * product(y_mv, nu_b) - c * product(y_mv, a_b)
                ).coeffs
    lam = sphere_area(dim)
    for key in acc:
        acc[key] /= lam
    return {
        "full": (Multivector(dim, acc["A_full"]), Multivector(dim, acc["B_full"])),
        "printed": (Multivector(dim, acc["A_full"]), Multivector(dim, acc["B_printed"])),
        "corrected": (
            Multivector(dim, acc["A_full"] + acc["A_corr"]),
            Multivector(dim, acc["B_full"] + acc["B_corr"]),
        ),
    }


def full_ball_per_node(f_point, pts, rule):
    """Full-sphere Cauchy sums at pts with the boundary sampled node by node.

    f_point maps one sphere point (dim,) to a Multivector; at each point
    the integrand (z - eta)/|z - eta|^m eta f(eta) is summed row by row.
    """
    dim = rule.dim
    values = np.stack([f_point(eta).coeffs for eta in rule.points])
    eta_f = batch_vector_mv(rule.points, values, dim)
    out = []
    for pt in pts:
        z = np.concatenate([pt.x, pt.y])
        diff = z[None, :] - rule.points
        dist = np.linalg.norm(diff, axis=1)
        scale = rule.weights * dist ** (-float(dim))
        integrand = batch_vector_mv(diff, eta_f, dim) * scale[:, None]
        out.append(Multivector(dim, integrand.sum(axis=0) / sphere_area(dim)))
    return out


def kernel_phi_quadrature(p, q, r, tau, c2):
    """Phi by the 96-node Gauss-Jacobi rule for (1-u^2)^{(p-3)/2}; floats or
    equal-shape arrays.  Accurate to about 1e-14 for |x+y| <= 0.5; its error
    grows to 7.7e-6 relative at |x+y| = 0.9."""
    if r == 0.0:
        return np.zeros_like(tau)
    rule = gauss_jacobi_rule(PHI_NODES, 0.5 * (p - 3.0))
    u = rule.nodes
    vals = u * (np.expand_dims(tau, -1) - np.expand_dims(c2, -1) * u) ** (-0.5 * (p + q))
    return sphere_area(p - 1) * (vals @ rule.weights)
