"""Hemisphere Cauchy machinery for axial fields in the unit ball.

The sphere of R^{p+q} splits as S^{p-1} x S^{q-1} x [0, pi/2]; the inner
integral over S^{p-1} of the Cauchy kernel against boundary data reduces
to two zonal moments of (tau - 2 r cos(theta) u)^{-(p+q)/2}:

  I   - the plain moment, C (tau + c2)^{-a} 2F1(a, b; 2b; z),
  Phi - the u-weighted moment, C (a/p) c2 (tau + c2)^{-a-1} 2F1(a+1, b+1; 2b+2; z),

with a = (p+q)/2, b = (p-1)/2, c2 = 2 r cos(theta), z = 2 c2/(tau + c2)
and one constant C; both follow from the Euler integral of 2F1 (DLMF
15.6.1, 15.5.1, 15.8).

reconstruct_ab_variants assembles three variants of the reduced integral:

  'full'      keeps I (A + (x+y)(sin(theta) nu A - cos(theta) B)) and
              grade-splits it,
  'printed'   additionally drops the cos(theta) B term from the odd part,
  'corrected' adds the Phi terms that the first two variants discard.

The discarded terms are odd in omega but integrate against a kernel that
is not even in omega, so they do not vanish: only 'corrected' reproduces
interior values (the full-sphere Cauchy quadrature is the referee; see
tests and demos for the measured discrepancy of the other variants).

Both reconstruction and the full-sphere oracle work on whole arrays of
quadrature nodes: they need fields whose A/B (or boundary function)
accept arrays, as AxialField documents.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import BiaxialPoint, Multivector, batch_product
from .fields import AxialField
from .quadrature import HemisphereRule, SphereRule, sphere_area
from .special import hyp2f1_symmetric

BALL_RADIUS_MAX = 0.9
_MIN_BOUNDARY_DISTANCE = 0.05
# Nodes per array pass of the hemisphere sweep and of the kernel oracle;
# bounds the (nodes x 2^dim), (nodes x Jacobi) and (nodes x p) work arrays
# for fine rules.
_NODE_BLOCK = 4096


def _check_interior(r: float, y: np.ndarray) -> None:
    rho = math.sqrt(r * r + float(np.dot(y, y)))
    if rho > BALL_RADIUS_MAX:
        raise ValueError(
            f"evaluation point has |x+y| = {rho:.3f} > {BALL_RADIUS_MAX}; "
            "too close to the boundary sphere"
        )


def _node_geometry(r: float, y: np.ndarray, theta: np.ndarray, nu: np.ndarray):
    """tau = r^2 + cos^2(theta) + |y - sin(theta) nu|^2 and c2 = 2 r cos(theta)
    at hemisphere nodes theta (N,), nu (N, q), for one point (r, y)."""
    c = np.cos(theta)
    s = np.sin(theta)
    tau = r ** 2 + c * c + np.sum((y - s[:, None] * nu) ** 2, axis=1)
    return tau, 2.0 * r * np.maximum(c, 0.0)  # 0 in the slack past pi/2


def _moment_args(p: int, q: int, tau, c2):
    """a, b, z and the constant C shared by the closed moments I and Phi."""
    a = 0.5 * (p + q)
    b = 0.5 * (p - 1.0)
    z = 2.0 * c2 / (tau + c2)
    const = sphere_area(p - 1) * 2.0 ** (p - 2) * math.gamma(b) ** 2 / math.gamma(p - 1.0)
    return a, b, z, const


def _kernel_I(p: int, q: int, tau, c2):
    """Closed moment I from tau and c2; floats or equal-shape arrays."""
    a, b, z, const = _moment_args(p, q, tau, c2)
    return const * (tau + c2) ** (-a) * hyp2f1_symmetric(a, b, z)


def _kernel_phi(p: int, q: int, tau, c2):
    """Closed moment Phi from tau and c2, 0.0 where c2 = 0; floats or arrays."""
    a, b, z, const = _moment_args(p, q, tau, c2)
    return (const * (a / p) * c2 * (tau + c2) ** (-(a + 1.0))
            * hyp2f1_symmetric(a + 1.0, b + 1.0, z))


@dataclass(frozen=True)
class KernelParams:
    """Arguments of the reduced kernel at one hemisphere node."""

    p: int
    q: int
    r: float
    y: np.ndarray
    theta: float
    nu: np.ndarray

    def __post_init__(self):
        if self.p < 2 or self.q < 2:
            raise ValueError("kernel needs p, q >= 2")
        if self.r < 0:
            raise ValueError("r is a radius, need r >= 0")
        if not 0.0 <= self.theta <= 0.5 * math.pi + 1e-12:
            raise ValueError("theta must lie in [0, pi/2]")
        y = np.asarray(self.y, dtype=np.float64)
        nu = np.asarray(self.nu, dtype=np.float64)
        if y.shape != (self.q,) or nu.shape != (self.q,):
            raise ValueError("y and nu must be length-q vectors")
        if abs(float(np.linalg.norm(nu)) - 1.0) > 1e-9:
            raise ValueError("nu must be a unit vector")
        _check_interior(self.r, y)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "nu", nu)

    @property
    def tau(self) -> float:
        c = math.cos(self.theta)
        s = math.sin(self.theta)
        return self.r ** 2 + c * c + float(np.sum((self.y - s * self.nu) ** 2))

    @property
    def c2(self) -> float:
        return 2.0 * self.r * max(math.cos(self.theta), 0.0)  # 0 in the slack past pi/2

    @property
    def z(self) -> float:
        return 2.0 * self.c2 / (self.tau + self.c2)


def kernel_I_closed(kp: KernelParams) -> float:
    """Closed hypergeometric form of the zonal kernel moment.

    I = kappa_p (2^{p-2} Gamma((p-1)/2)^2 / Gamma(p-1))
        (tau + 2 r cos theta)^{-(p+q)/2} 2F1((p+q)/2, (p-1)/2; p-1; z)
    with z = 4 r cos(theta) / (tau + 2 r cos(theta)); at r = 0 this is the
    sphere measure |S^{p-1}| times tau^{-(p+q)/2}.
    """
    return float(_kernel_I(kp.p, kp.q, kp.tau, kp.c2))


def kernel_phi(kp: KernelParams) -> float:
    """First-order zonal moment kappa_p int u (1-u^2)^{(p-3)/2} K(u) du.

    K(u) = (tau - 2 r cos(theta) u)^{-(p+q)/2}.  Closed form: one
    2F1(a+1, b+1; 2b+2; z) on kernel_I_closed's z (DLMF 15.6.1, 15.5.1,
    15.8; module docstring).  It is exactly 0.0 at r = 0 and multiplies
    the omega-odd boundary terms in the corrected reconstruction.
    """
    return float(_kernel_phi(kp.p, kp.q, kp.tau, kp.c2))


def kernel_I_oracle(x: np.ndarray, y: np.ndarray, theta: float, nu: np.ndarray,
                    rule: SphereRule):
    """Direct S^{p-1} quadrature of the kernel integral.

    Integrates |x + y - cos(theta) omega - sin(theta) nu|^{-(p+q)} over
    omega; depends on x only through |x|, which the zonal-invariance tests
    exercise.  y of shape (q,) gives a float; a stack (K, q) gives the K
    floats as an array, sharing one pass over the omega nodes.  The pass
    walks the nodes in blocks of _NODE_BLOCK; every node's integrand is
    computed as in one whole-rule pass and summed once over all nodes, so
    the values do not depend on the block size.
    """
    x = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    p = x.size
    q = ys.shape[-1]
    if rule.dim != p:
        raise ValueError("oracle rule must live on S^{p-1}")
    c, s = math.cos(theta), math.sin(theta)
    dy = ys.reshape(-1, q) - s * np.asarray(nu, dtype=np.float64)
    dy2 = np.array([float(np.dot(row, row)) for row in dy])
    n = rule.points.shape[0]
    buf = np.empty((min(_NODE_BLOCK, n), p))
    integrand = np.empty((dy2.size, n))
    for start in range(0, n, _NODE_BLOCK):
        stop = min(start + _NODE_BLOCK, n)
        dx = buf[:stop - start]
        np.multiply(rule.points[start:stop], c, out=dx)
        np.subtract(x, dx, out=dx)
        dist2 = np.einsum("ij,ij->i", dx, dx) + dy2[:, None]
        if math.sqrt(float(np.min(dist2, initial=np.inf))) < _MIN_BOUNDARY_DISTANCE:
            raise ValueError("kernel oracle integrand is near-singular at this node")
        integrand[:, start:stop] = dist2 ** (-0.5 * (p + q))
    values = [float(np.dot(rule.weights, row)) for row in integrand]
    return values[0] if ys.ndim == 1 else np.array(values)


def _live_product(weights: np.ndarray, rows) -> np.ndarray:
    """weights @ rows for real weights (k, N) and complex rows (N, M).

    One real product over the columns of rows' float64 view that are
    nonzero at some node; the other columns stay +0.0.  Real fields fill
    one or a few of the 2 M float columns.
    """
    view = np.ascontiguousarray(rows, dtype=np.complex128).view(np.float64)
    live = np.flatnonzero(view.any(axis=0))
    out = np.zeros((weights.shape[0], view.shape[1]))
    out[:, live] = weights @ view[:, live]
    return out.view(np.complex128)


def _node_moments(field: AxialField, r: float, y: np.ndarray, theta: np.ndarray,
                  nu: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted sums of the boundary values over one block of nodes.

    Returns (2, q + 2, 2^dim) coefficients: the A values summed against
    w I, w Phi cos(theta) and w I sin(theta) nu_j, and the B values summed
    against w Phi, w I cos(theta) and w Phi sin(theta) nu_j.
    """
    c, s = np.cos(theta), np.sin(theta)
    a_b = field.A(c, s[:, None] * nu)
    b_b = field.B(c, s[:, None] * nu)
    tau, c2 = _node_geometry(r, y, theta, nu)
    w_i = w * _kernel_I(field.p, field.q, tau, c2)
    w_phi = w * _kernel_phi(field.p, field.q, tau, c2)
    weights_a = np.vstack([w_i, w_phi * c, (w_i * s) * nu.T])
    weights_b = np.vstack([w_phi, w_i * c, (w_phi * s) * nu.T])
    return np.stack([_live_product(weights_a, a_b), _live_product(weights_b, b_b)])


def reconstruct_ab_variants(field: AxialField, pt: BiaxialPoint, hrule: HemisphereRule):
    """All reconstruction variants in one sweep over the hemisphere nodes.

    Returns {variant: (A_value, B_value)} of y-subalgebra multivectors
    such that the field at pt is A_value + (x/|x|) B_value.  The nodes go
    through the kernels and field.A/field.B as arrays, in blocks of at
    most _NODE_BLOCK nodes.  The node-dependent vectors nu and the fixed
    y enter linearly, so they multiply weighted sums instead of rows:
    sum_n w_n nu_n f_n = sum_j e_{p+j} (sum_n w_n nu_{n,j} f_n).
    """
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
    mom = np.zeros((2, q + 2, 1 << dim), dtype=np.complex128)
    for start in range(0, total, _NODE_BLOCK):
        i_theta, i_nu = np.divmod(np.arange(start, min(start + _NODE_BLOCK, total)), n_nu)
        w = hrule.theta_weights[i_theta] * hrule.nu.weights[i_nu]
        mom += _node_moments(field, r, pt.y, hrule.theta_nodes[i_theta],
                             hrule.nu.points[i_nu], w)
    mom /= sphere_area(dim)
    y_basis = np.eye(1 << dim)[1 << np.arange(p, dim)]  # coefficient rows of e_{p+1}..e_{p+q}
    nu_a = batch_product(y_basis, mom[0, 2:], dim).sum(axis=0)
    nu_b = batch_product(y_basis, mom[1, 2:], dim).sum(axis=0)
    core = nu_a - mom[1, 1]
    odd = nu_b - mom[0, 1]
    y_mv = pt.embed_y_vector(pt.y)
    y_core, y_odd = ((y_mv * Multivector._wrap(dim, v)).coeffs for v in (core, odd))
    a_full = Multivector(dim, mom[0, 0] + y_core)
    return {
        "full": (a_full, Multivector(dim, r * core)),
        "printed": (a_full, Multivector(dim, r * nu_a)),
        "corrected": (
            Multivector(dim, a_full.coeffs + r * odd),
            Multivector(dim, mom[1, 0] + y_odd + r * core),
        ),
    }


class FullBallCauchy:
    """Full-sphere Cauchy integral with boundary values cached; the master
    oracle of the hemisphere reconstruction.

    Evaluates (1/lambda_{m-1}) int (z - eta)/|z - eta|^m eta f(eta) dS(eta)
    over S^{m-1}.  f_boundary maps the (N, m) block of rule nodes to
    (N, 2^m) coefficients (AxialField.boundary_value does); it is called
    once, and reusing one instance across evaluation points avoids
    re-sampling the boundary.
    """

    def __init__(self, f_boundary, rule: SphereRule):
        self.rule = rule
        self.dim = rule.dim
        values = np.asarray(f_boundary(rule.points))
        expected = (rule.points.shape[0], 1 << self.dim)
        if values.shape != expected:
            raise ValueError(
                f"f_boundary must map the {rule.points.shape} node block to {expected} "
                f"coefficients, got shape {values.shape}"
            )
        self._f = np.asarray(values, dtype=np.complex128)
        self._eta2 = np.einsum("ij,ij->i", rule.points, rule.points)

    def evaluate(self, pt: BiaxialPoint) -> Multivector:
        if pt.dim != self.dim:
            raise ValueError("point dimension does not match the rule")
        _check_interior(pt.r, pt.y)
        dim = self.dim
        eta = self.rule.points
        z = np.concatenate([pt.x, pt.y])
        # Column by column from strided views: below 8 terms np.add.reduce
        # sums a row left to right too (sphere_rule caps dim at 6), so this is
        # the same rounding without one inner-loop call per node.
        dist2 = np.zeros(eta.shape[0])
        for j in range(dim):
            d = z[j] - eta[:, j]
            dist2 += d * d
        dist = np.sqrt(dist2)
        if float(np.min(dist)) < _MIN_BOUNDARY_DISTANCE:
            raise ValueError("evaluation point is too close to a boundary node")
        scale = self.rule.weights * dist ** (-float(dim))
        # Bilinearity, with eta eta = -|eta|^2:
        # sum scale (z - eta) eta f = z sum_i e_i (sum scale eta_i f) + sum scale |eta|^2 f.
        moments = (scale[:, None] * eta).T @ self._f
        eta_f = batch_product(np.eye(1 << dim)[1 << np.arange(dim)], moments, dim).sum(axis=0)
        total = (pt.embed() * Multivector._wrap(dim, eta_f)).coeffs
        total = total + (scale * self._eta2) @ self._f
        return Multivector(dim, total / sphere_area(dim))
