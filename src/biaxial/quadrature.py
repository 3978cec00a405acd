"""Weighted interval rules, product rules on spheres, and the hemisphere
product rule S^{p+q-1} = S^{p-1} x S^{q-1} x [0, pi/2], plus a checkable
form of the Funk-Hecke identity.

Interval rules come from the Golub-Welsch eigenvalue construction for the
symmetric Jacobi weight (1-t^2)^alpha, which covers every exponent used
here including the singular alpha = -1/2 case.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .special import gegenbauer_normalized

# Node budget of sphere_rule: admits sphere_rule(4, 96) = 884,736 nodes,
# the finest rule the CLI requests.
MAX_SPHERE_NODES = 1_000_000


def sphere_area(ndim: int) -> float:
    """Surface measure of the unit sphere S^{ndim-1} in R^ndim."""
    if ndim < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {ndim}")
    return 2.0 * math.pi ** (0.5 * ndim) / math.gamma(0.5 * ndim)


@dataclass(frozen=True)
class IntervalRule:
    """Quadrature nodes/weights on (-1, 1) for the weight (1-t^2)^alpha."""

    nodes: np.ndarray
    weights: np.ndarray
    alpha: float

    def integrate(self, fn) -> float:
        return float(np.dot(self.weights, fn(self.nodes)))

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


@lru_cache(maxsize=None)
def gauss_jacobi_rule(n: int, alpha: float) -> IntervalRule:
    """Golub-Welsch rule with n nodes for the weight (1-t^2)^alpha.

    Exact for polynomials up to degree 2n-1; nodes are symmetrized so odd
    monomials integrate to zero at machine precision.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if alpha <= -1.0:
        raise ValueError(f"weight exponent must exceed -1, got {alpha}")
    mu0 = math.sqrt(math.pi) * math.gamma(alpha + 1.0) / math.gamma(alpha + 1.5)
    if n == 1:
        return IntervalRule(np.zeros(1), np.array([mu0]), alpha)
    k = np.arange(1, n)
    # Recurrence coefficients of the symmetric Jacobi weight: the diagonal
    # vanishes and b_k = k(k+2a) / (4(k+a)^2 - 1) for k >= 2; the k = 1
    # value 1/(2a+3) is the removable 0/0 limit at a = -1/2.
    b = np.empty(n - 1)
    b[0] = 1.0 / (2.0 * alpha + 3.0)
    if n > 2:
        kk = k[1:]
        b[1:] = kk * (kk + 2.0 * alpha) / (4.0 * (kk + alpha) ** 2 - 1.0)
    jac = np.diag(np.sqrt(b), 1)
    jac = jac + jac.T
    vals, vecs = np.linalg.eigh(jac)
    weights = mu0 * vecs[0, :] ** 2
    nodes = 0.5 * (vals - vals[::-1])
    weights = 0.5 * (weights + weights[::-1])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return IntervalRule(nodes, weights, alpha)


@dataclass(frozen=True)
class SphereRule:
    """Unit vectors and positive weights integrating over S^{dim-1}."""

    dim: int
    points: np.ndarray
    weights: np.ndarray

    def integrate(self, fn) -> complex:
        """Sum fn(points) with weights; fn must accept an (N, dim) array."""
        values = np.asarray(fn(self.points))
        return np.tensordot(self.weights, values, axes=(0, 0))

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


def sphere_rule(d: int, resolution: int = 64) -> SphereRule:
    """Product quadrature on S^{d-1} for d <= 6.

    resolution counts nodes per one-dimensional factor, so node totals grow
    like resolution^(d-1); a rule above MAX_SPHERE_NODES is rejected before
    anything is allocated.
    """
    if not 1 <= d <= 6:
        raise ValueError(f"sphere dimension must satisfy 1 <= d <= 6, got {d}")
    if d > 1 and resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    if resolution ** (d - 1) > MAX_SPHERE_NODES:
        raise ValueError(
            f"sphere_rule({d}, {resolution}) needs {resolution ** (d - 1)} nodes, "
            f"above the limit of {MAX_SPHERE_NODES}"
        )
    if d == 1:
        return SphereRule(1, np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    if d == 2:
        phi = 2.0 * math.pi * np.arange(resolution) / resolution
        pts = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        w = np.full(resolution, 2.0 * math.pi / resolution)
        return SphereRule(2, pts, w)
    polar = gauss_jacobi_rule(resolution, 0.5 * (d - 3.0))
    sub = sphere_rule(d - 1, resolution)
    u = polar.nodes
    sin_part = np.sqrt(1.0 - u ** 2)
    # Broadcast into one preallocated array, so the build peaks near the kept rule.
    pts = np.empty((u.size, sub.weights.size, d))
    pts[:, :, 0] = u[:, None]
    np.multiply(sin_part[:, None, None], sub.points, out=pts[:, :, 1:])
    w = np.outer(polar.weights, sub.weights).ravel()
    return SphereRule(d, pts.reshape(-1, d), w)


@dataclass(frozen=True)
class HemisphereRule:
    """theta x nu rule for the polar split of S^{p+q-1}: eta = cos(theta) omega + sin(theta) nu.

    theta_weights carry the cos^{p-1} sin^{q-1} surface factor, so summing
    g w_theta w_omega w_nu with any S^{p-1} rule integrates g dS over the
    sphere.  The omega integral is closed (the moments I and Phi of
    biaxial.cauchy), so the rule holds no omega factor.
    """

    p: int
    q: int
    theta_nodes: np.ndarray
    theta_weights: np.ndarray
    nu: SphereRule


def hemisphere_rule(p: int, q: int, resolution: int = 64) -> HemisphereRule:
    """Tensor rule over [0, pi/2] x S^{q-1} with folded weights."""
    if p < 2 or q < 2:
        raise ValueError(f"need p, q >= 2, got p={p}, q={q}")
    base = gauss_jacobi_rule(resolution, 0.0)
    theta = 0.25 * math.pi * (base.nodes + 1.0)
    wt = 0.25 * math.pi * base.weights
    wt = wt * np.cos(theta) ** (p - 1) * np.sin(theta) ** (q - 1)
    return HemisphereRule(p, q, theta, wt, sphere_rule(q, resolution))


def _harmonic(k: int, m: int):
    """Fixed degree-k test harmonic and an evaluation direction."""
    if k == 0:
        xi = np.zeros(m)
        xi[0] = 1.0
        return (lambda pts: np.ones(pts.shape[0])), xi
    if k == 1:
        xi = np.zeros(m)
        xi[0] = 1.0
        return (lambda pts: pts[:, 0]), xi
    if k == 2:
        xi = np.zeros(m)
        xi[0] = xi[1] = 1.0 / math.sqrt(2.0)
        return (lambda pts: pts[:, 0] * pts[:, 1]), xi
    raise ValueError(f"test harmonics cover k in {{0, 1, 2}}, got {k}")


def funk_hecke_check(psi, k: int, m: int, resolution: int = 24):
    """Evaluate both sides of the zonal-integral reduction.

    lhs: quadrature of psi(<xi, eta>) H_k(eta) over S^{m-1}.
    rhs: |S^{m-2}| (k!/(m-2)_k) H_k(xi) times the weighted Gegenbauer moment
    of psi.  The equatorial measure |S^{m-2}| is the prefactor the identity
    actually balances with, as the m=3, psi=1 case (both sides 4 pi) pins.
    """
    if not 2 <= m <= 6:
        raise ValueError(f"need 2 <= m <= 6, got {m}")
    return _funk_hecke_sides(psi, k, m, *_funk_hecke_rules(m, resolution))


def _funk_hecke_rules(m: int, resolution: int):
    return sphere_rule(m, resolution), gauss_jacobi_rule(max(resolution, 48), 0.5 * (m - 3.0))


def _funk_hecke_sides(psi, k: int, m: int, sphere: SphereRule, interval: IntervalRule):
    """Both sides of funk_hecke_check on the rules of _funk_hecke_rules."""
    harmonic, xi = _harmonic(k, m)
    proj = sphere.points @ xi
    lhs = float(np.dot(sphere.weights, psi(proj) * harmonic(sphere.points)))
    kernel = gegenbauer_normalized(k, m, interval.nodes)
    moment = float(np.dot(interval.weights, psi(interval.nodes) * kernel))
    h_xi = float(harmonic(xi[None, :])[0])
    rhs = sphere_area(m - 1) * h_xi * moment
    return lhs, rhs
