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

from .special import _check_range, gegenbauer_normalized

# Node budget of sphere_rule: admits sphere_rule(4, 96) = 884,736 nodes,
# the finest rule the CLI requests.  It bounds the time of a pass over a
# rule and the size of its node array where one is built (points, weights),
# not the memory of an oracle, which walks the rule in blocks of
# _ORACLE_BLOCK rows.  It also bounds the entries of gauss_jacobi_rule's
# dense Jacobi matrix, so n <= 1,000.
MAX_SPHERE_NODES = 1_000_000
# Rows per block of every quadrature oracle's walk over a SphereRule.  The
# kernel oracle's (K, block) distance rows and power-ladder work rows, for
# the few y's of a call, stay in a core's L2 cache from the first pass over
# them to the dot with the weights: 16,384 was the fastest of 4,096, 8,192,
# 16,384 and 32,768 at p = q = 4 with three y's on a host with 2 MiB of L2
# per core.
_ORACLE_BLOCK = 16384


def sphere_area(ndim: int) -> float:
    """Surface measure of the unit sphere S^{ndim-1} in R^ndim."""
    _check_range("ambient dimension ndim", ndim, 1, math.inf)
    return 2.0 * math.pi ** (0.5 * ndim) / math.gamma(0.5 * ndim)


def _read_only(*arrays) -> None:
    """Mark a rule's arrays read-only in place, with no copy, so values kept
    from a rule (gauss_jacobi_rule's cache, the hemisphere sweep of
    biaxial.cauchy) stay valid while it lives."""
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True)
class IntervalRule:
    """Quadrature nodes/weights on (-1, 1) for the weight (1-t^2)^alpha."""

    nodes: np.ndarray
    weights: np.ndarray
    alpha: float


@lru_cache(maxsize=None)
def gauss_jacobi_rule(n: int, alpha: float) -> IntervalRule:
    """Golub-Welsch rule with n nodes for the weight (1-t^2)^alpha.

    Exact for polynomials up to degree 2n-1; nodes are symmetrized so odd
    monomials integrate to zero at machine precision.
    """
    _check_range("Jacobi node count n", n, 1, math.isqrt(MAX_SPHERE_NODES))
    if not alpha > -1.0:
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
    _read_only(nodes, weights)
    return IntervalRule(nodes, weights, alpha)


class SphereRule:
    """Unit vectors and positive weights integrating over S^{dim-1}.

    A rule of sphere_rule for dim >= 3 is a product rule: it keeps its polar
    Gauss-Jacobi factor and its S^{dim-2} sub-rule, not its size x dim node
    array.  blocks(n) hands its nodes out in row ranges, and every
    quadrature oracle walks those.  points and weights are assembled from
    the factors on first access and then kept.  A rule given its arrays,
    SphereRule(dim, points, weights), keeps them, and its blocks slice them.
    The arrays are read-only, and a rule compares and hashes by identity.
    """

    def __init__(self, dim: int, points: np.ndarray, weights: np.ndarray):
        _read_only(points, weights)
        self.dim = dim
        self.size = len(weights)
        self._arrays = points, weights
        self._factors = None

    @classmethod
    def _product(cls, polar: IntervalRule, sub: "SphereRule") -> "SphereRule":
        """The rule on S^{sub.dim} with nodes (u, sqrt(1-u^2) omega), u of
        polar and omega of sub, polar-major; its weight is their product."""
        rule = cls.__new__(cls)
        rule.dim = sub.dim + 1
        rule.size = polar.nodes.size * sub.size
        rule._arrays = None
        # sub's nodes behind a zero column 0: one broadcast multiply forms
        # whole rows, which is much cheaper than writing the strided
        # columns 1.. of a node block.
        lifted = np.zeros((sub.size, rule.dim))
        lifted[:, 1:] = sub.points
        sin_part = np.sqrt(1.0 - polar.nodes ** 2)
        _read_only(lifted, sin_part)
        rule._factors = polar, sub, sin_part, lifted
        return rule

    @property
    def points(self) -> np.ndarray:
        return self._assembled()[0]

    @property
    def weights(self) -> np.ndarray:
        return self._assembled()[1]

    def _assembled(self):
        if self._arrays is None:
            pts = np.empty((self.size, self.dim))
            w = np.empty(self.size)
            self._fill(0, self.size, pts, w)
            _read_only(pts, w)
            self._arrays = pts, w
        return self._arrays

    def blocks(self, n: int):
        """(points, weights) of rows [a, a + n) for a = 0, n, 2n, ...; the
        last range may be shorter.  Each equals points[a:a+n], weights[a:a+n]
        bit for bit.  A product rule writes every range into the same two
        buffers: the yielded arrays are read-only views, valid until the
        next step."""
        _check_range("block rows n", n, 1, math.inf)
        starts = range(0, self.size, n)
        if self._factors is None:
            pts, w = self._arrays
            for a in starts:
                yield pts[a:a + n], w[a:a + n]
            return
        width = min(n, self.size)
        pts, w = np.empty((width, self.dim)), np.empty(width)
        views = pts.view(), w.view()
        _read_only(*views)
        for a in starts:
            b = min(a + n, self.size)
            self._fill(a, b, pts, w)
            yield views[0][:b - a], views[1][:b - a]

    def _fill(self, start: int, stop: int, pts: np.ndarray, w: np.ndarray) -> None:
        """Rows [start, stop) of a product rule into pts and w from row 0: the
        whole slabs of one polar node each as one broadcast multiply, a
        partial slab at either end from its own rows."""
        polar, sub, sin_part, lifted = self._factors
        n_sub = sub.size
        i, j = divmod(start, n_sub)
        row = 0
        while start < stop:
            if j == 0 and stop - start >= n_sub:
                m = (stop - start) // n_sub
                count = m * n_sub
                slab = pts[row:row + count].reshape(m, n_sub, self.dim)
                np.multiply(sin_part[i:i + m, None, None], lifted, out=slab)
                slab[:, :, 0] = polar.nodes[i:i + m, None]
                np.multiply(polar.weights[i:i + m, None], sub.weights,
                            out=w[row:row + count].reshape(m, n_sub))
                i += m
            else:
                count = min(n_sub - j, stop - start)
                rows = slice(row, row + count)
                np.multiply(sin_part[i], lifted[j:j + count], out=pts[rows])
                pts[rows, 0] = polar.nodes[i]
                np.multiply(polar.weights[i], sub.weights[j:j + count], out=w[rows])
                i, j = (i + 1, 0) if j + count == n_sub else (i, j + count)
            start += count
            row += count


def sphere_rule(d: int, resolution: int = 64) -> SphereRule:
    """Product quadrature on S^{d-1} for d <= 6.

    resolution counts nodes per one-dimensional factor, so node totals grow
    like resolution^(d-1); a rule above MAX_SPHERE_NODES is rejected before
    anything is allocated.  For d >= 3 the rule keeps its polar factor
    gauss_jacobi_rule(resolution, (d-3)/2) and sphere_rule(d - 1,
    resolution), about resolution^(d-2) nodes, and its node array is built
    only if points or weights is read (SphereRule).
    """
    _check_range("sphere dimension d", d, 1, 6)
    if d > 1:
        _check_range("resolution", resolution, 2, math.inf)
    _check_range(f"node count of sphere_rule({d}, {resolution})", resolution ** (d - 1), 1,
                 MAX_SPHERE_NODES)
    if d == 1:
        return SphereRule(1, np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    if d == 2:
        phi = 2.0 * math.pi * np.arange(resolution) / resolution
        pts = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        w = np.full(resolution, 2.0 * math.pi / resolution)
        return SphereRule(2, pts, w)
    polar = gauss_jacobi_rule(resolution, 0.5 * (d - 3.0))
    return SphereRule._product(polar, sphere_rule(d - 1, resolution))


@dataclass(frozen=True, eq=False)
class HemisphereRule:
    """theta x nu rule for the polar split of S^{p+q-1}: eta = cos(theta) omega + sin(theta) nu.

    theta_weights carry the cos^{p-1} sin^{q-1} surface factor, so summing
    g w_theta w_omega w_nu with any S^{p-1} rule integrates g dS over the
    sphere.  The omega integral is closed (the moments I and Phi of
    biaxial.cauchy), so the rule holds no omega factor.  The arrays are
    read-only, and a rule compares and hashes by identity.
    """

    p: int
    q: int
    theta_nodes: np.ndarray
    theta_weights: np.ndarray
    nu: SphereRule

    def __post_init__(self):
        _read_only(self.theta_nodes, self.theta_weights)


def hemisphere_rule(p: int, q: int, resolution: int = 64) -> HemisphereRule:
    """Tensor rule over [0, pi/2] x S^{q-1} with folded weights."""
    _check_range("p", p, 2, math.inf)
    _check_range("q", q, 2, math.inf)
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
    _check_range("m", m, 2, 6)
    [sides] = _funk_hecke_sides([psi], k, m, *_funk_hecke_rules(m, resolution))
    return sides


def _funk_hecke_rules(m: int, resolution: int):
    return sphere_rule(m, resolution), gauss_jacobi_rule(max(resolution, 48), 0.5 * (m - 3.0))


def _funk_hecke_sides(psis, k: int, m: int, sphere: SphereRule, interval: IntervalRule):
    """Both sides of funk_hecke_check, one (lhs, rhs) pair per psi of psis, on
    the rules of _funk_hecke_rules.  The projections <xi, eta>, the harmonic's
    node values, the Gegenbauer kernel and |S^{m-2}| H_k(xi) are formed once
    for the whole battery.  The node vectors are filled over the blocks of
    the sphere rule, which never builds its node array; each psi's lhs is
    one dot over all N nodes."""
    harmonic, xi = _harmonic(k, m)
    proj, values, weights = np.empty((3, sphere.size))
    for i, (pts, w) in enumerate(sphere.blocks(_ORACLE_BLOCK)):
        rows = slice(i * _ORACLE_BLOCK, i * _ORACLE_BLOCK + w.size)
        proj[rows] = pts @ xi
        values[rows] = harmonic(pts)
        weights[rows] = w
    kernel = gegenbauer_normalized(k, m, interval.nodes)
    scale = sphere_area(m - 1) * float(harmonic(xi[None, :])[0])
    return [(float(np.dot(weights, psi(proj) * values)),
             scale * float(np.dot(interval.weights, psi(interval.nodes) * kernel)))
            for psi in psis]
