"""Reference implementations of the algebra, kernel and Funk-Hecke suites.

These are the per-sample loops the batched library code replaced, kept
unchanged: the scalar SplitMix64.uniform_array, the per-pair geometric
product (product_reference's blade loop, with the vector constructor and
interior/exterior split it used), the kernel suite's one oracle call per
y, funk_hecke_check building its rules on every call for one psi, and the
three verify suites written against them.  The kernel suite calls the
library's kernel_I_oracle one theta and one y at a time, so it holds the
CLI's one call per r, over every theta and a stack of y's, to single
calls.  The tests hold biaxial.cli's kernel and Funk-Hecke suites to these
references bit for bit, and its algebra suite, whose products now go
through the matrix representation, to rounding.
"""

import math

import numpy as np

from biaxial import algebra, rng
from biaxial.cauchy import KernelParams, kernel_I_closed, kernel_I_oracle
from biaxial.cli import _PSI_BATTERY, ConfigError, RunConfig, _check, _rel
from biaxial.quadrature import _harmonic, gauss_jacobi_rule, sphere_area, sphere_rule
from biaxial.special import gegenbauer_normalized
from product_reference import _vector_product_parts, product


class SplitMix64(rng.SplitMix64):
    """The generator with its one-draw-at-a-time uniform_array."""

    def uniform_array(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(n)])


class Multivector(algebra.Multivector):
    """The library Multivector with the blade-loop product."""

    @classmethod
    def vector(cls, dim: int, components) -> "Multivector":
        """Grade-1 element sum_i components[i] e_{i+1}."""
        comps = np.asarray(components, dtype=np.complex128)
        if comps.shape != (dim,):
            raise ValueError(f"expected {dim} vector components, got shape {comps.shape}")
        c = np.zeros(1 << dim, dtype=np.complex128)
        for i in range(dim):
            c[1 << i] = comps[i]
        return cls._wrap(dim, c)

    def __mul__(self, other):
        if isinstance(other, algebra.Multivector):
            return Multivector._wrap(self.dim, product(self, other).coeffs)
        return Multivector._wrap(self.dim, self.coeffs * complex(other))


class BiaxialPoint(algebra.BiaxialPoint):
    """The library BiaxialPoint embedding into the reference Multivector."""

    def embed(self) -> Multivector:
        return Multivector.vector(self.dim, np.concatenate([self.x, self.y]))


def funk_hecke_check(psi, k: int, m: int, resolution: int = 24):
    """Both sides of the zonal-integral reduction, rules built per call."""
    if not 2 <= m <= 6:
        raise ValueError(f"need 2 <= m <= 6, got {m}")
    sphere = sphere_rule(m, resolution)
    interval = gauss_jacobi_rule(max(resolution, 48), 0.5 * (m - 3.0))
    harmonic, xi = _harmonic(k, m)
    proj = sphere.points @ xi
    lhs = float(np.dot(sphere.weights, psi(proj) * harmonic(sphere.points)))
    kernel = gegenbauer_normalized(k, m, interval.nodes)
    moment = float(np.dot(interval.weights, psi(interval.nodes) * kernel))
    h_xi = float(harmonic(xi[None, :])[0])
    rhs = sphere_area(m - 1) * h_xi * moment
    return lhs, rhs


def _suite_algebra(cfg: RunConfig):
    rng = SplitMix64(cfg.seed)
    dim = cfg.p + cfg.q
    checks = []
    worst = 0.0
    for _ in range(200):
        u = rng.uniform_array(dim, -1, 1)
        v = rng.uniform_array(dim, -1, 1)
        anti = Multivector.vector(dim, u) * Multivector.vector(dim, v) \
            + Multivector.vector(dim, v) * Multivector.vector(dim, u)
        expected = Multivector.scalar(dim, -2.0 * float(np.dot(u, v)))
        worst = max(worst, _rel(anti, expected))
    checks.append(_check("anticommutation", worst, 1e-12))
    worst = 0.0
    for _ in range(100):
        a, b, c = (Multivector(dim, rng.complex_coeffs(1 << dim)) for _ in range(3))
        worst = max(worst, _rel((a * b) * c, a * (b * c)))
    checks.append(_check("associativity", worst, 1e-12))
    worst = 0.0
    for _ in range(200):
        x = Multivector.vector(dim, rng.complex_coeffs(dim))
        a = Multivector(dim, rng.complex_coeffs(1 << dim))
        worst = max(worst, _rel(Multivector(dim, np.add(*_vector_product_parts(x, a))), x * a))
    checks.append(_check("interior_plus_exterior", worst, 1e-12))
    worst = 0.0
    for _ in range(100):
        x = rng.uniform_array(cfg.p, -1, 1)
        y = rng.uniform_array(cfg.q, -1, 1)
        v = BiaxialPoint(cfg.p, cfg.q, x, y).embed()
        sq = v * v
        expected = Multivector.scalar(dim, -(float(np.dot(x, x)) + float(np.dot(y, y))))
        worst = max(worst, _rel(sq, expected))
    checks.append(_check("embedded_vector_square", worst, 1e-12))
    return checks


def _funkhecke_resolution(m: int, res: int) -> int:
    # Product-rule node counts grow like res^(m-1); cap the high dims.
    return min(res, {2: res, 3: 48, 4: 32, 5: 20}[m])


def _suite_funkhecke(cfg: RunConfig):
    m = cfg.p
    if m < 2 or m > 5:
        raise ConfigError("funkhecke suite needs 2 <= p <= 5")
    res = _funkhecke_resolution(m, cfg.res)
    checks = []
    for k in (0, 1, 2):
        for name, psi in _PSI_BATTERY:
            lhs, rhs = funk_hecke_check(psi, k, m, resolution=res)
            err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
            checks.append(_check(f"funkhecke_m{m}_k{k}_{name}", err, 1e-8))
    return checks


def _kernel_grid(cfg: RunConfig):
    nu = np.zeros(cfg.q)
    nu[0] = 1.0
    yhat = np.zeros(cfg.q)
    yhat[-1] = 1.0
    for r in np.linspace(0.0, 0.55, 5):
        for theta in np.linspace(0.0, 0.5 * math.pi, 5):
            for ylen in (0.0, 0.2, 0.4):
                yield float(r), float(theta), ylen * yhat, nu


def _kernel_pair(cfg: RunConfig, oracle, rule, r: float, theta: float, y, nu):
    """The node's KernelParams, closed kernel moment I and its S^{p-1}
    quadrature oracle at x = r e_1, one y per call."""
    kp = KernelParams(cfg.p, cfg.q, r, y, theta, nu)
    closed = kernel_I_closed(kp)
    x = np.zeros(cfg.p)
    x[0] = r
    return kp, closed, oracle(x, y, theta, nu, rule)


def _suite_kernel(cfg: RunConfig):
    if cfg.q < 2:
        raise ConfigError("kernel suite needs q >= 2")
    rule = sphere_rule(cfg.p, min(cfg.res, 64))
    worst = 0.0
    anchor = 0.0
    for r, theta, y, nu in _kernel_grid(cfg):
        kp, closed, oracle = _kernel_pair(cfg, kernel_I_oracle, rule, r, theta, y, nu)
        worst = max(worst, abs(closed - oracle) / max(abs(closed), abs(oracle)))
        if r == 0.0:
            expected = sphere_area(cfg.p) * kp.tau ** (-0.5 * (cfg.p + cfg.q))
            anchor = max(anchor, abs(closed - expected) / expected)
    return [
        _check(f"kernel_closed_vs_oracle_p{cfg.p}_q{cfg.q}", worst, 1e-8),
        _check("kernel_r0_equals_sphere_measure", anchor, 1e-12),
    ]


SUITES = {
    "algebra": _suite_algebra,
    "funkhecke": _suite_funkhecke,
    "kernel": _suite_kernel,
}
