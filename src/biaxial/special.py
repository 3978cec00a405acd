"""Real-order special functions used by the closed-form solution formulas.

Gamma, Bessel J and modified Bessel I by power series, Gegenbauer
polynomials, Pochhammer symbols, and the Gauss hypergeometric function
2F1(a, b; 2b; z).  Up to z = HYP2F1_SERIES_MAX_Z (0.8) the 2F1 is the
series of its quadratic transformation (DLMF 15.8.13) in w^2, with
w = z/(2 - z); above it, a symmetric Euler-integral quadrature.  Over the
32 kernel pairs its relative error against mpmath is at most 1.3e-15 on
[0, 0.5], 2.2e-15 on (0.5, 0.8], 5.1e-14 on (0.8, 0.99] and 8.7e-13 up
to z = 0.999.
"""

import math

import numpy as np

_TERM_EPS = 1e-16
_MAX_TERMS = 20000

BESSEL_MAX_ORDER = 10.0
# The alternating J series cancels: against mpmath its absolute error is
# below 1e-12 up to z = 12 and about 1e-9 at z = 20.  The I series does not.
BESSEL_J_MAX_ARG = 12.0
BESSEL_I_MAX_ARG = 50.0
# Relative error of hyp2f1_symmetric against mpmath over the kernel triples
# (a, b), (a+1, b+1): at most 8.7e-13 up to z = 0.999, 7.8e-9 at z = 0.9999.
HYP2F1_MAX_Z = 0.999
# Split between hyp2f1_symmetric's branches.  At z = 0.8 the series in
# w^2 = 4/9 stops after about 50 terms and the Euler rule needs 72 nodes.
# Of the splits 0.5 and 0.7 to 0.8 in steps of 0.025, 0.8 took the least
# CPU time on the 2F1 calls of the bench reconstruct workload.
HYP2F1_SERIES_MAX_Z = 0.8
# Where 1 - |t| is at most this, gegenbauer sums its terminating 2F1: the
# recurrence misses 1e-14 C_k(1) for 1 - t up to 4.2e-4 (m = 3 to 5, k >= 21).
_GEGENBAUER_EDGE = 2.0 ** -7


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to reach the requested tolerance."""


def _check_range(name: str, value, lo, hi) -> None:
    """Raise ValueError naming the limit unless every value (a number or an
    array) lies in [lo, hi]; NaN never does.  A number takes one chained
    comparison, as callers sit on per-point paths."""
    if isinstance(value, (int, float)):
        if lo <= value <= hi:
            return
    else:
        value = np.asarray(value)
        inside = (value >= lo) & (value <= hi)
        if inside.all():
            return
        value = value[~inside].flat[0]
    raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")


def gamma_fn(x: float) -> float:
    """Gamma function for positive arguments."""
    if not x > 0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


def pochhammer(a: float, k: int) -> float:
    """Rising factorial a (a+1) ... (a+k-1); the empty product is 1."""
    if k < 0 or int(k) != k:
        raise ValueError(f"pochhammer order must be a nonnegative integer, got {k}")
    out = 1.0
    for i in range(int(k)):
        out *= a + i
    return out


def _bessel_series(nu: float, z: float, signed: bool) -> float:
    _check_range("order", nu, 0, BESSEL_MAX_ORDER)
    _check_range("argument", z, 0, BESSEL_J_MAX_ARG if signed else BESSEL_I_MAX_ARG)
    if z == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    quarter = 0.25 * z * z
    term = math.exp(nu * math.log(0.5 * z) - math.lgamma(nu + 1.0))
    total = term
    j = 0
    while j < _MAX_TERMS:
        j += 1
        term *= quarter / (j * (nu + j))
        total += -term if (signed and j % 2 == 1) else term
        # Terms shrink monotonically once j exceeds z/2; only stop there, and
        # relative to the sum, so values far below 1 keep their digits.  A
        # term that underflowed to 0 changes nothing, hence <=.
        if j * (nu + j) > quarter and term <= _TERM_EPS * abs(total):
            return total
    raise ConvergenceError(f"Bessel series did not converge for nu={nu}, z={z}")


def bessel_j(nu: float, z: float) -> float:
    """Bessel function of the first kind by its defining power series,
    for 0 <= z <= BESSEL_J_MAX_ARG."""
    return _bessel_series(nu, z, signed=True)


def bessel_i(nu: float, z: float) -> float:
    """Modified Bessel function: the same series without alternating signs,
    for 0 <= z <= BESSEL_I_MAX_ARG."""
    return _bessel_series(nu, z, signed=False)


def gegenbauer(k: int, lam: float, t):
    """Gegenbauer polynomial C_k^lam(t) by the three-term recurrence.

    Accepts scalar or array t in [-1, 1]; lam must be positive (the
    lam -> 0 limit is exposed through gegenbauer_normalized).  The
    recurrence rounds each product by t like a relative change of t, and
    C_k' is largest near t = +-1, so within _GEGENBAUER_EDGE of +-1 the
    terminating sum C_k^lam(t) = C_k^lam(1) 2F1(-k, k + 2 lam; lam + 1/2;
    (1 - t)/2) (DLMF 18.5.7, 18.7.1) serves, with C_k(-t) = (-1)^k C_k(t).
    For lam = m/2 - 1, m in [3, 8], the absolute error against mpmath is below
    1e-14 C_k^lam(1), the largest |C_k^lam| on [-1, 1] (measured: 3.7e-15;
    4.6e-16 within _GEGENBAUER_EDGE of +-1).
    """
    _check_range("degree", k, 0, 30)
    if not lam > 0:
        raise ValueError(f"gegenbauer requires lam > 0, got {lam}")
    t = np.asarray(t, dtype=np.float64)
    _check_range("argument", t, -1.0 - 1e-12, 1.0 + 1e-12)
    prev = np.ones_like(t)
    if k == 0:
        return prev if prev.ndim else float(prev)
    cur = 2.0 * lam * t
    for n in range(2, k + 1):
        prev, cur = cur, (2.0 * t * (n + lam - 1.0) * cur - (n + 2.0 * lam - 2.0) * prev) / n
    edge = np.abs(t) >= 1.0 - _GEGENBAUER_EDGE
    if edge.any():
        near = t[edge]
        x = 0.5 * (1.0 - np.abs(near))
        term = np.ones_like(x)
        total = term.copy()
        for j in range(k):
            term *= (j - k) * (j + k + 2.0 * lam) / ((j + lam + 0.5) * (j + 1.0))
            term *= x
            total += term
        total *= pochhammer(2.0 * lam, k) / math.factorial(k)
        cur = np.asarray(cur)  # a 0-d t leaves a numpy scalar
        cur[edge] = np.where(near < 0, (-1) ** k * total, total)
    return cur if cur.ndim else float(cur)


def gegenbauer_normalized(k: int, m: int, t):
    """(k!/(m-2)_k) C_k^{m/2-1}(t), the zonal kernel normalized to 1 at t=1.

    For m = 2 the weight degenerates and the limit is the Chebyshev value
    cos(k arccos t).  For m in [2, 8] the absolute error against mpmath is
    below 5e-14 (measured: 1.3e-14, from the arccos at m = 2, k = 30).
    """
    _check_range("m", m, 2, math.inf)
    if m == 2:
        t = np.asarray(t, dtype=np.float64)
        out = np.cos(k * np.arccos(np.clip(t, -1.0, 1.0)))
        return out if out.ndim else float(out)
    factor = math.factorial(k) / pochhammer(m - 2.0, k)
    return factor * gegenbauer(k, 0.5 * m - 1.0, t)


def _hyp2f1_series(a: float, b: float, c: float, z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    term = np.ones_like(z)
    total = term.copy()
    if not z.size:
        return total
    # For the kernel's positive series term/total grows with z, so the largest
    # z converges last: while that one element has not passed, the whole-array
    # test cannot pass either and is skipped.  It alone decides the return, so
    # the stopping term is the same for any z.
    probe = int(np.argmax(z))
    for n in range(_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0))
        term *= z
        total += term
        if not abs(term.item(probe)) < _TERM_EPS * max(1.0, abs(total.item(probe))):
            continue
        if np.all(np.abs(term) < _TERM_EPS * np.maximum(1.0, np.abs(total))):
            return total
    raise ConvergenceError(f"2F1 series stalled at z_max={float(np.max(z))}")


def _hyp2f1_quadratic(a: float, b: float, z) -> np.ndarray:
    # 2F1(a, b; 2b; z) through its quadratic transformation (DLMF 15.8.13):
    # the series runs on w^2 with w = z/(2 - z), which at z = 0.5 is 1/9.
    z = np.asarray(z, dtype=np.float64)
    w = z / (2.0 - z)
    return (1.0 - 0.5 * z) ** (-a) * _hyp2f1_series(0.5 * a, 0.5 * a + 0.5, b + 0.5, w * w)


def _hyp2f1_euler(a: float, b: float, z) -> np.ndarray:
    # Symmetric Euler integral of 2F1(a, b; 2b; z) for z < 1, with the
    # interval weight (1 - t^2)^(b-1); singular endpoints (b < 1) are fine
    # for Gauss-Jacobi.
    from .quadrature import gauss_jacobi_rule

    z = np.asarray(z, dtype=np.float64)
    w = z / (2.0 - z)
    wmax = float(np.max(np.abs(w))) if w.size else 0.0
    # Integrand has a pole at t = 1/w; pick the node count from the
    # Bernstein ellipse through it so accuracy stays near 1e-13.
    inv_w = 1.0 / max(wmax, 1e-6)
    rho = inv_w + math.sqrt(inv_w * inv_w - 1.0)
    n = int(min(768, max(48, math.ceil(30.0 / math.log10(rho)))))
    rule = gauss_jacobi_rule(n, b - 1.0)
    kernel = (1.0 - w[..., None] * rule.nodes) ** (-a)
    integral = kernel @ rule.weights
    const = math.exp(math.lgamma(2.0 * b) - 2.0 * math.lgamma(b)) / 2.0 ** (2.0 * b - 1.0)
    return const * (1.0 - 0.5 * z) ** (-a) * integral


def hyp2f1_symmetric(a: float, b: float, z) -> np.ndarray:
    """Vectorized 2F1(a, b; 2b; z) over an array of z in [0, HYP2F1_MAX_Z].

    Up to z = HYP2F1_SERIES_MAX_Z, the series of the quadratic
    transformation (DLMF 15.8.13)

      2F1(a, b; 2b; z) = (1 - z/2)^(-a) 2F1(a/2, a/2 + 1/2; b + 1/2; w^2)

    with w = z/(2 - z); Euler-integral quadrature above.  This is the
    combination every kernel evaluation uses.  Relative error against
    mpmath over the kernel pairs (a, b), (a+1, b+1): at most 1.3e-15 on
    [0, 0.5], 2.2e-15 on (0.5, 0.8], 5.1e-14 on (0.8, 0.99] and 8.7e-13
    up to 0.999.
    """
    z = np.asarray(z, dtype=np.float64)
    _check_range("2F1 argument z", z, 0, HYP2F1_MAX_Z)
    out = np.empty_like(z)
    low = z <= HYP2F1_SERIES_MAX_Z
    if np.any(low):
        out[low] = _hyp2f1_quadratic(a, b, z[low])
    if np.any(~low):
        out[~low] = _hyp2f1_euler(a, b, z[~low])
    return out
