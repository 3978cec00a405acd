"""Real-order special functions used by the closed-form solution formulas.

Gamma, Bessel J and modified Bessel I by power series, Gegenbauer
polynomials, Pochhammer symbols, and the Gauss hypergeometric function
2F1(a, b; 2b; z) with a series branch and a symmetric Euler-integral branch.
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


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to reach the requested tolerance."""


def gamma_fn(x: float) -> float:
    """Gamma function for positive arguments."""
    if x <= 0:
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
    if not 0.0 <= nu <= BESSEL_MAX_ORDER:
        raise ValueError(f"order must lie in [0, {BESSEL_MAX_ORDER}], got {nu}")
    max_arg = BESSEL_J_MAX_ARG if signed else BESSEL_I_MAX_ARG
    if not 0.0 <= z <= max_arg:
        raise ValueError(f"argument must lie in [0, {max_arg}], got {z}")
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
    lam -> 0 limit is exposed through gegenbauer_normalized).
    """
    if not 0 <= k <= 30:
        raise ValueError(f"degree must lie in [0, 30], got {k}")
    if lam <= 0:
        raise ValueError(f"gegenbauer requires lam > 0, got {lam}")
    t = np.asarray(t, dtype=np.float64)
    if np.any(np.abs(t) > 1.0 + 1e-12):
        raise ValueError("argument outside [-1, 1]")
    prev = np.ones_like(t)
    if k == 0:
        return prev if prev.ndim else float(prev)
    cur = 2.0 * lam * t
    for n in range(2, k + 1):
        prev, cur = cur, (2.0 * t * (n + lam - 1.0) * cur - (n + 2.0 * lam - 2.0) * prev) / n
    return cur if cur.ndim else float(cur)


def gegenbauer_normalized(k: int, m: int, t):
    """(k!/(m-2)_k) C_k^{m/2-1}(t), the zonal kernel normalized to 1 at t=1.

    For m = 2 the weight degenerates and the limit is the Chebyshev value
    cos(k arccos t).
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
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

    Series below z = 0.5, Euler-integral quadrature above; this is the
    combination every kernel evaluation uses.
    """
    z = np.asarray(z, dtype=np.float64)
    if np.any(z < 0.0) or np.any(z > HYP2F1_MAX_Z):
        raise ValueError(f"2F1 arguments must lie in [0, {HYP2F1_MAX_Z}]")
    out = np.empty_like(z)
    low = z <= 0.5
    if np.any(low):
        out[low] = _hyp2f1_series(a, b, 2.0 * b, z[low])
    if np.any(~low):
        out[~low] = _hyp2f1_euler(a, b, z[~low])
    return out
