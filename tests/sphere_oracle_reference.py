"""The sphere-quadrature oracle of the radialized plane waves as it was
when it formed the complex weighted values and multiplied them by the
node array, which made numpy cast a complex copy of the nodes on every
call.  _sphere_oracle and both integrands are copied unchanged; the tests
hold the real-arithmetic oracle to them.
"""

import cmath

import numpy as np

from biaxial.algebra import BiaxialPoint, Multivector
from biaxial.fields import _unit
from biaxial.quadrature import SphereRule


def _sphere_oracle(pt: BiaxialPoint, s, rule: SphereRule, integrand) -> Multivector:
    """Quadrature of F (t + i s) over t in S^{p-1}, the one oracle of the
    radialized families: integrand maps the nodes' <x, t> and the number
    <y, s> to the weighted values w F."""
    s = _unit(s)
    if rule.dim != pt.p:
        raise ValueError("oracle needs a rule on S^{p-1}")
    zonal = integrand(rule.points @ pt.x, float(np.dot(pt.y, s)))
    x_part = zonal @ rule.points
    y_part = np.sum(zonal) * 1j * s
    return Multivector.vector(pt.dim, np.concatenate([x_part, y_part]))


def radialize_poly_oracle(k: int, pt: BiaxialPoint, s, rule: SphereRule) -> Multivector:
    """Direct sphere quadrature of the radialization integrand."""
    return _sphere_oracle(pt, s, rule, lambda xt, ys: rule.weights * (xt + 1j * ys) ** k)


def fourier_kernel_oracle(pt: BiaxialPoint, s, rule: SphereRule) -> Multivector:
    """Sphere quadrature of exp(<x,t> + i<y,s>) (t + i s) over t in S^{p-1}."""
    # (weights * exp(<x,t>)) * phase: this order fixes the reported rounding.
    return _sphere_oracle(pt, s, rule,
                          lambda xt, ys: rule.weights * np.exp(xt) * cmath.exp(1j * ys))
