"""The sphere_rule builder that biaxial.quadrature replaced, kept verbatim.

It forms the product nodes from np.repeat/np.tile copies of the polar and
sub-sphere rules; the tests require the in-place builder to give the same
points and weights bit for bit.
"""

import math

import numpy as np

from biaxial.quadrature import SphereRule, gauss_jacobi_rule


def sphere_rule_repeat_tile(d, resolution=64):
    if d == 1:
        return SphereRule(1, np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    if d == 2:
        phi = 2.0 * math.pi * np.arange(resolution) / resolution
        pts = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        w = np.full(resolution, 2.0 * math.pi / resolution)
        return SphereRule(2, pts, w)
    polar = gauss_jacobi_rule(resolution, 0.5 * (d - 3.0))
    sub = sphere_rule_repeat_tile(d - 1, resolution)
    u = polar.nodes
    sin_part = np.sqrt(1.0 - u ** 2)
    pts = np.empty((u.size * sub.points.shape[0], d))
    pts[:, 0] = np.repeat(u, sub.points.shape[0])
    pts[:, 1:] = np.repeat(sin_part, sub.points.shape[0])[:, None] * np.tile(
        sub.points, (u.size, 1)
    )
    w = np.repeat(polar.weights, sub.weights.size) * np.tile(sub.weights, u.size)
    return SphereRule(d, pts, w)
