"""The axial-field assembly that biaxial replaced, kept verbatim.

Each of the five families wrote two array closures, a_rows and b_rows,
and batched_part wrapped them for one point.  value_at assembled
A + (x/|x|) B with a full geometric product, and the boundary rows with
batch_vector_mv.  The factories here build library AxialField objects
from those closures; value_at and boundary_rows take the field as their
first argument.  lift_axial added one Multivector.blade, times the
embedded u for the e-carrying blades, per nonzero reduced blade.  The
tests hold the library to this module bit for bit.
"""

from typing import Callable

import numpy as np

from biaxial.algebra import BiaxialPoint, Multivector, embed_vector
from biaxial.fields import AxialField, _unit
from biaxial.planewave import (
    MAX_POLY_DEGREE,
    _exp_profile,
    _fourier_profile,
    _poly_radial_coeffs,
)
from probe_reference import batch_vector_mv


def value_at(field: AxialField, pt: BiaxialPoint) -> Multivector:
    if pt.p != field.p or pt.q != field.q:
        raise ValueError("point and field axis dimensions differ")
    a = field.A(pt.r, pt.y)
    if pt.r == 0.0:
        return a
    return a + pt.embed_unit_x() * field.B(pt.r, pt.y)


def boundary_rows(field: AxialField, eta: np.ndarray) -> np.ndarray:
    p, dim = field.p, field.p + field.q
    if eta.ndim != 2 or eta.shape[1] != dim:
        raise ValueError(f"boundary points must have shape (N, {dim}), got {eta.shape}")
    x, y = eta[:, :p], eta[:, p:]
    r = np.linalg.norm(x, axis=1)
    off_axis = r >= 1e-12
    unit = np.zeros_like(eta)
    unit[off_axis, :p] = x[off_axis] / r[off_axis, None]
    rows = field.A(r, y)
    rows += batch_vector_mv(unit, field.B(r, y), dim)
    return rows


def batched_part(dim: int, rows: Callable) -> Callable:
    """Adapt an array-form A or B to the AxialField contract.

    rows maps r of shape (N,) and y of shape (N, q) to (N, 2^dim)
    coefficients.  The result passes arrays through and turns a scalar r
    into a one-row call whose row it returns as a Multivector.
    """

    def part(r, y):
        r = np.asarray(r, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if r.ndim == 0:
            return Multivector(dim, rows(r[None], y[None, :])[0])
        return rows(r, y)

    return part


def _scalar_rows(dim: int, values) -> np.ndarray:
    """(N, 2^dim) coefficients with values in the scalar blade, zeros elsewhere."""
    values = np.asarray(values)
    out = np.zeros((values.size, 1 << dim), dtype=np.complex128)
    out[:, 0] = values
    return out


def _on_radii(profile: Callable, r: np.ndarray) -> np.ndarray:
    """Evaluate a scalar radial profile once per distinct radius in r.

    profile maps a float to a number; the result has one entry per entry
    of r.  Hemisphere nodes share few radii, so the scalar special
    functions run once per radius rather than once per node.
    """
    if r.size == 1:
        # A one-point call: the sort in np.unique would cost more than it saves.
        return np.array([profile(float(r[0]))])
    radii, inverse = np.unique(r, return_inverse=True)
    values = np.array([profile(float(rad)) for rad in radii])
    return values[inverse.reshape(-1)]


def constant_field(p: int, q: int, value=1.0) -> AxialField:
    dim = p + q

    def a_rows(r, y):
        return _scalar_rows(dim, np.full(r.size, value))

    def b_rows(r, y):
        return np.zeros((r.size, 1 << dim), dtype=np.complex128)

    return AxialField(p, q, batched_part(dim, a_rows), batched_part(dim, b_rows))


def linear_monogenic_field(p: int, q: int, s) -> AxialField:
    """The Dirac-null polynomial <y, s> + (1/p) x s in axial form."""
    s = _unit(s)
    dim = p + q
    s_coeffs = embed_vector(dim, p, s).coeffs

    def a_rows(r, y):
        return _scalar_rows(dim, y @ s)

    def b_rows(r, y):
        return (r / p)[:, None] * s_coeffs

    return AxialField(p, q, batched_part(dim, a_rows), batched_part(dim, b_rows))


def exp_hpw_axial_field(p: int, q: int, s) -> AxialField:
    """The exponential plane wave as an axial A/B pair."""
    s = _unit(s)
    dim = p + q
    s_coeffs = embed_vector(dim, p, s).coeffs

    def a_rows(r, y):
        c = _on_radii(lambda rad: _exp_profile(p, rad, 0), r)
        return _scalar_rows(dim, c * np.exp(y @ s))

    def b_rows(r, y):
        d = _on_radii(lambda rad: _exp_profile(p, rad, 1), r)
        return (d * np.exp(y @ s))[:, None] * s_coeffs

    return AxialField(p, q, batched_part(dim, a_rows), batched_part(dim, b_rows))


def poly_hpw_axial_field(p: int, q: int, s, k: int) -> AxialField:
    """Radialized polynomial wave as an axial pair.

    A(r, y) = i kappa coef_b s and B(r, y) = kappa coef_a r, so that
    A + (x/|x|) B reassembles the closed form.
    """
    if not 0 <= k <= MAX_POLY_DEGREE:
        raise ValueError(f"degree must lie in [0, {MAX_POLY_DEGREE}], got {k}")
    s = _unit(s)
    dim = p + q
    s_coeffs = embed_vector(dim, p, s).coeffs

    def a_rows(r, y):
        _, coef_b = _poly_radial_coeffs(k, p, r, y @ s)
        return (1j * coef_b)[:, None] * s_coeffs

    def b_rows(r, y):
        coef_a, _ = _poly_radial_coeffs(k, p, r, y @ s)
        return _scalar_rows(dim, coef_a * r)

    return AxialField(p, q, batched_part(dim, a_rows), batched_part(dim, b_rows))


def fourier_axial_field(p: int, q: int, s) -> AxialField:
    """Fourier-kernel wave as an axial pair: A = (i-part) s, B scalar."""
    s = _unit(s)
    dim = p + q
    s_coeffs = embed_vector(dim, p, s).coeffs

    def a_rows(r, y):
        cs = _on_radii(lambda rad: _fourier_profile(p, rad, 0), r)
        return (cs * np.exp(1j * (y @ s)))[:, None] * s_coeffs

    def b_rows(r, y):
        be = _on_radii(lambda rad: _fourier_profile(p, rad, 1), r)
        return _scalar_rows(dim, be * np.exp(1j * (y @ s)))

    return AxialField(p, q, batched_part(dim, a_rows), batched_part(dim, b_rows))


def lift_axial(mv: Multivector, u: np.ndarray, p: int, q: int) -> Multivector:
    """Map a reduced-picture value into the full algebra at x-direction u.

    The axial generator e becomes the embedded unit vector u on the x
    generators; y generators shift onto e_{p+1}..e_{p+q}.  This is an
    algebra map because u^2 = -1 and u anticommutes with the y block.
    """
    if mv.dim != q + 1:
        raise ValueError(f"expected a ({q + 1})-generator value, got dim {mv.dim}")
    dim = p + q
    u = np.asarray(u, dtype=np.float64)
    u_mv = embed_vector(dim, 0, u)
    out = Multivector.zero(dim)
    for mask in np.flatnonzero(mv.coeffs):
        mask = int(mask)
        big = Multivector.blade(dim, (mask >> 1) << p, mv.coeffs[mask])
        out = out + (u_mv * big if mask & 1 else big)
    return out
