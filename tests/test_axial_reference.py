"""The axial families, value_at, boundary_value and lift_axial against the
assembly they replaced (tests/axial_reference.py), bit for bit.

Bytes are compared, so a zero must keep its sign.  The points include
r = 0, x along one axis, y = 0 and sphere nodes with |x| below the 1e-12
on-axis cut.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import axial_reference as ref
from biaxial.algebra import BiaxialPoint, Multivector, embed_vector
from biaxial.fields import AxialField, constant_field, lift_axial, linear_monogenic_field
from biaxial.planewave import exp_hpw_axial_field, fourier_axial_field, poly_hpw_axial_field

SPLITS = ((2, 1), (2, 2), (3, 2), (2, 3), (4, 4), (5, 3))
FAMILIES = ("constant", "constant-complex", "linear", "exp-hpw", "fourier", "poly")


def _pair(name, p, q, s, k):
    """The library field and its reference, built from the same inputs."""
    if name == "constant":
        return constant_field(p, q), ref.constant_field(p, q)
    if name == "constant-complex":
        return constant_field(p, q, 1.0 - 0.5j), ref.constant_field(p, q, 1.0 - 0.5j)
    if name == "linear":
        return linear_monogenic_field(p, q, s), ref.linear_monogenic_field(p, q, s)
    if name == "exp-hpw":
        return exp_hpw_axial_field(p, q, s), ref.exp_hpw_axial_field(p, q, s)
    if name == "fourier":
        return fourier_axial_field(p, q, s), ref.fourier_axial_field(p, q, s)
    return poly_hpw_axial_field(p, q, s, k), ref.poly_hpw_axial_field(p, q, s, k)


def _scalar_only_fields(p, q, s):
    """Fields built from scalar-only callables, as in test_fields: the
    linear field with B scaled wrongly, and with B of the wrong sign."""
    dim = p + q
    a = lambda r, y: Multivector.scalar(dim, float(np.dot(y, s)))
    return [
        AxialField(p, q, A=a, B=lambda r, y: embed_vector(dim, p, (r / (p + 1.0)) * s)),
        AxialField(p, q, A=a, B=lambda r, y: embed_vector(dim, p, -(r / p) * s)),
    ]


def _same(got, want):
    got = got.coeffs if isinstance(got, Multivector) else got
    want = want.coeffs if isinstance(want, Multivector) else want
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


coordinate = st.floats(-1.0, 1.0, allow_subnormal=False)


def _vector(draw, n, scale):
    """A vector of R^n: zero, along one axis, tiny, or general, times scale."""
    kind = draw(st.sampled_from(("zero", "axis", "tiny", "general")))
    v = np.zeros(n)
    if kind == "axis":
        v[draw(st.integers(0, n - 1))] = draw(coordinate)
    elif kind == "tiny":
        v = np.array(draw(st.lists(coordinate, min_size=n, max_size=n))) * 1e-13
    elif kind == "general":
        v = np.array(draw(st.lists(coordinate, min_size=n, max_size=n)))
    return v * scale


@st.composite
def cases(draw):
    p, q = draw(st.sampled_from(SPLITS))
    s = np.array(draw(st.lists(coordinate, min_size=q, max_size=q)))
    s = s / np.linalg.norm(s) if np.linalg.norm(s) > 1e-3 else np.eye(q)[0]
    n = draw(st.integers(1, 5))
    radius = draw(st.floats(0.0, 1.5))
    xs = np.array([_vector(draw, p, radius) for _ in range(n)])
    ys = np.array([_vector(draw, q, 1.0) for _ in range(n)])
    eta = np.hstack([xs, ys])
    eta[np.linalg.norm(eta, axis=1) == 0.0, p] = 1.0
    eta /= np.linalg.norm(eta, axis=1)[:, None]
    return p, q, s, xs, ys, eta


# Signed zeros: at r = 0 and t != 0 the poly B is coef_a * 0 with a
# negative real coef_a, so its scalar blade holds -0.0.
SIGNED_ZEROS = (
    2, 1, np.array([-1.0]), np.array([[0.0, 0.0], [0.0, 0.3], [0.0, 0.0]]),
    np.array([[0.5], [0.0], [0.0]]),
    np.array([[0.0, 0.0, 1.0], [1e-13, 0.0, -1.0], [0.0, -1.0, 0.0]]),
)

# A real Fourier B profile times a phase with a tiny negative imaginary
# part: the product's imaginary part underflows to -0.0 in the array loop,
# which a one-point B must reproduce.
TINY_PHASE = (
    2, 2, np.array([-6.99380443e-243, 1.0]), np.array([[2.23117055e-108, 0.0]]),
    np.array([[1.0, 0.0]]), np.array([[2.23117055e-108, 0.0, 1.0, 0.0]]),
)


@settings(max_examples=120, deadline=None)
@given(case=cases(), name=st.sampled_from(FAMILIES), k=st.integers(0, 12))
@example(case=SIGNED_ZEROS, name="linear", k=0)
@example(case=SIGNED_ZEROS, name="fourier", k=0)
@example(case=SIGNED_ZEROS, name="poly", k=3)
@example(case=TINY_PHASE, name="fourier", k=0)
def test_families_match_the_assembly_they_replaced(case, name, k):
    p, q, s, xs, ys, eta = case
    field, old = _pair(name, p, q, s, k)
    r = np.linalg.norm(xs, axis=1)
    for part, old_part in ((field.A, old.A), (field.B, old.B)):
        _same(part(r, ys), old_part(r, ys))
        for i in range(r.size):
            value = part(float(r[i]), ys[i])
            assert isinstance(value, Multivector)
            _same(value, old_part(float(r[i]), ys[i]))
    for x, y in zip(xs, ys):
        pt = BiaxialPoint(p, q, x, y)
        _same(field.value_at(pt), ref.value_at(old, pt))
    _same(field.boundary_value(eta), ref.boundary_rows(old, eta))
    for node in eta:
        single = field.boundary_value(node)
        assert isinstance(single, Multivector)
        _same(single, ref.boundary_rows(old, node[None, :])[0])


@settings(max_examples=40, deadline=None)
@given(case=cases())
def test_scalar_only_fields_keep_their_value_at(case):
    p, q, s, xs, ys, _ = case
    for field in _scalar_only_fields(p, q, s):
        for x, y in zip(xs, ys):
            pt = BiaxialPoint(p, q, x, y)
            _same(field.value_at(pt), ref.value_at(field, pt))


@settings(max_examples=150, deadline=None)
@given(split=st.sampled_from(SPLITS), data=st.data())
def test_lift_axial_matches_the_per_blade_loop(split, data):
    p, q = split
    size = 1 << (q + 1)
    # Real and imaginary parts side by side, with zero blades and -0.0 parts.
    part = st.sampled_from((0.0, -0.0)) | coordinate
    parts = data.draw(st.lists(part, min_size=2 * size, max_size=2 * size))
    mv = Multivector(q + 1, np.array(parts).view(np.complex128))
    u = _vector(data.draw, p, 1.0)
    _same(lift_axial(mv, u, p, q), ref.lift_axial(mv, u, p, q))
