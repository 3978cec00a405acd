"""The node-block kernel_I_oracle against the one-pass code it replaced and
the live-column FullBallCauchy.evaluate against the complex products it
replaced, both to rounding."""

import math
import re
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biaxial.algebra import BiaxialPoint
from biaxial.cauchy import BALL_RADIUS_MAX, _MIN_BOUNDARY_DISTANCE, FullBallCauchy, kernel_I_oracle
from biaxial.fields import constant_field, linear_monogenic_field
from biaxial.planewave import exp_hpw_axial_field
from biaxial.quadrature import _ORACLE_BLOCK, sphere_area, sphere_rule
from biaxial.rng import SplitMix64

import one_pass_reference as reference
import probe_reference
import product_reference

# sphere_rule(p, res) has res^(p-1) nodes: a coarse, a medium and a fine
# rule per p, up to 5,000 nodes, and for p = 3 a rule of 22,500 nodes that
# fills one oracle block and part of a second.
RESOLUTIONS = {2: (64, 4096, 5000), 3: (20, 64, 70, 150), 4: (8, 16, 17), 5: (5, 8, 9)}


@lru_cache(maxsize=None)
def _rule(p, res):
    return sphere_rule(p, res)


def _unit(v):
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 1e-3 else np.eye(v.size)[0]


@st.composite
def oracle_cases(draw):
    p = draw(st.integers(2, 5))
    q = draw(st.integers(2, 4))
    res = draw(st.sampled_from(RESOLUTIONS[p]))
    unit = st.floats(-1.0, 1.0)
    x = draw(st.floats(0.0, 0.55)) * _unit(np.array(draw(st.lists(unit, min_size=p, max_size=p))))
    nu = _unit(np.array(draw(st.lists(unit, min_size=q, max_size=q))))
    k = draw(st.integers(0, 4))  # 0: one y of shape (q,)
    ys = np.array(draw(st.lists(st.floats(-0.15, 0.15), min_size=max(k, 1) * q,
                                max_size=max(k, 1) * q))).reshape(-1, q)
    theta = draw(st.floats(0.0, 0.5 * math.pi))
    return x, ys[0] if k == 0 else ys, theta, nu, _rule(p, res)


def test_the_largest_rule_ends_in_a_partial_oracle_block():
    n = _rule(3, 150).weights.size
    assert _ORACLE_BLOCK < n < 2 * _ORACLE_BLOCK


@settings(max_examples=120, deadline=None)
@given(case=oracle_cases())
@example(case=(np.array([0.3, -0.2, 0.1]), np.array([[0.1, -0.05], [0.0, 0.15], [-0.1, 0.0]]),
               0.7, np.array([0.6, 0.8]), _rule(3, 150)))
@example(case=(np.array([0.0, 0.5, 0.0]), np.array([0.05, 0.1]), 1.2, np.array([0.0, 1.0]),
               _rule(3, 150)))
def test_streamed_oracle_equals_one_pass(case):
    # The oracle expands |x - c omega|^2 = |x|^2 + c^2 - 2c <x, omega>, so
    # it meets the reference's direct squares to rounding (below 4e-15
    # relative over 3,000 random cases of this domain), not bit for bit.
    x, y, theta, nu, rule = case
    expected = reference.kernel_I_oracle(x, y, theta, nu, rule)
    got = kernel_I_oracle(x, y, theta, nu, rule)
    if y.ndim == 1:
        assert isinstance(got, float)
    else:
        assert got.shape == (y.shape[0],) and got.dtype == np.float64
        singles = [kernel_I_oracle(x, row, theta, nu, rule) for row in y]
        assert got.tobytes() == np.array(singles).tobytes()
    assert np.all(np.abs(np.subtract(got, expected)) <= 1e-13 * np.abs(expected))


@pytest.mark.parametrize("res,hit", [(8, -1), (70, -1), (150, 0), (150, -1)],
                         ids=["8", "70", "150-first", "150-last"])
@pytest.mark.parametrize("where", [0, 1, 2, None])
def test_exact_hit_node_raises_named_error_without_warning(res, hit, where):
    # x + y = c w + s nu at the rule's first or last node w, so that node's
    # distance is exactly 0; it is the only node at distance 0.  At res 150
    # every node closer than the refused distance lies in the hit's block:
    # the first block, or the last, partial one.
    p, q, theta = 3, 2, 0.6
    rule = sphere_rule(p, res)
    c, s = math.cos(theta), math.sin(theta)
    x = c * rule.points[hit]
    nu = np.array([0.6, 0.8])
    fine = np.array([-0.2, 0.1])
    dist = c * np.linalg.norm(rule.points - rule.points[hit], axis=1)
    assert np.count_nonzero(dist == 0.0) == 1
    near_blocks = np.flatnonzero(dist < 0.05) // _ORACLE_BLOCK
    assert np.all(near_blocks == (rule.weights.size - 1 if hit else 0) // _ORACLE_BLOCK)
    bad = s * nu
    y = bad if where is None else np.array([bad if i == where else fine for i in range(3)])
    with pytest.raises(ValueError, match="near-singular"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference.kernel_I_oracle(x, y, theta, nu, rule)
    # The reference's wording is its own; the oracle names the refused
    # limit and the hit's squared distance, 0 to rounding.
    near = (re.escape("squared distance to a boundary node must lie in "
                      f"[{_MIN_BOUNDARY_DISTANCE ** 2}, inf], got ") + r"(\S+)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{near}$") as got:
            kernel_I_oracle(x, y, theta, nu, rule)
    assert abs(float(re.fullmatch(near, str(got.value))[1])) < 1e-14


@pytest.mark.parametrize("p,q,res", [(2, 2, 28), (3, 2, 10), (2, 3, 10), (4, 2, 6)])
def test_full_ball_evaluate_equals_the_norm_based_pass(p, q, res):
    rule = sphere_rule(p + q, res)
    s = np.eye(q)[0]
    rng = SplitMix64(11)
    pts = []
    while len(pts) < 4:
        xy = rng.uniform_array(p + q, -0.6, 0.6)
        if float(np.linalg.norm(xy)) <= 0.85:
            pts.append(BiaxialPoint(p, q, xy[:p], xy[p:]))
    for field in (constant_field(p, q), linear_monogenic_field(p, q, s),
                  exp_hpw_axial_field(p, q, s)):
        oracle = FullBallCauchy(field.boundary_value, rule)
        f = np.asarray(field.boundary_value(rule.points), dtype=np.complex128)
        for pt in pts:
            got = oracle.evaluate(pt).coeffs
            # The one-pass reference and the row-reduce pass with the
            # full-column gather, as they were.  Both multiply the complex
            # block; the live real columns round apart from that product.
            for ref in (reference.full_ball_evaluate(oracle, pt, f),
                        probe_reference.full_ball_evaluate(oracle, pt, f)):
                assert float(np.max(np.abs(got - ref.coeffs))) <= 1e-13 * max(1.0, ref.norm_inf)


def _full_ball_long_double(rule, f, z):
    """The full-ball quadrature sum of the complex boundary block f at z,
    formed in long double from direct squared distances: the rule, f and z
    are the float64 inputs of FullBallCauchy.evaluate, and only the sum's
    rounding differs."""
    ld = np.longdouble
    dim = rule.dim
    eta = rule.points.astype(ld)
    dist2 = np.sum((z.astype(ld) - eta) ** 2, axis=1)
    scale = rule.weights.astype(ld) / (dist2 ** (dim // 2) * np.sqrt(dist2) ** (dim % 2))
    rows = np.vstack([eta.T, np.sum(eta * eta, axis=1)]) * scale
    view = f.view(np.float64)
    live = np.flatnonzero(view.any(axis=0))
    moments = np.zeros((dim + 1, view.shape[1]), dtype=ld)
    moments[:, live] = rows @ view[:, live].astype(ld)
    # (dim + 1, 2^dim, 2): each moment's blade coefficients, real and imaginary.
    moments = moments.reshape(dim + 1, -1, 2)
    sign = product_reference._blade_tables(dim)[0]
    blades = np.arange(1 << dim)

    def left(i, c):  # e_i c
        src = blades ^ (1 << i)
        return sign[1 << i][src][:, None] * c[src]

    eta_f = sum(left(i, moments[i]) for i in range(dim))
    total = sum(z[j] * left(j, eta_f) for j in range(dim)) + moments[dim]
    total = (total / ld(sphere_area(dim))).astype(np.float64)
    return total[:, 0] + 1j * total[:, 1]


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended long double")
@pytest.mark.parametrize("p,q,res", [(2, 2, 28), (3, 2, 16), (2, 3, 16)])
def test_full_ball_evaluate_at_the_edge_of_the_ball(p, q, res):
    # (|z|^2 + |eta|^2) - 2 <z, eta> cancels most where z nears a node: here
    # |x + y| = BALL_RADIUS_MAX along 16 node directions spread over the
    # rule, 0.1 from the node.  The arbiter is the same quadrature sum in
    # long double; the float64 one-pass reference is itself up to 0.75 of
    # the bound away from it there.
    rule = sphere_rule(p + q, res)
    s = np.eye(q)[0]
    pts = []
    for k in np.linspace(0, rule.size - 1, 16).astype(int):
        eta = rule.points[k]
        z = BALL_RADIUS_MAX * eta / np.linalg.norm(eta)
        while True:  # |x+y| as the interior check forms it, at most BALL_RADIUS_MAX
            pt = BiaxialPoint(p, q, z[:p], z[p:])
            radius = math.sqrt(pt.r * pt.r + float(np.dot(pt.y, pt.y)))
            if radius <= BALL_RADIUS_MAX:
                break
            z = np.nextafter(z, 0.0)
        assert radius > BALL_RADIUS_MAX - 1e-15
        pts.append(pt)
    for field in (constant_field(p, q), linear_monogenic_field(p, q, s),
                  exp_hpw_axial_field(p, q, s)):
        oracle = FullBallCauchy(field.boundary_value, rule)
        f = np.asarray(field.boundary_value(rule.points), dtype=np.complex128)
        for pt in pts:
            got = oracle.evaluate(pt).coeffs
            ref = _full_ball_long_double(rule, f, np.concatenate([pt.x, pt.y]))
            assert float(np.max(np.abs(got - ref))) <= 1e-13 * max(1.0, float(np.max(np.abs(ref))))


@pytest.mark.parametrize("p,q,res", [(2, 2, 28), (2, 3, 16)])
def test_full_ball_evaluate_holds_no_row_block_temporary(p, q, res):
    # With L live columns and N nodes, one evaluation holds the distances,
    # the ladder's work row and then the scaled (L, N) block: never an
    # (m + 1, N) temporary, which would exceed (L + 2) rows of N floats.
    rule = sphere_rule(p + q, res)
    s = np.eye(q)[0]
    pt = BiaxialPoint(p, q, np.full(p, 0.2), np.full(q, 0.15))
    for field in (constant_field(p, q), linear_monogenic_field(p, q, s),
                  exp_hpw_axial_field(p, q, s)):
        oracle = FullBallCauchy(field.boundary_value, rule)
        assert oracle._rows.flags.c_contiguous and oracle._cols[1].T.flags.c_contiguous
        oracle.evaluate(pt)
        tracemalloc.start()
        try:
            oracle.evaluate(pt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        live = oracle._cols[0].size
        assert peak <= (live + 2) * 8 * rule.size + 64 * 1024, (live, peak)
