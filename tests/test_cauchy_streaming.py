"""The streamed kernel_I_oracle and the cached FullBallCauchy.evaluate
against the one-pass code they replaced, bit for bit."""

import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaxial import cauchy
from biaxial.algebra import BiaxialPoint
from biaxial.cauchy import FullBallCauchy, kernel_I_oracle
from biaxial.fields import constant_field, linear_monogenic_field
from biaxial.planewave import exp_hpw_axial_field
from biaxial.quadrature import sphere_rule
from biaxial.rng import SplitMix64

import one_pass_reference as reference

# sphere_rule(p, res) has res^(p-1) nodes: below, equal to, and not a
# multiple of the default 4,096-node block, per p.
RESOLUTIONS = {2: (64, 4096, 5000), 3: (20, 64, 70), 4: (8, 16, 17), 5: (5, 8, 9)}


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


@settings(max_examples=120, deadline=None)
@given(case=oracle_cases(), block=st.sampled_from([None, 37]))
def test_streamed_oracle_equals_one_pass(case, block):
    x, y, theta, nu, rule = case
    expected = reference.kernel_I_oracle(x, y, theta, nu, rule)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(cauchy, "_NODE_BLOCK", block)
        got = kernel_I_oracle(x, y, theta, nu, rule)
    if y.ndim == 1:
        assert isinstance(got, float)
        assert got.hex() == expected.hex()
    else:
        assert got.shape == (y.shape[0],) and got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("res,block", [(8, 37), (70, None)])
@pytest.mark.parametrize("where", [0, 1, 2, None])
def test_near_singular_node_in_last_partial_block_raises_without_warning(res, block, where):
    # x + y = c w + s nu at the rule's last node w, so that node's distance
    # is exactly 0; every node of the earlier blocks is well away from it.
    p, q, theta = 3, 2, 0.6
    rule = sphere_rule(p, res)
    n = rule.points.shape[0]
    size = block or cauchy._NODE_BLOCK
    assert n % size != 0
    c, s = math.cos(theta), math.sin(theta)
    x = c * rule.points[-1]
    nu = np.array([0.6, 0.8])
    fine = np.array([-0.2, 0.1])
    assert c * np.min(np.linalg.norm(rule.points[:n - n % size] - rule.points[-1], axis=1)) > 0.05
    bad = s * nu
    y = bad if where is None else np.array([bad if i == where else fine for i in range(3)])
    with pytest.raises(ValueError, match="near-singular") as expected:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference.kernel_I_oracle(x, y, theta, nu, rule)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(cauchy, "_NODE_BLOCK", block)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="near-singular") as got:
                kernel_I_oracle(x, y, theta, nu, rule)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("p,q,res", [(2, 2, 28), (3, 2, 10), (2, 3, 10)])
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
        for pt in pts:
            got = oracle.evaluate(pt).coeffs
            assert got.tobytes() == reference.full_ball_evaluate(oracle, pt).coeffs.tobytes()
