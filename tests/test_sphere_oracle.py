"""The plane-wave sphere oracles against the complex-arithmetic code they
replaced (sphere_oracle_reference.py), and their working memory.

The oracles now multiply only real arrays by the nodes and apply the
Fourier phase to the p sums, so they agree with the reference to rounding.
They walk the rule in blocks, so their memory does not grow with its size.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphere_oracle_reference as ref
from biaxial.algebra import BiaxialPoint
from biaxial.planewave import fourier_kernel_oracle, radialize_poly_oracle
from biaxial.cauchy import kernel_I_oracle
from biaxial.quadrature import _ORACLE_BLOCK, sphere_rule

# Two resolutions per sphere dimension p; node counts stay below 4,100.
RESOLUTIONS = {2: (16, 64), 3: (8, 24), 4: (6, 16), 5: (4, 8)}

FAMILIES = {
    "fourier": (lambda k, pt, s, rule: fourier_kernel_oracle(pt, s, rule),
                lambda k, pt, s, rule: ref.fourier_kernel_oracle(pt, s, rule)),
    "poly": (radialize_poly_oracle, ref.radialize_poly_oracle),
}


@functools.lru_cache(maxsize=None)
def _rule(p, res):
    return sphere_rule(p, res)


def _unit_vector(draw, n):
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    norm = float(np.linalg.norm(v))
    if norm < 1e-3:
        v, norm = np.eye(n)[0], 1.0
    return v / norm


@st.composite
def cases(draw):
    p = draw(st.sampled_from(sorted(RESOLUTIONS)))
    q = draw(st.integers(1, 8 - p))
    x = _unit_vector(draw, p) * draw(st.floats(0.0, 2.0))
    y = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=q, max_size=q)))
    res = draw(st.sampled_from(RESOLUTIONS[p]))
    return BiaxialPoint(p, q, x, y), _unit_vector(draw, q), _rule(p, res)


@settings(max_examples=150, deadline=None)
@given(case=cases(), name=st.sampled_from(sorted(FAMILIES)), k=st.integers(0, 6))
def test_oracles_match_the_complex_arithmetic_code(case, name, k):
    pt, s, rule = case
    new, old = FAMILIES[name]
    want = old(k, pt, s, rule)
    got = new(k, pt, s, rule)
    assert (got - want).norm_inf <= 1e-14 * max(want.norm_inf, 1.0)


def _peak_bytes(call):
    call()  # warm: cached Jacobi factors and first-call allocations stay out
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The complex-arithmetic oracles peaked at 10 x 8N bytes for both families:
# the complex weighted values and a complex copy of the (N, 4) node array.
@pytest.mark.parametrize("call, budget", [
    (lambda pt, s, rule: fourier_kernel_oracle(pt, s, rule), 2),
    (lambda pt, s, rule: radialize_poly_oracle(3, pt, s, rule), 6),
], ids=["fourier", "poly-k3"])
def test_oracle_working_memory_stays_within_a_few_node_vectors(call, budget):
    rule = _rule(4, 48)
    n = rule.weights.size
    pt = BiaxialPoint(4, 3, np.array([0.5, -0.3, 0.2, 0.1]), np.array([0.2, -0.4, 0.1]))
    s = np.array([0.6, 0.8, 0.0])
    peak = _peak_bytes(lambda: call(pt, s, rule))
    assert peak <= budget * 8 * n, peak / (8 * n)


# One walk's (block, 4) node and weight buffers; reading the rule's node
# array instead would hold 5 x 8 bytes per node.
BLOCK_BYTES = 5 * 8 * _ORACLE_BLOCK


@pytest.mark.parametrize("call, res", [
    (lambda rule: fourier_kernel_oracle(
        BiaxialPoint(4, 3, np.array([0.5, -0.3, 0.2, 0.1]), np.array([0.2, -0.4, 0.1])),
        np.array([0.6, 0.8, 0.0]), rule), 96),
    (lambda rule: kernel_I_oracle(np.array([0.3, 0.0, 0.0, 0.0]),
                                  np.outer((0.0, 0.2, 0.4), np.eye(4)[-1]),
                                  np.linspace(0.0, 0.5 * np.pi, 5), np.eye(4)[0], rule), 64),
], ids=["fourier-res96", "kernel-res64"])
def test_oracle_peak_is_a_few_blocks_whatever_the_rule_size(call, res):
    # The node arrays of sphere_rule(4, 64) and (4, 96) take 10.5 and
    # 35.4 MB; four blocks take 2.6 MB.
    rule = sphere_rule(4, res)
    assert 5 * 8 * rule.size > 4 * BLOCK_BYTES
    peak = _peak_bytes(lambda: call(rule))
    assert peak <= 4 * BLOCK_BYTES, peak / BLOCK_BYTES
