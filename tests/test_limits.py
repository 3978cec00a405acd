"""Every documented limit rejects NaN, and the one range check admits its ends."""

import re

import numpy as np
import pytest

from biaxial.algebra import BiaxialPoint
from biaxial.cauchy import FullBallCauchy, KernelParams, kernel_I_oracle, reconstruct_ab_variants
from biaxial.fields import constant_field
from biaxial.quadrature import HemisphereRule, gauss_jacobi_rule, hemisphere_rule, sphere_rule
from biaxial.special import _check_range, gegenbauer, hyp2f1_symmetric

NAN = float("nan")
Y = np.array([0.1, 0.2])
NU = np.array([1.0, 0.0])


def _nan_point():
    return BiaxialPoint(2, 2, np.array([NAN, 0.0]), np.zeros(2))


def _rule_with_one_nan_theta():
    rule = hemisphere_rule(2, 2, 8)
    theta = rule.theta_nodes.copy()
    theta[3] = NAN
    return HemisphereRule(2, 2, theta, rule.theta_weights.copy(), rule.nu)


NAN_CASES = {
    "hyp2f1_symmetric z": (lambda: hyp2f1_symmetric(2.0, 0.5, [NAN]),
                           "2F1 argument z must lie in [0, 0.999], got nan"),
    "gegenbauer t": (lambda: gegenbauer(2, 0.5, NAN), "argument must lie in"),
    "gauss_jacobi_rule alpha": (lambda: gauss_jacobi_rule(4, NAN), "must exceed -1, got nan"),
    "KernelParams r": (lambda: KernelParams(2, 2, NAN, Y, 0.3, NU), "need r >= 0, got nan"),
    "KernelParams nu": (lambda: KernelParams(2, 2, 0.2, Y, 0.3, np.array([1.0, NAN])),
                        "unit vector nu must lie in"),
    "reconstruct_ab_variants point": (
        lambda: reconstruct_ab_variants(constant_field(2, 2), _nan_point(),
                                        hemisphere_rule(2, 2, 8)),
        "coordinate x[0] must be finite, got nan"),
    "FullBallCauchy.evaluate point": (
        lambda: FullBallCauchy(constant_field(2, 2).boundary_value,
                               sphere_rule(4, 8)).evaluate(_nan_point()),
        "coordinate x[0] must be finite, got nan"),
    "kernel_I_oracle y": (
        lambda: kernel_I_oracle(np.array([0.2, 0.0]), np.array([NAN, 0.0]), 0.3, NU,
                                sphere_rule(2, 16)),
        "near-singular"),
    "reconstruct_ab_variants theta": (
        lambda: reconstruct_ab_variants(constant_field(2, 2),
                                        BiaxialPoint(2, 2, np.array([0.2, 0.0]), Y),
                                        _rule_with_one_nan_theta()),
        "theta must lie in"),
}


@pytest.mark.parametrize("case", NAN_CASES)
def test_nan_inside_a_documented_limit_raises_naming_it(case):
    call, message = NAN_CASES[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


ORACLE_NODE_CASES = {
    "nu longer than y": ((np.array([0.1]), 0.3, np.array([0.6, 0.8, 0.0])),
                         "nu must have the shape (1,) of y's last axis, got (3,)"),
    "|nu| = 2": ((Y, 0.3, np.array([2.0, 0.0])), "|nu| of the unit vector nu must lie in"),
    "theta past pi/2": ((Y, 2.5, NU), "theta must lie in [0, 1.57"),
}


@pytest.mark.parametrize("case", ORACLE_NODE_CASES)
def test_kernel_oracle_refuses_the_nodes_kernel_params_refuses(case):
    (y, theta, nu), message = ORACLE_NODE_CASES[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        kernel_I_oracle(np.array([0.2, 0.0]), y, theta, nu, sphere_rule(2, 16))
    if nu.shape == y.shape:
        with pytest.raises(ValueError, match=re.escape(message)):
            KernelParams(2, 2, 0.2, y, theta, nu)


@pytest.mark.parametrize("value", [0, 1.0, np.float64(0.5), np.array([0.0, 0.5, 1.0]),
                                   np.array(1.0), np.array([], dtype=float)])
def test_check_range_admits_both_ends(value):
    _check_range("v", value, 0, 1.0)


@pytest.mark.parametrize("value, shown", [
    (NAN, "nan"), (-1e-300, "-1e-300"), (1.5, "1.5"),
    (np.array([0.0, 1.0, NAN, 2.0]), "nan"), (np.array([[0.5, 1.0 + 2e-16]]), "1.0000000000000002"),
])
def test_check_range_names_the_limit_and_the_first_value_outside(value, shown):
    with pytest.raises(ValueError, match=re.escape(f"v must lie in [0, 1.0], got {shown}")):
        _check_range("v", value, 0, 1.0)

