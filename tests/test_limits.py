"""Every documented limit refuses through the one range check, whose message
names the quantity, both bounds and the value; it rejects NaN and admits its
ends."""

import json
import re

import numpy as np
import pytest

from biaxial import cli
from biaxial.algebra import BiaxialPoint
from biaxial.cauchy import (
    _MIN_BOUNDARY_DISTANCE,
    FullBallCauchy,
    KernelParams,
    kernel_I_oracle,
    reconstruct_ab_variants,
)
from biaxial.fields import _unit, beta, constant_field
from biaxial.planewave import exp_coeffs_closed
from biaxial.quadrature import (
    MAX_SPHERE_NODES,
    HemisphereRule,
    SphereRule,
    gauss_jacobi_rule,
    hemisphere_rule,
    sphere_area,
    sphere_rule,
)
from biaxial.special import _check_range, gegenbauer, gegenbauer_normalized, hyp2f1_symmetric

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
    "KernelParams r": (lambda: KernelParams(2, 2, NAN, Y, 0.3, NU),
                       "radius r must lie in [0, inf], got nan"),
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
        f"squared distance to a boundary node must lie in [{_MIN_BOUNDARY_DISTANCE ** 2}, inf], "
        "got nan"),
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


class _UntouchableRule:
    """A rule on S^1 whose nodes and weights raise when read: any node pass fails."""

    dim = 2

    @property
    def points(self):
        raise AssertionError("the oracle touched the nodes")

    weights = points


@pytest.mark.parametrize("thetas, shown", [
    ([2.5, 0.3, 0.6], "2.5"), ([0.3, -0.25, 0.6], "-0.25"), ([0.3, 0.6, NAN], "nan"),
])
def test_kernel_oracle_refuses_a_theta_array_before_any_node_pass(thetas, shown):
    with pytest.raises(ValueError, match=r"^theta must lie in \[0, 1\.57\d*\], got "
                                         + re.escape(shown) + "$"):
        kernel_I_oracle(np.array([0.2, 0.0]), Y, np.array(thetas), NU, _UntouchableRule())


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


def _oracle_at_distance(gap):
    """kernel_I_oracle at theta = 0 with x = (1 - gap) e_1 and y = 0, whose
    nearest node, omega = e_1, lies gap away."""
    return kernel_I_oracle(np.array([1.0 - gap, 0.0]), np.zeros(2), 0.0, NU, sphere_rule(2, 16))


def _full_ball_at_distance(gap):
    """FullBallCauchy.evaluate at x = 0.5 e_1, y = 0 on a one-node rule at
    (0.5 + gap) e_1: the refusal guards any rule, not only unit spheres."""
    rule = SphereRule(4, np.array([[0.5 + gap, 0.0, 0.0, 0.0]]), np.ones(1))
    oracle = FullBallCauchy(constant_field(2, 2).boundary_value, rule)
    return oracle.evaluate(BiaxialPoint(2, 2, np.array([0.5, 0.0]), np.zeros(2)))


DISTANCE = _MIN_BOUNDARY_DISTANCE
# Each limit: a call with an input outside it, the exact refusal, a call
# with NaN in the limited input, and calls at its finite ends.  A squared
# distance is formed from coordinates, so its ends are met within 1e-9.
LIMITS = {
    "sphere_area ndim": (lambda: sphere_area(0),
                         "ambient dimension ndim must lie in [1, inf], got 0",
                         lambda: sphere_area(NAN), [lambda: sphere_area(1)]),
    "gauss_jacobi_rule n": (
        lambda: gauss_jacobi_rule(1001, 0.0), "Jacobi node count n must lie in [1, 1000], got 1001",
        lambda: gauss_jacobi_rule(NAN, 0.0),
        [lambda: gauss_jacobi_rule(1, 0.0), lambda: gauss_jacobi_rule(1000, 0.0)]),
    "sphere_rule resolution": (lambda: sphere_rule(3, 1), "resolution must lie in [2, inf], got 1",
                               lambda: sphere_rule(3, NAN), [lambda: sphere_rule(3, 2)]),
    # On S^1 the node count is the resolution; one node is no product rule's count.
    "sphere_rule node count": (
        lambda: sphere_rule(2, MAX_SPHERE_NODES + 1),
        f"node count of sphere_rule(2, {MAX_SPHERE_NODES + 1}) must lie in "
        f"[1, {MAX_SPHERE_NODES}], got {MAX_SPHERE_NODES + 1}",
        lambda: sphere_rule(2, NAN), [lambda: sphere_rule(2, MAX_SPHERE_NODES)]),
    "SphereRule.blocks n": (lambda: next(sphere_rule(3, 4).blocks(0)),
                            "block rows n must lie in [1, inf], got 0",
                            lambda: next(sphere_rule(3, 4).blocks(NAN)),
                            [lambda: list(sphere_rule(3, 4).blocks(1))]),
    "hemisphere_rule p": (lambda: hemisphere_rule(1, 2, 8), "p must lie in [2, inf], got 1",
                          lambda: hemisphere_rule(NAN, 2, 8), [lambda: hemisphere_rule(2, 3, 8)]),
    "hemisphere_rule q": (lambda: hemisphere_rule(2, 1, 8), "q must lie in [2, inf], got 1",
                          lambda: hemisphere_rule(2, NAN, 8), [lambda: hemisphere_rule(3, 2, 8)]),
    "KernelParams p": (lambda: KernelParams(1, 2, 0.2, Y, 0.3, NU), "p must lie in [2, inf], got 1",
                       lambda: KernelParams(NAN, 2, 0.2, Y, 0.3, NU),
                       [lambda: KernelParams(2, 2, 0.2, Y, 0.3, NU)]),
    "KernelParams q": (lambda: KernelParams(2, 1, 0.2, Y[:1], 0.3, NU[:1]),
                       "q must lie in [2, inf], got 1",
                       lambda: KernelParams(2, NAN, 0.2, Y, 0.3, NU),
                       [lambda: KernelParams(3, 2, 0.2, Y, 0.3, NU)]),
    "KernelParams r": (lambda: KernelParams(2, 2, -0.5, Y, 0.3, NU),
                       "radius r must lie in [0, inf], got -0.5",
                       lambda: KernelParams(2, 2, NAN, Y, 0.3, NU),
                       [lambda: KernelParams(2, 2, 0.0, Y, 0.3, NU)]),
    "kernel_I_oracle distance": (
        lambda: _oracle_at_distance(0.0),
        f"squared distance to a boundary node must lie in [{DISTANCE ** 2}, inf], got 0.0",
        lambda: _oracle_at_distance(NAN), [lambda: _oracle_at_distance(DISTANCE + 1e-9)]),
    "FullBallCauchy.evaluate distance": (
        lambda: _full_ball_at_distance(0.0),
        f"squared distance to a boundary node must lie in [{DISTANCE ** 2}, inf], got 0.0",
        lambda: _full_ball_at_distance(NAN), [lambda: _full_ball_at_distance(DISTANCE + 1e-9)]),
    "beta j": (lambda: beta(0, 3), "j must lie in [1, inf], got 0", lambda: beta(NAN, 3),
               [lambda: beta(1, 3)]),
    "unit direction s": (
        lambda: _unit([1.1, 0.0]), "|s| of the unit vector s must lie in [0.999999999, 1.000000001], "
        "got 1.1", lambda: _unit([NAN, 0.0]),
        [lambda: _unit([1.0 - 1e-9, 0.0]), lambda: _unit([1.0 + 1e-9, 0.0])]),
    "exp_coeffs_closed j": (lambda: exp_coeffs_closed(-1, 2), "j must lie in [0, inf], got -1",
                            lambda: exp_coeffs_closed(NAN, 2), [lambda: exp_coeffs_closed(0, 2)]),
    "gegenbauer_normalized m": (
        lambda: gegenbauer_normalized(2, 1, 0.5), "m must lie in [2, inf], got 1",
        lambda: gegenbauer_normalized(2, NAN, 0.5), [lambda: gegenbauer_normalized(2, 2, 0.5)]),
}


@pytest.mark.parametrize("case", LIMITS)
def test_each_limit_names_itself_refuses_nan_and_admits_its_ends(case):
    refuse, message, nan_call, admitted = LIMITS[case]
    with pytest.raises(ValueError) as refused:
        refuse()
    assert str(refused.value) == message
    with pytest.raises(ValueError, match=r" must lie in \[.*\], got nan$"):
        nan_call()
    for call in admitted:
        call()


@pytest.mark.parametrize("at_distance", [_oracle_at_distance, _full_ball_at_distance])
def test_the_distance_limit_sits_at_the_documented_distance(at_distance):
    at_distance(DISTANCE + 1e-9)
    with pytest.raises(ValueError, match="^squared distance to a boundary node must lie in"):
        at_distance(DISTANCE - 1e-9)


def _run(args, capsys, tmp_path):
    """(exit code, JSON error or None) of one CLI run; argparse's own
    refusals exit 2 with usage text and no JSON."""
    try:
        code = cli.main(args + ["--out", str(tmp_path / "report")])
    except SystemExit as exc:
        capsys.readouterr()
        return exc.code, None
    err = capsys.readouterr().err
    return code, (json.loads(err)["error"] if code == 2 and err.startswith("{") else None)


# Each CLI limit: an argv outside it, the exact refusal, an argv with NaN
# where the input can hold one (the limited counts are products of parsed
# integers), argvs at its finite ends, and the budgets to set first.  A
# budget is set to a count that some argv meets exactly; a count's lower
# end 1 is below every argv's count.
CLI_LIMITS = {
    "--res": (["verify", "algebra", "--res", "7"], "--res must lie in [8, inf], got 7",
              ["verify", "algebra", "--res", "nan"], [["verify", "algebra", "--res", "8"]], {}),
    "kernel suite q": (["verify", "kernel", "--q", "1"], "kernel suite q must lie in [2, inf], got 1",
                       ["verify", "kernel", "--q", "nan"],
                       [["verify", "kernel", "--q", "2", "--res", "8"]], {}),
    "kernel-table q": (["kernel-table", "--q", "1"], "kernel-table q must lie in [2, inf], got 1",
                       ["kernel-table", "--q", "nan"], [["kernel-table", "--q", "2", "--res", "8"]],
                       {}),
    "ck suite J": (["verify", "ck", "--J", "1"], "ck suite J must lie in [2, inf], got 1",
                   ["verify", "ck", "--J", "nan"], [["verify", "ck", "--J", "2"]], {}),
    "--tol": (["kernel-table", "--tol", "-0.5"], "--tol must lie in [0, inf], got -0.5",
              ["kernel-table", "--tol", "nan"], [["kernel-table", "--tol", "0", "--res", "8"]], {}),
    "--num-points": (["reconstruct", "--num-points", "0"],
                     "--num-points must lie in [1, inf], got 0",
                     ["reconstruct", "--num-points", "nan"],
                     [["reconstruct", "--num-points", "1", "--res", "8"]], {}),
    # 216 samples meet the budget; their report cells do not, a separate limit.
    "--grid-r sample count": (["eval", "constant", "--grid-r", "0:1:217"],
                              "--grid-r sample count must lie in [1, 216], got 217",
                              ["eval", "constant", "--grid-r", "0:1:nan"],
                              [["eval", "constant", "--grid-r", "0:1:1"],
                               ["eval", "constant", "--grid-r", "0:1:216"]],
                              {"MAX_REPORT_CELLS": 216}),
    # eval at p = q = 2 writes 4 coordinates and 32 blade parts per point.
    "report cells": (["eval", "constant", "--grid-r", "0:1:7", "--grid-t", "0:1:1"],
                     "report cells must lie in [1, 216], got 252", None,
                     [["eval", "constant", "--grid-r", "0:1:6", "--grid-t", "0:1:1"]],
                     {"MAX_REPORT_CELLS": 216}),
    # 8 x 8 hemisphere nodes and 8^3 ball nodes per point at res 8.
    "reconstruct point x node evaluations": (
        ["reconstruct", "--field", "constant", "--res", "8", "--num-points", "3"],
        "reconstruct point x node evaluations must lie in [1, 1152], got 1728", None,
        [["reconstruct", "--field", "constant", "--res", "8", "--num-points", "2"]],
        {"MAX_RECONSTRUCT_WORK": 1152}),
    # 5 x 5 rows of the 8-node sphere_rule(2, 8).
    "kernel-table row x node evaluations": (
        ["kernel-table", "--res", "8", "--grid-theta", "0:1.5:6"],
        "kernel-table row x node evaluations must lie in [1, 200], got 240", None,
        [["kernel-table", "--res", "8"]], {"MAX_RECONSTRUCT_WORK": 200}),
}


@pytest.mark.parametrize("case", CLI_LIMITS)
def test_each_cli_limit_exits_2_naming_itself_and_admits_its_ends(monkeypatch, capsys, tmp_path,
                                                                   case):
    refused, message, nan_args, admitted, budgets = CLI_LIMITS[case]
    for name, value in budgets.items():
        monkeypatch.setattr(cli, name, value)
    assert _run(refused, capsys, tmp_path) == (2, message)
    if nan_args is not None:
        assert _run(nan_args, capsys, tmp_path)[0] == 2
    for args in admitted:
        code, error = _run(args, capsys, tmp_path)
        assert code != 2 or not error.startswith(case), error
