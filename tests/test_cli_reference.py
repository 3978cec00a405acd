"""The batched verify suites against the per-sample loops they replaced.

cli_reference.py holds the former algebra, kernel and Funk-Hecke suites
with the scalar generator, the per-pair product, one oracle call per y and
the per-call Funk-Hecke rules.  Every kernel and Funk-Hecke value must come
out bit for bit, so those reports stay byte-identical.  The algebra suite
measures relative errors of products; the library's general product now
goes through the matrix representation and the reference's through the
blade loop, so its values are held within 1e-14 of the reference, the
rounding of unit-scale products, with names, tolerances and pass flags
exact.  algebra_suite_reference.py holds the algebra suite that wrapped
every draw and product row in a Multivector and took one _rel per pair;
the array samplers must give its values bit for bit.
"""

import pytest

import algebra_suite_reference
import cli_reference as ref
from biaxial import cli
from biaxial.rng import SplitMix64

CASES = [(suite, p, q) for suite in ("algebra", "kernel", "funkhecke")
         for p, q in ((2, 2), (3, 2), (4, 4))] + [("funkhecke", 5, 2)]


def bits(checks):
    """Checks with every float replaced by its exact hex form."""
    return [{key: value.hex() if isinstance(value, float) else value
             for key, value in check.items()} for check in checks]


@pytest.mark.parametrize("seed", [1, 2024])
@pytest.mark.parametrize("suite,p,q", CASES)
def test_suite_matches_per_sample_reference(suite, p, q, seed):
    argv = ["verify", suite, "--p", str(p), "--q", str(q), "--seed", str(seed)]
    cfg = cli._build_config(cli.build_parser().parse_args(argv))
    rows = cli._SUITE_RUNNERS[suite](cfg, SplitMix64(cfg.seed))
    got = [cli._check(*row) for row in rows]
    want = ref.SUITES[suite](cfg)
    if suite != "algebra":
        assert bits(got) == bits(want)
        return
    assert [{**c, "measured": None} for c in got] == [{**c, "measured": None} for c in want]
    for g, w in zip(got, want):
        assert abs(g["measured"] - w["measured"]) <= 1e-14


@pytest.mark.parametrize("seed", [1, 2024])
@pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (4, 4), (2, 3), (5, 3), (7, 1)])
def test_algebra_suite_matches_per_pair_reference_bit_for_bit(p, q, seed):
    argv = ["verify", "algebra", "--p", str(p), "--q", str(q), "--seed", str(seed)]
    cfg = cli._build_config(cli.build_parser().parse_args(argv))
    got = [cli._check(*row) for row in cli._suite_algebra(cfg, SplitMix64(cfg.seed))]
    want = algebra_suite_reference._suite_algebra(cfg, SplitMix64(cfg.seed))
    assert bits(got) == bits([cli._check(*row) for row in want])
