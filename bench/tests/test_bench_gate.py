import numpy as np
import pytest

import biaxial.planewave as planewave
from worker import Tally, run_fixed, tail_latency
from workloads import OracleMiss, Series, check


def test_check_passes_at_tolerance_and_rejects_above_or_nan():
    check("exact", 1e-6, 1e-6)
    with pytest.raises(OracleMiss):
        check("wrong", 2e-6, 1e-6)
    with pytest.raises(OracleMiss):
        check("nan", float("nan"), 1e-6)


def test_wrong_oracle_and_raised_error_each_count_as_failed(tmp_path):
    series = Series(5, str(tmp_path))
    # Item 0 is p=2: give it the p=2 plane-wave series of another direction,
    # so the closed form misses its oracle.
    s = series.s[2]
    series.planewaves[2] = planewave.exp_hpw_series(2, 2, np.array([s[1], -s[0]]))
    # Item 1 is p=3: a broken CK series makes the item raise.
    series.ck[3] = None
    tally = run_fixed(series, 3)
    assert tally.attempted == 3
    assert tally.failed == 2
    assert tally.pass_frac == pytest.approx(1.0 / 3.0)
    assert "OracleMiss" in tally.errors[0] and tally.errors[0].startswith("item 0")
    assert tally.errors[1].startswith("item 1")


def test_by_construction_gaps_are_recorded_but_never_fail(tmp_path):
    series = Series(5, str(tmp_path))
    # Item 31 is the first finite-difference item of the polynomial family.
    k = series.FD_EVERY * 4 - 1
    assert series.FD_FAMILIES[(k // series.FD_EVERY) % 4] == "poly"
    tally = Tally()
    tally.run(series, k)
    assert tally.failed == 0
    assert "dirac_poly_h0.001" in tally.gaps


def test_tail_latency_keeps_ten_items_beyond():
    values = [float(i) for i in range(1, 101)]
    tail, pct = tail_latency(values)
    assert tail == 90.0
    assert sum(v > tail for v in values) == 10
    assert pct == pytest.approx(90.0)
    assert tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)
