"""Two traced runs of the same workload and seed give identical counts.

Each run is the full benchmark command in its own processes, as a user
would start it, so this takes about a minute and a half.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", ["series", "cli_verify", "reconstruct"])
def test_per_layer_counts_repeat_exactly(workload):
    first = _traced(workload, 17)
    second = _traced(workload, 17)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = [m["name"] for m in json.load(fh)["per_layer"]]
    assert sorted(first) == sorted(listed)
    counts = [name for name in listed
              if first[name]["unit"] != "s" and name != "trace.overhead_frac"]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
