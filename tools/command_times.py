"""Wall time of each biaxial CLI command, in-process.

Run from a source checkout with ``python3 tools/command_times.py``; the
package is imported from that checkout's ``src``.  Every command of
``report_digests.commands()`` runs through ``biaxial.cli.main`` at
``--seed 1 --format json``, writing its report to a temporary file.  One
warm-up round goes first; then each command keeps its best of 3 rounds.
The script prints one line per command and then the sum:

    <ms>  <argv>
    <ms>  total

Running it on two checkouts gives a per-command before/after table.  Pin
the BLAS threads (``OPENBLAS_NUM_THREADS=1``) for comparable numbers.
"""

import contextlib
import io
import math
import os
import sys
import tempfile
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

import report_digests  # noqa: E402
from report_digests import cli  # noqa: E402

ROUNDS = 3


def _run_ms(argv, out):
    with contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        cli.main(argv + ["--out", out])
        return 1e3 * (time.perf_counter() - start)


def best_times(commands, rounds=ROUNDS):
    """[(best ms, argv)] per command: one warm-up round, then the best of
    `rounds` rounds, each round running every command once in order."""
    argvs = [list(argv) + ["--seed", "1", "--format", "json"] for argv in commands]
    best = [math.inf] * len(argvs)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report")
        for round_ in range(rounds + 1):
            for i, argv in enumerate(argvs):
                ms = _run_ms(argv, out)
                if round_:
                    best[i] = min(best[i], ms)
    return list(zip(best, argvs))


def main():
    rows = best_times(report_digests.commands())
    for ms, argv in rows:
        print(f"{ms:9.1f}  {' '.join(argv)}", flush=True)
    print(f"{sum(ms for ms, _ in rows):9.1f}  total")


if __name__ == "__main__":
    main()
