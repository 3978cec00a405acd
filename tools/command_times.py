"""Wall time of each biaxial CLI command, in-process.

Run from a source checkout with ``python3 tools/command_times.py``; the
package is imported from that checkout's ``src``.  Every command of
``report_digests.commands()`` runs through ``biaxial.cli.main`` at
``--seed 1 --format json``, writing its report to a temporary file.  One
warm-up round goes first; then each command keeps its best of 3 rounds.
The script prints one line per command and then the sum:

    <ms>  <argv>
    <ms>  total

Arguments are argv prefixes, one per argument, that select the commands
to time: ``python3 tools/command_times.py "verify cauchy" kernel-table``
times the three ``verify cauchy`` commands and ``kernel-table``.  A prefix
matches whole words, and one that matches no command exits 2.

Running it on two checkouts gives a per-command before/after table.  Pin
the BLAS threads (``OPENBLAS_NUM_THREADS=1``) for comparable numbers.
The best of 3 rounds removes noise within one process, not between
processes: on a 2-vCPU VM, two runs on the same checkout differed by up
to 2x per command (``verify dirac --p 2 --q 2`` 38.6 then 19.7 ms) and
1,426 against 1,208 ms in total.  So one run per checkout cannot show a
change smaller than that; alternate several runs per side and compare
their medians.
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


def select(commands, prefixes):
    """The commands whose argv starts with the words of some prefix, in
    their order; every command when there is no prefix.  Raises ValueError
    naming a prefix that matches none."""
    heads = [prefix.split() for prefix in prefixes]
    for head in heads:
        if not any(argv[:len(head)] == head for argv in commands):
            raise ValueError(f"no command starts with {' '.join(head)!r}")
    return [argv for argv in commands
            if not heads or any(argv[:len(head)] == head for head in heads)]


def main(prefixes=()):
    try:
        commands = select(report_digests.commands(), prefixes)
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    rows = best_times(commands)
    for ms, argv in rows:
        print(f"{ms:9.1f}  {' '.join(argv)}", flush=True)
    print(f"{sum(ms for ms, _ in rows):9.1f}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
