"""Wall time of each biaxial CLI command, in-process.

Run from a source checkout with ``python3 tools/command_times.py``; the
package is imported from that checkout's ``src``.  Every command of
``report_digests.commands()`` runs through ``biaxial.cli.main`` at
``--seed 1 --format json``, writing its report to a temporary file.  One
warm-up round goes first; then each command keeps its best of 3 rounds.
The script prints one line per command and then the sum:

    <ms>  <MB>  <argv>
    <ms>  <MB>  total

MB is the process's memory high-water mark (``ru_maxrss``) right after the
command's warm-up run, and on the total line the mark at the end.  The mark
only rises, so the command at which it reaches its final value is the one
that sets the peak of a process running them all, as the benchmark's
``cli_verify`` workload does.  It is a running mark, not the command's own
peak: it also depends on the heap that the commands before it left, so two
checkouts can end a few MB apart with no command's own peak moved.  Compare
the MB column only between runs of the same command subset, and to get one
command's own peak, pass only its prefix (``"verify planewave --p 4"``).

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
import resource
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


def peak_rss_mb():
    """The process's memory high-water mark in MB (ru_maxrss is in KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def best_times(commands, rounds=ROUNDS):
    """[(best ms, peak MB, argv)] per command: one warm-up round, then the
    best of `rounds` rounds, each round running every command once in
    order.  Peak MB is peak_rss_mb() right after the command's warm-up run."""
    argvs = [list(argv) + ["--seed", "1", "--format", "json"] for argv in commands]
    best = [math.inf] * len(argvs)
    peaks = [0.0] * len(argvs)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report")
        for round_ in range(rounds + 1):
            for i, argv in enumerate(argvs):
                ms = _run_ms(argv, out)
                if round_:
                    best[i] = min(best[i], ms)
                else:
                    peaks[i] = peak_rss_mb()
    return list(zip(best, peaks, argvs))


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
    for ms, mb, argv in rows:
        print(f"{ms:9.1f}  {mb:7.1f}  {' '.join(argv)}", flush=True)
    print(f"{sum(ms for ms, _, _ in rows):9.1f}  {peak_rss_mb():7.1f}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
