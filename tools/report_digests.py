"""SHA-256 digests of biaxial reports, for checking that a change keeps
every report byte-identical.

Run from a source checkout with ``python3 tools/report_digests.py``; the
package is imported from that checkout's ``src``.  Each run of
``biaxial.cli.main`` happens in-process and prints one line

    <sha256>  <exit code>  <argv>

where the digest covers the report file and whatever the command wrote
to stderr.  Running the script on two checkouts and diffing the outputs
shows every report that changed.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from biaxial import cli  # noqa: E402

SEEDS = (1, 2024, 20260)
FORMATS = ("json", "csv")


def commands():
    """The benchmark's cli_verify commands, verify cauchy at three axis
    splits, the default reconstruction at 3 and at 100 points and those of
    the fourier-kernel and poly fields; eval of every field is among the
    former.  At 3 points a reconstruction's time goes to building the
    full-ball oracle and the first sweep; at 100 it goes to the per-point
    sweep and oracle evaluation."""
    out = []
    for p, q in ((2, 2), (3, 2), (4, 4)):
        for suite in ("algebra", "funkhecke", "vekua", "dirac", "kernel", "planewave", "ck"):
            out.append(["verify", suite, "--p", str(p), "--q", str(q)])
    out.append(["verify", "funkhecke", "--p", "5", "--q", "2"])
    out.extend(["eval", field] for field in cli.FIELDS)
    out.append(["kernel-table"])
    for p, q in ((2, 2), (3, 2), (2, 3)):
        out.append(["verify", "cauchy", "--p", str(p), "--q", str(q)])
    out.append(["reconstruct", "--num-points", "3"])
    out.append(["reconstruct", "--num-points", "100"])
    for field in ("fourier-kernel", "poly"):
        out.append(["reconstruct", "--field", field, "--num-points", "3"])
    return out


def digest(argv):
    """Run cli.main(argv) writing to a temporary file; return the SHA-256
    of the report bytes followed by the stderr text, and the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(list(argv) + ["--out", path])
        report = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                report = fh.read()
    return hashlib.sha256(report + err.getvalue().encode("utf-8")).hexdigest(), code


def main():
    for seed in SEEDS:
        for fmt in FORMATS:
            for argv in commands():
                argv = argv + ["--seed", str(seed), "--format", fmt]
                sha, code = digest(argv)
                print(f"{sha}  {code}  {' '.join(argv)}", flush=True)


if __name__ == "__main__":
    main()
