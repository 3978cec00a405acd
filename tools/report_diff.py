"""Report values that moved between two source checkouts.

Usage: ``python3 tools/report_diff.py BASE_ROOT HEAD_ROOT``

Runs the ``report_digests.commands()`` set in JSON for each of its seeds,
once per checkout, in one subprocess that imports that checkout's ``src``.
It prints one line per moved check,

    <argv>  <check name>  <before> -> <after>  <pass flag>

and, for each table whose cells moved, the largest absolute cell change
and the number of cells whose zero changed sign.  Changed exit codes,
error messages, columns or other report fields get a line each.  The
exit status is 0 whatever moved, so the digests stay the gate.
"""

import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent


def _report_digests():
    spec = importlib.util.spec_from_file_location("report_digests", TOOLS / "report_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def argvs() -> list:
    """Every command of report_digests in JSON, for each of its seeds."""
    digests = _report_digests()
    return [argv + ["--seed", str(seed), "--format", "json"]
            for seed in digests.SEEDS for argv in digests.commands()]


def collect(root, commands) -> dict:
    """Run each argv through root's biaxial.cli.main in this process.

    Returns {argv joined by spaces: {"code", "stderr", "report"}} with the
    report parsed from JSON, or None when the command wrote none.
    """
    sys.path.insert(0, str(Path(root).resolve() / "src"))
    from biaxial import cli

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(list(argv) + ["--out", path])
            report = None
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    report = json.load(fh)
                os.unlink(path)
            out[" ".join(argv)] = {"code": code, "stderr": err.getvalue(), "report": report}
    return out


def _collect_in_subprocess(root, commands) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--collect", str(root)],
        input=json.dumps(commands), capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def _moved(a, b) -> bool:
    # repr tells -0.0 from 0.0 and compares NaN with itself, as report bytes do.
    return repr(a) != repr(b)


def _flag(a: bool, b: bool) -> str:
    return json.dumps(b) if a == b else f"{json.dumps(a)} -> {json.dumps(b)}"


def _diff_checks(key: str, base: list, head: list) -> list:
    before = {c["name"]: c for c in base}
    after = {c["name"]: c for c in head}
    lines = [f"{key}  {name}  only before" for name in before if name not in after]
    lines += [f"{key}  {name}  only after" for name in after if name not in before]
    for name, b in before.items():
        h = after.get(name)
        if h is not None and (_moved(b["measured"], h["measured"]) or b["pass"] != h["pass"]):
            lines.append(f"{key}  {name}  {b['measured']!r} -> {h['measured']!r}  "
                         f"{_flag(b['pass'], h['pass'])}")
    return lines


def _diff_rows(key: str, base: list, head: list) -> list:
    if [len(row) for row in base] != [len(row) for row in head]:
        return [f"{key}  rows  shape changed"]
    cells = [(a, b) for ra, rb in zip(base, head) for a, b in zip(ra, rb) if _moved(a, b)]
    if not cells:
        return []
    numeric = [(a, b) for a, b in cells
               if isinstance(a, (int, float)) and isinstance(b, (int, float))]
    largest = max((abs(b - a) for a, b in numeric), default=0.0)
    flips = sum(1 for a, b in numeric
                if a == 0 and b == 0 and math.copysign(1.0, a) != math.copysign(1.0, b))
    return [f"{key}  table  {len(cells)} cells moved, largest |change| {largest!r}, "
            f"{flips} zero signs flipped"]


def diff_runs(key: str, base: dict, head: dict) -> list:
    """Lines describing how one command's head run differs from its base run."""
    lines = []
    if base["code"] != head["code"]:
        lines.append(f"{key}  exit code  {base['code']} -> {head['code']}")
    if base["stderr"] != head["stderr"]:
        lines.append(f"{key}  stderr  {base['stderr'].strip()!r} -> {head['stderr'].strip()!r}")
    b, h = base["report"] or {}, head["report"] or {}
    for field in sorted(set(b) | set(h)):
        if field == "checks" and field in b and field in h:
            lines += _diff_checks(key, b[field], h[field])
        elif field == "rows" and field in b and field in h:
            lines += _diff_rows(key, b[field], h[field])
        elif b.get(field) != h.get(field):
            lines.append(f"{key}  {field}  changed")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2 and args[0] == "--collect":
        json.dump(collect(args[1], json.load(sys.stdin)), sys.stdout)
        return 0
    if len(args) != 2:
        sys.stderr.write(__doc__)
        return 2
    commands = argvs()
    base, head = (_collect_in_subprocess(root, commands) for root in args)
    lines = [line for key in base for line in diff_runs(key, base[key], head[key])]
    print("\n".join(lines) if lines else f"No value moved in {len(base)} reports.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
