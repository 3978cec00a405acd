"""The biaxial benchmark: one command per workload and seed.

    python3 bench/run.py --workload reconstruct --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and from nowhere else, so the command fails
(exit 2, no result) when the sources are missing.

With ``--trace 0`` the command starts SETUP_SAMPLES worker processes one
after another.  Each builds the workload, and its set-up time runs from
just before the process is started until the workload is ready; the last
one then runs items back to back for ``--seconds``.  ``setup_s`` is the
median of the samples, the other end-to-end metrics come from the last
worker.  With ``--trace 1`` one worker runs a fixed list of items
untraced and then traced, and the per-layer metrics come from the traced
pass.  BLAS is pinned to one thread in every worker.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  Run details (tail
percentile, item count, by-construction gaps, environment) are written to
``.bench_out/<workload>-seed<seed>-trace<t>.json`` and the traced run's
spans to ``.bench_out/<workload>-seed<seed>-trace1/spans.npz``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("reconstruct", "series", "cli_verify")  # the keys of workloads.WORKLOADS
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class BenchError(RuntimeError):
    pass


def _worker(args, mode: str, workdir: str, deadline: float) -> dict:
    """Start one worker, wait for it, and return its protocol lines."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--workdir", workdir]
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker did not finish within the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    lines = dict(line.split(" ", 1) for line in out.splitlines() if " " in line)
    if "READY" not in lines or (mode != "setup" and "RESULT" not in lines):
        raise BenchError(f"{mode} worker gave no result")
    report = json.loads(lines["RESULT"]) if "RESULT" in lines else {}
    report["setup_s"] = float(lines["READY"]) - spawned
    return report


def measure(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(ROOT, ".bench_out", name)
    os.makedirs(workdir, exist_ok=True)
    if args.trace:
        report = _worker(args, "trace", workdir, deadline)
        report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()}
        return report
    setups = [_worker(args, "setup", workdir, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    report = _worker(args, "run", workdir, deadline)
    setups.append(report["setup_s"])
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
    metrics.update({k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()})
    report["metrics"] = metrics
    report["setup_samples_s"] = setups
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "biaxial", "__init__.py")):
        print(f"no biaxial sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        report = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for key, metric in report["metrics"].items():
        print(f"{args.workload} {key} = {metric['value']:.6g} {metric['unit']}")
    if "tail_percentile" in report:
        print(f"{args.workload} item_tail_ms is p{report['tail_percentile']:.2f} "
              f"of {report['attempted']} items")
    for key, value in sorted(report["by_construction"].items()):
        print(f"{args.workload} by-construction {key} = {value:.4g} (not gated)")
    for line in report["errors"]:
        print(f"{args.workload} FAILED {line}")
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    detail = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    with open(detail, "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
