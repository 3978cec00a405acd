"""One benchmark process: set up one workload, then run its items.

Started by run.py, never by hand.  Modes:

  setup  build the workload, report when it became ready, exit;
  run    the same set-up, then items back to back for --seconds, with
         latencies, correctness and peak RSS;
  trace  a fixed list of items untraced, then the same set-up and items
         again with the tracer installed, for the per-layer metrics.

The process prints protocol lines on stdout (``READY <monotonic>`` and a
final ``RESULT <json>``); run.py turns them into the benchmark's output.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time


def _import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import biaxial

    where = os.path.dirname(os.path.abspath(biaxial.__file__))
    if os.path.commonpath([where, os.path.abspath(src)]) != os.path.abspath(src):
        raise SystemExit(f"biaxial was imported from {where}, not from {src}")


def tail_latency(latencies):
    """Latency at the highest percentile that still has >= 10 items beyond
    it, with that percentile; the maximum (at 100) when there are fewer
    than 11 items."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Tally:
    """Latencies, failures and by-construction gaps of a run of items."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.errors = []
        self.gaps = {}

    def run(self, workload, k: int) -> None:
        t0 = time.perf_counter()
        try:
            gaps = workload.run_item(k)
        except Exception as exc:  # any error fails the item, and the run goes on
            gaps = {}
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"item {k}: {type(exc).__name__}: {exc}")
        self.latencies.append(time.perf_counter() - t0)
        for key, value in gaps.items():
            self.gaps[key] = max(self.gaps.get(key, 0.0), float(value))

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def pass_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def run_timed(workload, seconds: float) -> Tally:
    """Items in order until `seconds` have passed, ending on a whole cycle."""
    tally = Tally()
    start = time.perf_counter()
    k = 0
    while True:
        tally.run(workload, k)
        k += 1
        if k % workload.cycle == 0 and time.perf_counter() - start >= seconds:
            break
    tally.wall = time.perf_counter() - start
    return tally


def run_fixed(workload, count: int, tracer=None) -> Tally:
    tally = Tally()
    start = time.perf_counter()
    for k in range(count):
        if tracer is not None:
            tracer.item = k
        tally.run(workload, k)
    tally.wall = time.perf_counter() - start
    return tally


def clear_caches() -> None:
    """Empty every lru_cache in the package, so a second pass starts as cold
    as a fresh process."""
    for name, module in list(sys.modules.items()):
        if name.startswith("biaxial."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def _emit(tag: str, payload) -> None:
    sys.stdout.write(f"{tag} {payload}\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    _import_package(args.root)
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, args.workdir)
    _emit("READY", repr(time.monotonic()))
    if args.mode == "setup":
        return 0

    result = {"environment": environment()}
    if args.mode == "run":
        tally = run_timed(workload, args.seconds)
        tail, pct = tail_latency(tally.latencies)
        result["metrics"] = {
            "items_per_s": (tally.attempted / tally.wall, "1/s"),
            "item_p50_ms": (1e3 * statistics.median(tally.latencies), "ms"),
            "item_tail_ms": (1e3 * tail, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_frac": (tally.pass_frac, "frac"),
        }
        result["tail_percentile"] = pct
    else:
        from tracing import Tracer, per_layer_metrics

        plain = run_fixed(workload, cls.trace_items)
        clear_caches()
        tracer = Tracer()
        tracer.install()
        try:
            traced_workload = cls(args.seed, args.workdir)
            tracer.start_items()
            tally = run_fixed(traced_workload, cls.trace_items, tracer)
        finally:
            tracer.uninstall()
        overhead = tally.wall / plain.wall - 1.0
        result["metrics"] = per_layer_metrics(tracer, overhead)
        tracer.save(os.path.join(args.workdir, "spans.npz"))
        result["spans"] = len(tracer.span_name)
        tally.failed += plain.failed
        tally.errors = plain.errors + tally.errors
        tally.latencies += plain.latencies
        for key, value in plain.gaps.items():
            tally.gaps[key] = max(tally.gaps.get(key, 0.0), value)
    result.update({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "by_construction": tally.gaps,
    })
    _emit("RESULT", json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
