"""Outside-in call tracing for the benchmark's traced run.

The tracer wraps the public functions and methods of each biaxial layer
from the benchmark's side, without touching the package: every public
name is rebound in the module that defines it and in every package module
that copied it with ``from .x import name``.  Each call records one span
(name, start, end, parent span, item id) in flat arrays kept in memory,
and a few wrappers also bump counters derived from their arguments.
``per_layer_metrics`` turns spans and counters into the per-layer numbers
that BENCHMARK.json lists.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans, so it equals the
layer's total time minus the time its calls spend in other layers.  A
layer's total time sums only its outermost spans (those with no ancestor
in the same layer), so recursion is not counted twice.
"""

import dataclasses
import functools
import importlib
import inspect
import os
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("algebra", "special", "quadrature", "fields", "planewave", "cauchy", "cli")
SETUP_ITEM = -1

# Private methods that carry a counted event; all other underscore names
# stay unwrapped.
_TRACED_DUNDERS = {
    "Multivector": ("__mul__",),
    "KernelParams": ("__post_init__",),
    "FullBallCauchy": ("__init__",),
}

def _out_path(argv):
    argv = list(argv or ())
    for i, arg in enumerate(argv[:-1]):
        if arg == "--out":
            return argv[i + 1]
    return None


def _hook_product(tracer, args, result, parent):
    if isinstance(args[1], type(args[0])):
        tracer.bump("algebra.products")


def _hook_mv_product(tracer, args, result, parent):
    tracer.bump("algebra.products")


def _hook_batch(tracer, args, result, parent):
    tracer.bump("algebra.batch_rows", len(args[0]))


def _hook_hyp2f1(tracer, args, result, parent):
    z = np.asarray(args[2])
    tracer.bump("special.hyp2f1.calls")
    tracer.bump("special.hyp2f1.z", z.size)
    tracer.bump("special.hyp2f1.euler_z", int(np.count_nonzero(z > 0.5)))


def _hook_bessel(tracer, args, result, parent):
    tracer.bump("special.bessel.calls")


def _hook_jacobi(tracer, args, result, parent):
    n = int(args[0])
    if parent == "special.hyp2f1_symmetric":
        tracer.bump("special.hyp2f1.euler_rules")
        tracer.bump("special.hyp2f1.euler_nodes", n)
    if tracer.note_jacobi_miss():
        tracer.bump("quadrature.rule_builds")
        tracer.bump("quadrature.nodes_built", n)


def _hook_sphere_rule(tracer, args, result, parent):
    tracer.bump("quadrature.rule_builds")
    tracer.bump("quadrature.nodes_built", result.points.shape[0])


def _hook_hemisphere_rule(tracer, args, result, parent):
    tracer.bump("quadrature.rule_builds")
    tracer.bump("quadrature.nodes_built", result.theta_nodes.size)


def _hook_ab(tracer, args, result, parent):
    tracer.bump("fields.ab_calls")
    tracer.bump("fields.ab_points", np.size(args[0]))


def _hook_boundary(tracer, args, result, parent):
    tracer.bump("fields.boundary_samples", np.atleast_2d(args[1]).shape[0])


def _hook_profile(tracer, args, result, parent):
    tracer.bump("fields.profile_evals", np.size(args[1]))


def _hook_eval_series(tracer, args, result, parent):
    tracer.bump("fields.series_terms", len(args[0].profiles))


def _hook_eval_planewave(tracer, args, result, parent):
    tracer.bump("planewave.series_terms", len(args[0].C))


def _hook_fd(tracer, args, result, parent):
    tracer.bump("fields.fd_evals", 2 * args[1].dim)


def _hook_reconstruct(tracer, args, result, parent):
    hrule = args[2]
    tracer.bump("cauchy.points")
    tracer.bump("cauchy.nodes", hrule.theta_nodes.size * hrule.nu.points.shape[0])


def _hook_kernel(tracer, args, result, parent):
    tracer.bump("cauchy.kernel_calls")


def _hook_kernelparams(tracer, args, result, parent):
    tracer.bump("cauchy.kernelparams_built")


def _hook_cli_main(tracer, args, result, parent):
    path = _out_path(args[0] if args else None)
    if path is not None:
        try:
            tracer.bump("cli.report_bytes", os.path.getsize(path))
        except OSError:
            pass


HOOKS = {
    "algebra.Multivector.__mul__": _hook_product,
    "algebra.mv_product": _hook_mv_product,
    "algebra.batch_vector_mv": _hook_batch,
    "special.hyp2f1_symmetric": _hook_hyp2f1,
    "special.bessel_j": _hook_bessel,
    "special.bessel_i": _hook_bessel,
    "quadrature.gauss_jacobi_rule": _hook_jacobi,
    "quadrature.sphere_rule": _hook_sphere_rule,
    "quadrature.hemisphere_rule": _hook_hemisphere_rule,
    "fields.AxialField.A": _hook_ab,
    "fields.AxialField.B": _hook_ab,
    "fields.AxialField.boundary_value": _hook_boundary,
    "fields.ExpLinear.value": _hook_profile,
    "fields.eval_series": _hook_eval_series,
    "planewave.eval_planewave": _hook_eval_planewave,
    "fields.dirac_apply_fd": _hook_fd,
    "cauchy.reconstruct_ab_variants": _hook_reconstruct,
    "cauchy.kernel_I_closed": _hook_kernel,
    "cauchy.kernel_phi": _hook_kernel,
    "cauchy.KernelParams.__post_init__": _hook_kernelparams,
    "cli.main": _hook_cli_main,
}


class Tracer:
    """Span recorder plus the patch list that installs and removes wrappers."""

    def __init__(self):
        self.names = []
        self.name_layer = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_item = array("i")
        self._stack = [-1]
        self.item = SETUP_ITEM
        self.counts = {"setup": Counter(), "items": Counter()}
        self._patches = []
        self._jacobi = None
        self._jacobi_misses = 0
        self._jacobi_base = (0, 0)
        self._field_cls = None

    # -- recording --------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            layer = name.split(".", 1)[0]
            if layer not in LAYERS:
                raise ValueError(f"span name {name!r} does not start with a layer")
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
        return nid

    def add_span(self, name: str, start_ns: int, end_ns: int, parent: int = -1) -> int:
        """Append a finished span by hand; returns its index."""
        idx = len(self.span_name)
        self.span_name.append(self.intern(name))
        self.span_start.append(start_ns)
        self.span_end.append(end_ns)
        self.span_parent.append(parent)
        self.span_item.append(self.item)
        return idx

    def bump(self, key: str, value=1) -> None:
        self.counts["setup" if self.item == SETUP_ITEM else "items"][key] += value

    def note_jacobi_miss(self) -> bool:
        misses = self._jacobi.cache_info().misses
        missed = misses > self._jacobi_misses
        self._jacobi_misses = misses
        return missed

    def wrap(self, fn, name: str):
        """Return a span-recording wrapper around fn."""
        nid = self.intern(name)
        hook = HOOKS.get(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, items, stack = self.span_parent, self.span_item, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            parent = stack[-1]
            names.append(nid)
            parents.append(parent)
            items.append(tracer.item)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(tracer, args, result, tracer.names[names[parent]] if parent >= 0 else None)
            if result.__class__ is tracer._field_cls:
                result = tracer.trace_field(result)
            return result

        traced.bench_traced = True
        return traced

    def trace_field(self, field):
        """Swap an AxialField's A/B callables for traced ones, so that
        value_at and boundary_value go through them too."""
        if getattr(field.A, "bench_traced", False):
            return field
        return dataclasses.replace(
            field,
            A=self.wrap(field.A, "fields.AxialField.A"),
            B=self.wrap(field.B, "fields.AxialField.B"),
        )

    # -- installation -----------------------------------------------------

    def _wrap_class(self, layer: str, cls) -> None:
        allowed = _TRACED_DUNDERS.get(cls.__name__, ())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in allowed:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                new = self.wrap(raw, name)
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package = importlib.import_module("biaxial")
        modules = {layer: importlib.import_module(f"biaxial.{layer}") for layer in LAYERS}
        self._field_cls = modules["fields"].AxialField
        self._jacobi = modules["quadrature"].gauss_jacobi_rule
        self._jacobi_misses = self._jacobi.cache_info().misses
        self.start_items()
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type):
                    if obj.__module__ == mod.__name__ and not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    wrapped[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def start_items(self) -> None:
        """Mark the end of set-up: cache statistics count from here."""
        info = self._jacobi.cache_info()
        self._jacobi_base = (info.hits, info.misses)

    def jacobi_cache_delta(self):
        """(hits, misses) of gauss_jacobi_rule since start_items."""
        info = self._jacobi.cache_info()
        return info.hits - self._jacobi_base[0], info.misses - self._jacobi_base[1]

    # -- output -----------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.span_start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.span_end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "item": np.frombuffer(self.span_item, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_times(self, items_only: bool = True):
        """Per-layer (calls, total_s, self_s) over item spans or all spans."""
        spans = self.arrays()
        n = spans["name"].size
        layer_of = np.asarray(self.name_layer, dtype=np.int64)
        layer = layer_of[spans["name"]] if n else np.zeros(0, dtype=np.int64)
        dur = (spans["end_ns"] - spans["start_ns"]) * 1e-9
        parent = spans["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        exclusive = dur - child
        # A span is outermost in its layer when no ancestor shares the layer.
        parent_list = parent.tolist()
        layer_list = layer.tolist()
        above = [0] * n
        outer = np.empty(n, dtype=bool)
        for i in range(n):
            p = parent_list[i]
            mask = 0 if p < 0 else above[p] | (1 << layer_list[p])
            above[i] = mask
            outer[i] = not (mask >> layer_list[i]) & 1
        select = spans["item"] != SETUP_ITEM if items_only else np.ones(n, dtype=bool)
        out = {}
        for li, name in enumerate(LAYERS):
            in_layer = select & (layer == li)
            out[name] = (
                int(np.count_nonzero(in_layer)),
                float(np.sum(dur[in_layer & outer])),
                float(np.sum(exclusive[in_layer])),
            )
        return out

    def span_seconds(self, name: str) -> float:
        """Summed duration of every span with this name, set-up included."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0.0
        spans = self.arrays()
        sel = spans["name"] == nid
        return float(np.sum(spans["end_ns"][sel] - spans["start_ns"][sel]) * 1e-9)


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer_metrics(tracer: Tracer, overhead_frac: float) -> dict:
    """Every per-layer metric of BENCHMARK.json, as {name: (value, unit)}.

    Metrics cover the traced items only, except cauchy.oracle_build_s,
    fields.boundary_samples, quadrature.rule_builds and
    quadrature.nodes_built, which also count the traced set-up because
    that is where their work happens.
    """
    items = tracer.counts["items"]
    whole = tracer.counts["setup"] + tracer.counts["items"]
    out = {}
    for layer, (calls, total_s, self_s) in tracer.layer_times(items_only=True).items():
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.total_s"] = (total_s, "s")
        out[f"{layer}.self_s"] = (self_s, "s")
    hits, misses = tracer.jacobi_cache_delta()
    out.update({
        "cauchy.nodes_per_point": (_ratio(items["cauchy.nodes"], items["cauchy.points"]), "count"),
        "cauchy.kernel_calls": (items["cauchy.kernel_calls"], "count"),
        "cauchy.kernelparams_built": (items["cauchy.kernelparams_built"], "count"),
        "cauchy.oracle_build_s": (tracer.span_seconds("cauchy.FullBallCauchy.__init__"), "s"),
        "fields.boundary_samples": (whole["fields.boundary_samples"], "count"),
        "fields.ab_calls": (items["fields.ab_calls"], "count"),
        "fields.ab_points_per_call": (_ratio(items["fields.ab_points"], items["fields.ab_calls"]),
                                      "count"),
        "special.hyp2f1.calls": (items["special.hyp2f1.calls"], "count"),
        "special.hyp2f1.z_per_call": (_ratio(items["special.hyp2f1.z"],
                                             items["special.hyp2f1.calls"]), "count"),
        "special.hyp2f1.euler_share": (_ratio(items["special.hyp2f1.euler_z"],
                                              items["special.hyp2f1.z"]), "frac"),
        "special.hyp2f1.euler_nodes": (_ratio(items["special.hyp2f1.euler_nodes"],
                                              items["special.hyp2f1.euler_rules"]), "count"),
        "special.bessel.calls": (items["special.bessel.calls"], "count"),
        "algebra.products": (items["algebra.products"], "count"),
        "algebra.batch_rows": (items["algebra.batch_rows"], "count"),
        "quadrature.rule_builds": (whole["quadrature.rule_builds"], "count"),
        "quadrature.nodes_built": (whole["quadrature.nodes_built"], "count"),
        "quadrature.jacobi_cache_hit_frac": (_ratio(hits, hits + misses), "frac"),
        "fields.profile_evals": (items["fields.profile_evals"], "count"),
        "fields.series_terms": (items["fields.series_terms"], "count"),
        "planewave.series_terms": (items["planewave.series_terms"], "count"),
        "fields.fd_evals": (items["fields.fd_evals"], "count"),
        "cli.report_bytes": (items["cli.report_bytes"], "B"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    })
    return out
