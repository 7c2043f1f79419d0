"""In-memory span tracer for the emergolab layers, installed from outside.

``install()`` wraps every public function (and every public ``write*``
artifact writer method) of the layer modules and rebinds each wrapper in
every ``emergolab`` module namespace that holds the original, because the
package binds many names with ``from .x import f``.  Private helpers such
as ``_kernel_matrix`` stay unwrapped.  A span is a tuple

    (span_id, parent_id, run_id, name, start, end, extra)

kept in memory; the process that owns the tracer writes ``spans`` out
when it ends.  ``extra`` holds the few
counts that can only be read at the call boundary (points, iterations,
grid size, blocks); ``layer_metrics()`` turns spans into per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import tracemalloc

LAYERS = ("drifts", "kernel", "simulate", "splitting", "rates", "empirical",
          "cli")
SUBCOMMANDS = ("constants", "verify-assumptions", "invariant", "uniform-sup",
               "study", "emit-plotdata", "split-sim", "atom-check",
               "return-times")
DRIFT_CHECKS = ("check_assumptions", "derive_constants",
                "verify_drift_condition")
MINORIZATION = ("minorization_epsilon", "whole_space_minorization")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """Records spans of wrapped emergolab calls for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []
        self._next_id = 0
        self._kernel_depth = 0
        self._kernel_cache = None
        self._dense_limit = None

    def install(self) -> None:
        import importlib
        from emergolab import kernel
        self._kernel_cache = kernel._kernel_matrix
        self._dense_limit = kernel.DENSE_MATRIX_LIMIT
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"emergolab.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("write") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(
                                layer, f"{name}.{meth}", fn))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "emergolab"
                                         or n.startswith("emergolab."))]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        annotate = _ANNOTATORS.get(full)
        is_kernel = layer == "kernel"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            owns_malloc = is_kernel and self._kernel_depth == 0
            if is_kernel:
                self._kernel_depth += 1
                if owns_malloc:
                    tracemalloc.start()
            misses = self._kernel_cache.cache_info().misses if is_kernel else 0
            result = done = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                extra = {}
                if done and annotate is not None:
                    extra = annotate(self, args, kwargs, result)
                if is_kernel:
                    self._kernel_depth -= 1
                    if self._kernel_cache.cache_info().misses > misses:
                        extra["build"] = 1
                    if owns_malloc:
                        extra["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                self.spans.append((sid, parent, self.run_id, full, start, end,
                                   extra or None))
        return traced


def _n_nodes(measure_or_grid):
    grid = getattr(measure_or_grid, "grid", measure_or_grid)
    return int(grid.n_nodes)


def _ann_apply_kernel(tr, args, kwargs, result):
    n = _n_nodes(_arg(args, kwargs, 2, "xi"))
    return {"n": n, "tail": result.tail_bound, "dense": n <= tr._dense_limit}


def _ann_invariant(tr, args, kwargs, result):
    n = _n_nodes(_arg(args, kwargs, 2, "grid"))
    return {"n": n, "iters": int(result.iterations),
            "tail": result.measure.tail_bound,
            # dense power iteration does one n x n matvec per iteration;
            # the matrix-free path goes through apply_kernel spans instead
            "dense": n <= tr._dense_limit}


def _ann_eval_drift(tr, args, kwargs, result):
    import numpy as np
    return {"points": int(np.size(_arg(args, kwargs, 1, "x")))}


def _ann_sample_paths(tr, args, kwargs, result):
    return {"path_steps": int(result.shape[0]) * (int(result.shape[1]) - 1)}


def _ann_run_split(tr, args, kwargs, result):
    return {"steps": int(result.xs.size) - 1, "blocks": int(result.n_blocks)}


def _ann_split_ensemble(tr, args, kwargs, result):
    xs = result[0]
    return {"chain_steps": (int(xs.shape[0]) - 1) * int(xs.shape[1])}


def _ann_cli_main(tr, args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv")
    return {"sub": argv[0] if argv else None}


def _ann_tail(tr, args, kwargs, result):
    return {"tail": float(result.tail_bound)}


_ANNOTATORS = {
    "kernel.apply_kernel": _ann_apply_kernel,
    "kernel.invariant_measure": _ann_invariant,
    "kernel.n_step_from_point": _ann_tail,
    "drifts.eval_drift": _ann_eval_drift,
    "simulate.sample_paths": _ann_sample_paths,
    "splitting.run_split": _ann_run_split,
    "splitting.split_ensemble": _ann_split_ensemble,
    "cli.main": _ann_cli_main,
}


# -- aggregation ------------------------------------------------------------

def _median(values, default=0.0):
    return statistics.median(values) if values else default


def self_times(spans) -> dict:
    """Per-layer self time: span duration minus the time of its children."""
    child = {}
    for sid, parent, run, name, t0, t1, _ in spans:
        if parent is not None:
            child[(run, parent)] = child.get((run, parent), 0.0) + (t1 - t0)
    out = {layer: 0.0 for layer in LAYERS}
    for sid, parent, run, name, t0, t1, _ in spans:
        layer = name.split(".", 1)[0]
        out[layer] += (t1 - t0) - child.get((run, sid), 0.0)
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics, as (value, unit), from the spans of one pass.

    Spans come from one or more processes; span ids are unique per run id.
    """
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(span)

    def dur(name):
        return [s[5] - s[4] for s in by_name.get(name, [])]

    def total(*names):
        return sum(sum(dur(n)) for n in names)

    def extras(name, key):
        return [s[6][key] for s in by_name.get(name, [])
                if s[6] and key in s[6]]

    m = {}
    # drifts
    m["drifts.eval_drift_calls"] = (len(dur("drifts.eval_drift")), "count")
    m["drifts.eval_drift_points"] = (sum(extras("drifts.eval_drift", "points")),
                                     "count")
    m["drifts.checks_s"] = (total(*(f"drifts.{n}" for n in DRIFT_CHECKS)), "s")

    # kernel
    applies = by_name.get("kernel.apply_kernel", [])
    warm, cold, fine = [], [], []
    for s in applies:
        ex = s[6] or {}
        if not ex.get("dense", True):
            fine.append(s[5] - s[4])
        elif ex.get("build"):
            cold.append(s[5] - s[4])
        else:
            warm.append(s[5] - s[4])
    inv = by_name.get("kernel.invariant_measure", [])
    bytes_ = sum(8 * s[6].get("n", 0) ** 2 for s in applies if s[6])
    bytes_ += sum(8 * s[6]["n"] ** 2 * s[6]["iters"] for s in inv
                  if s[6] and s[6].get("dense"))
    tails = [t for name in by_name if name.startswith("kernel.")
             for t in extras(name, "tail")]
    peaks = [p for name in by_name if name.startswith("kernel.")
             for p in extras(name, "peak_alloc")]
    m["kernel.invariant_s"] = (total("kernel.invariant_measure"), "s")
    m["kernel.invariant_iterations"] = (
        sum(extras("kernel.invariant_measure", "iters")), "count")
    m["kernel.apply_kernel_calls"] = (len(applies), "count")
    m["kernel.apply_kernel_warm_ms"] = (1e3 * _median(warm), "ms")
    m["kernel.apply_kernel_cold_s"] = (_median(cold), "s")
    m["kernel.fine_grid_apply_ms"] = (1e3 * _median(fine), "ms")
    # a build shows in every kernel span around it; count the outermost one
    m["kernel.matrix_builds"] = (
        sum(1 for name in by_name if name.startswith("kernel.")
            for s in by_name[name]
            if s[6] and "build" in s[6] and "peak_alloc" in s[6]), "count")
    m["kernel.matvec_bytes_computed"] = (bytes_, "bytes")
    m["kernel.peak_alloc_mb"] = (max(peaks, default=0) / 2 ** 20, "MB")
    m["kernel.minorization_s"] = (total(*(f"kernel.{n}" for n in MINORIZATION)),
                                  "s")
    m["kernel.tail_bound_max"] = (max(tails, default=0.0), "prob")

    # rates
    cached = by_name.get("rates.invariant_cached", [])
    cached_ids = {(s[2], s[0]) for s in cached}
    computed = sum(1 for s in inv if (s[2], s[1]) in cached_ids)
    m["rates.tv_decay_curve_calls"] = (len(dur("rates.tv_decay_curve")),
                                       "count")
    m["rates.tv_decay_curve_s"] = (total("rates.tv_decay_curve"), "s")
    m["rates.uniform_sup_tv_s"] = (total("rates.uniform_sup_tv"), "s")
    m["rates.step_size_study_s"] = (total("rates.step_size_study"), "s")
    m["rates.invariant_cached_calls"] = (len(cached), "count")
    m["rates.invariant_cache_hit_ratio"] = (
        1.0 - computed / len(cached) if cached else 0.0, "ratio")
    m["rates.fit_geometric_rate_s"] = (total("rates.fit_geometric_rate"), "s")

    # simulate
    paths_s = total("simulate.sample_paths")
    path_steps = sum(extras("simulate.sample_paths", "path_steps"))
    m["simulate.sample_paths_s"] = (paths_s, "s")
    m["simulate.path_steps_per_s"] = (path_steps / paths_s if paths_s else 0.0,
                                      "1/s")
    m["simulate.return_times_ensemble_calls"] = (
        len(dur("simulate.return_times_ensemble")), "count")
    m["simulate.return_times_ensemble_s"] = (
        total("simulate.return_times_ensemble"), "s")
    m["simulate.em_step_calls"] = (len(dur("simulate.em_step")), "count")

    # splitting
    split_s = total("splitting.run_split")
    steps = sum(extras("splitting.run_split", "steps"))
    blocks = sum(extras("splitting.run_split", "blocks"))
    ens_s = total("splitting.split_ensemble")
    chain_steps = sum(extras("splitting.split_ensemble", "chain_steps"))
    m["splitting.run_split_s"] = (split_s, "s")
    m["splitting.run_split_steps"] = (steps, "count")
    m["splitting.run_split_us_per_step"] = (1e6 * split_s / steps if steps
                                            else 0.0, "us")
    m["splitting.regen_blocks"] = (blocks, "count")
    m["splitting.regen_blocks_per_step"] = (blocks / steps if steps else 0.0,
                                            "ratio")
    m["splitting.split_ensemble_chain_steps_per_s"] = (
        chain_steps / ens_s if ens_s else 0.0, "1/s")
    m["splitting.atom_return_check_s"] = (total("splitting.atom_return_check"),
                                          "s")
    m["splitting.regenerative_pi_estimate_s"] = (
        total("splitting.regenerative_pi_estimate"), "s")

    # empirical
    m["empirical.binned_tv_s"] = (total("empirical.binned_tv"), "s")
    m["empirical.ks_statistic_s"] = (total("empirical.ks_statistic"), "s")

    # cli
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}_s"] = (sum(s[5] - s[4] for s in by_name.get("cli.main", [])
                                 if s[6] and s[6].get("sub") == sub), "s")
    writers = [name for name in by_name
               if name.split(".")[-1].startswith("write")]
    m["cli.csv_write_s"] = (total(*writers, "cli.emit_plotdata"), "s")

    for layer, value in self_times(spans).items():
        m[f"{layer}.self_s"] = (value, "s")
    m["trace.spans"] = (len(spans), "count")
    return m


# counts that must repeat exactly between two traced passes of one seed
EXACT_COUNTS = tuple(
    name for name in layer_metrics([]) if name.endswith("_calls")) + (
    "drifts.eval_drift_points", "kernel.invariant_iterations",
    "kernel.matvec_bytes_computed", "kernel.matrix_builds",
    "rates.invariant_cached_calls", "splitting.run_split_steps",
    "splitting.regen_blocks", "trace.spans")

