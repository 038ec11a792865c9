"""Spans at the public-function boundaries of the kolnet modules.

The benchmark traces the package from outside: every module-level name that
is bound to a traced function is replaced by one wrapper, so a call is
recorded whichever module it goes through (``mc_reference_grid`` is bound in
``kolnet.sde``, ``kolnet.cli``, ``kolnet.constructive`` and ``kolnet``).
Private helpers such as ``sde._terminal_batch`` are never wrapped; their time
is the self time of the public function that calls them.

A span records calls, wall time, self time (wall time that no nested span
covers) and the work counts listed in ``TRACED``.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
import tracemalloc


def _stored(args, result):
    stored = sum(W.size + B.size for W, B in result.layers)
    nonzero = sum(int((W != 0).sum()) + int((B != 0).sum()) for W, B in result.layers)
    return {"stored_params": stored, "nonzero_params": nonzero}


# span name -> work counts taken from (bound arguments, result) after a call.
TRACED = {
    "rng.uniforms": lambda a, r: {"draws": r.size},
    "rng.gaussians": lambda a, r: {"draws": r.size},
    "sde.load_problem": None,
    "sde.mc_reference_grid": lambda a, r: {"paths": len(a["points"]) * a["n_paths"]},
    "sde.mc_feynman_kac": None,
    "sde.extract_affine_batch": lambda a, r: {"maps": len(a["seeds"])},
    "learning.generate_dataset": lambda a, r: {"samples": a["m"]},
    "learning.train_erm": lambda a, r: {"iterations": a["config"].iterations},
    "learning.empirical_risk": None,
    "nets.evaluate": lambda a, r: {"rows": r.shape[0]},
    "nets.compose_average": _stored,
    "nets.save_network": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "constructive.build_mc_network": None,
    "constructive.verify_construction_bounds": None,
}

# Spans whose peak traced allocation (tracemalloc) is recorded as peak_mb.
MEMORY_SPANS = {"nets.compose_average"}

ROOT_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder; ``stats[name]`` holds calls, s, self_s and counts."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._child_s: list[float] = []

    def call(self, name, fn, args, kwargs, count=None, signature=None):
        memory = name in MEMORY_SPANS
        if memory:
            tracemalloc.start()
        self._child_s.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            child = self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += dur
            st = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["s"] += dur
            st["self_s"] += dur - child
            if memory:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                st["peak_mb"] = max(st.get("peak_mb", 0.0), peak)
        if count is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for key, value in count(bound.arguments, result).items():
                st[key] = st.get(key, 0) + value
        return result

    def wrap(self, name, fn):
        count = TRACED[name]
        signature = inspect.signature(fn) if count is not None else None

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count, signature)

        return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function at each public name bound to it; return the sites."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "kolnet" or n.startswith("kolnet.")]
    sites = []
    for name in TRACED:
        module, attr = name.split(".")
        original = getattr(sys.modules[f"kolnet.{module}"], attr)
        wrapper = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original and not key.startswith("_"):
                    setattr(mod, key, wrapper)
                    sites.append(f"{mod.__name__}.{key}")
    return sites


# Per-layer metrics of one traced invocation: name -> (unit, kind).  An
# "exact" metric is a count that must repeat exactly between invocations with
# the same seed; a "median" one is measured and reported as the median.
LAYER_METRICS = {
    "rng.uniforms.self_s": ("s", "median"),
    "rng.gaussians.self_s": ("s", "median"),
    "rng.uniforms.draws": ("count", "exact"),
    "rng.gaussians.draws": ("count", "exact"),
    "sde.load_problem.s": ("s", "median"),
    "sde.mc_reference_grid.s": ("s", "median"),
    "sde.mc_reference_grid.paths": ("count", "exact"),
    "sde.mc_feynman_kac.self_s": ("s", "median"),
    "sde.mc_feynman_kac.calls": ("count", "exact"),
    "sde.paths_per_s": ("1/s", "median"),
    "sde.extract_affine_batch.s": ("s", "median"),
    "sde.extract_affine_batch.maps": ("count", "exact"),
    "learning.generate_dataset.s": ("s", "median"),
    "learning.generate_dataset.samples": ("count", "exact"),
    "learning.train_erm.self_s": ("s", "median"),
    "learning.train_erm.iter_us": ("us", "median"),
    "learning.train_erm.iterations": ("count", "exact"),
    "learning.empirical_risk.s": ("s", "median"),
    "learning.empirical_risk.calls": ("count", "exact"),
    "nets.evaluate.s": ("s", "median"),
    "nets.evaluate.calls": ("count", "exact"),
    "nets.evaluate.rows": ("count", "exact"),
    "nets.compose_average.s": ("s", "median"),
    "nets.compose_average.stored_params": ("count", "exact"),
    "nets.compose_average.nonzero_frac": ("ratio", "exact"),
    "nets.compose_average.peak_mb": ("MB", "median"),
    "nets.save_network.s": ("s", "median"),
    "nets.save_network.bytes": ("bytes", "exact"),
    "constructive.build_mc_network.self_s": ("s", "median"),
    "constructive.verify_construction_bounds.s": ("s", "median"),
    "constructive.retries": ("count", "exact"),
    "cli.self_s": ("s", "median"),
    "trace.covered_frac": ("ratio", "median"),
    "trace.overhead_frac": ("ratio", "median"),
}


def layer_metrics(stats: dict) -> dict:
    """Per-layer metrics of one traced invocation, except ``trace.overhead_frac``.

    A span the workload never entered reads 0.
    """

    def get(span, key):
        return stats.get(span, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    root_s = get(ROOT_SPAN, "s")
    m = {}
    for metric in LAYER_METRICS:
        span, _, key = metric.rpartition(".")
        if span in TRACED:
            m[metric] = get(span, key)
    m["sde.paths_per_s"] = ratio(get("sde.mc_reference_grid", "paths"), get("sde.mc_reference_grid", "s"))
    m["learning.train_erm.iter_us"] = 1e6 * ratio(
        get("learning.train_erm", "self_s"), get("learning.train_erm", "iterations")
    )
    # Every retry composes a network of the same shape: report one network's entries.
    m["nets.compose_average.stored_params"] = get("nets.compose_average", "stored_params") // max(
        get("nets.compose_average", "calls"), 1
    )
    m["nets.compose_average.nonzero_frac"] = ratio(
        get("nets.compose_average", "nonzero_params"), get("nets.compose_average", "stored_params")
    )
    m["constructive.retries"] = get("nets.compose_average", "calls")
    m["cli.self_s"] = get(ROOT_SPAN, "self_s")
    m["trace.covered_frac"] = 1.0 - ratio(get(ROOT_SPAN, "self_s"), root_s)
    return m
