"""Span tracer for the program's layers, installed from outside the package.

``Tracer.install`` replaces each traced function under the name the package
calls it by (``build_adjacency`` as imported into ``mbaloha.experiments`` and
into ``mbaloha.decoders``, for instance) with a wrapper that records a span:
its name, start, end and the span that was open when it started.  Spans stay
in memory in flat arrays and are written out once, by ``Tracer.write``.
Counts of work done are added up at the same boundaries.

The traced run also replaces the process pool of ``mbaloha.experiments``
with ``InlineExecutor``, which runs the same jobs in the calling process, so
that spans from pool jobs are captured too.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


def _edges(args, kwargs, result):
    return {"scenario.build_adjacency.edges": sum(len(nbrs) for nbrs in result.station_neighbors)}


def _rounds(args, kwargs, result):
    return {"decoders.decode_cooperative.rounds": result.iterations_run}


def _masks(args, kwargs, result):
    return {"decoders.mask_monte_carlo.masks": result.n_masks}


def _points(args, kwargs, result):
    centers = args[0]
    n_samples = args[1] if len(args) > 1 else kwargs["n_samples"]
    k = len(centers)
    # The kernel's float64 arrays: the (samples, 2) points and the
    # (samples, k) squared-distance matrix.
    return {
        "geometry.disk_union_area.point_tests": n_samples * k,
        "geometry.disk_union_area.bytes_computed": n_samples * (2 + k) * 8,
    }


# (module, attribute, span name, counter)
TARGETS = (
    ("mbaloha.cli", "main", "cli.main", None),
    ("mbaloha.cli", "sweep_load", "experiments.sweep_load", None),
    ("mbaloha.experiments", "sweep_load", "experiments.sweep_load", None),
    ("mbaloha.cli", "estimate_gbullet", "experiments.estimate_gbullet", None),
    ("mbaloha.experiments", "_simulate_runs", "experiments.job", None),
    ("mbaloha.cli", "render_sweep_csv", "experiments.render_and_report", None),
    ("mbaloha.cli", "compare_report", "experiments.render_and_report", None),
    ("mbaloha.cli", "render_gbullet_csv", "experiments.render_and_report", None),
    ("mbaloha.cli", "generate_instance", "scenario.generate_instance", None),
    ("mbaloha.experiments", "generate_instance", "scenario.generate_instance", None),
    ("mbaloha.experiments", "build_adjacency", "scenario.build_adjacency", _edges),
    ("mbaloha.decoders", "build_adjacency", "scenario.build_adjacency", _edges),
    ("mbaloha.experiments", "decode_noncooperative", "decoders.decode_noncooperative", None),
    ("mbaloha.decoders", "decode_noncooperative", "decoders.decode_noncooperative", None),
    ("mbaloha.experiments", "decode_cooperative", "decoders.decode_cooperative", _rounds),
    ("mbaloha.decoders", "decode_cooperative", "decoders.decode_cooperative", _rounds),
    ("mbaloha.cli", "brute_force_collection_probability", "decoders.brute_force_collection_probability", None),
    ("mbaloha.cli", "mask_monte_carlo", "decoders.mask_monte_carlo", _masks),
    ("mbaloha.experiments", "collection_prob_noncoop_asymptotic", "analytics.collection_prob_noncoop_asymptotic", None),
    ("mbaloha.experiments", "heuristic_coop", "analytics.heuristic_coop", None),
    ("mbaloha.cli", "collection_prob_noncoop_finite", "analytics.collection_prob_noncoop_finite", None),
    ("mbaloha.cli", "tabulate_moments", "geometry.tabulate_moments", None),
    ("mbaloha.geometry", "disk_union_area", "geometry.disk_union_area", _points),
    ("mbaloha.geometry", "sample_unit_disk", "geometry.sample_unit_disk", None),
)

SPAN_NAMES = tuple(sorted({t[2] for t in TARGETS} | {"geometry.MomentTable.load"}))


class Tracer:
    """Records spans and counts while installed; ``install``/``uninstall`` toggle it."""

    def __init__(self) -> None:
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("h")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter[str] = Counter()
        self.stack: list[int] = []
        self.active = False
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        span_id = self.ids[name]
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(span_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter))
        moment_table = importlib.import_module("mbaloha.geometry").MomentTable
        self._saved.append((moment_table, "load", moment_table.__dict__["load"]))
        moment_table.load = staticmethod(self._wrap("geometry.MomentTable.load", moment_table.load, None))
        self.active = True

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.active = False

    def write(self, path: str, passes: int) -> None:
        """Write all spans and counts; ``passes`` is how many traced rounds each workload ran."""
        np.savez(
            path,
            names=np.frombuffer(self.names, dtype=np.int16),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            span_names=np.array(SPAN_NAMES),
            counts=np.array(json.dumps(dict(self.counts))),
            passes=np.array(passes),
        )


class InlineExecutor:
    """Stands in for ``ProcessPoolExecutor``: runs ``map`` in this process."""

    def __init__(self, tracer: Tracer, max_workers: int | None = None) -> None:
        if tracer.active:
            tracer.counts["experiments.pool_starts"] += 1

    def __enter__(self) -> "InlineExecutor":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def map(self, fn, *iterables, chunksize: int = 1):
        return list(map(fn, *iterables))


# (metric, unit), in the order BENCHMARK.json lists them
PER_LAYER = (
    ("scenario.generate_instance.us", "us/call"),
    ("scenario.build_adjacency.us", "us/call"),
    ("scenario.build_adjacency.edges", "count"),
    ("decoders.decode_noncooperative.us", "us/call"),
    ("decoders.decode_cooperative.us", "us/call"),
    ("decoders.decode_cooperative.rounds", "count"),
    ("decoders.brute_force_collection_probability.ms", "ms/call"),
    ("decoders.mask_monte_carlo.us_per_mask", "us"),
    ("analytics.collection_prob_noncoop_asymptotic.us", "us/call"),
    ("analytics.heuristic_coop.us", "us/call"),
    ("analytics.collection_prob_noncoop_finite.ms", "ms/call"),
    ("geometry.disk_union_area.us", "us/call"),
    ("geometry.disk_union_area.point_tests", "count"),
    ("geometry.disk_union_area.bytes_computed", "bytes"),
    ("geometry.sample_unit_disk.us", "us/call"),
    ("geometry.tabulate_moments.self_s", "s"),
    ("geometry.MomentTable.load.ms", "ms/call"),
    ("experiments.sweep_load.self_s", "s"),
    ("experiments.estimate_gbullet.self_s", "s"),
    ("experiments.pool_starts", "count"),
    ("experiments.jobs", "count"),
    ("experiments.render_and_report.ms", "ms/call"),
    ("cli.main.self_ms", "ms/call"),
    ("trace.overhead_pct", "%"),
)


def layer_table(path: str, overhead_pct: float, invocations: list[tuple[float, float]]) -> dict[str, dict]:
    """Per-layer metrics from a file written by ``Tracer.write``.

    Times per call are span durations; ``self`` times subtract the time
    covered by child spans.  Totals (``self_s`` and counts) are per pass, one
    traced round of every workload, so counts repeat exactly for one seed.
    ``invocations`` holds the start time and the machine-speed factor of
    ``calibrate.py`` of each traced invocation, in order; every span's time
    is multiplied by the factor of the invocation it ran in.
    """
    data = np.load(path)
    names, parents = data["names"], data["parents"]
    starts, scales = np.array(invocations).T
    invocation = np.searchsorted(starts, data["starts"], side="right") - 1
    durations = (data["ends"] - data["starts"]) * scales[invocation]
    span_names = [str(s) for s in data["span_names"]]
    counts = json.loads(str(data["counts"]))
    passes = int(data["passes"])
    has_parent = parents >= 0
    child_time = np.bincount(parents[has_parent], weights=durations[has_parent], minlength=len(durations))
    self_times = durations - child_time

    def spans(name):
        return names == span_names.index(name)

    def per_call(name, scale, times=durations):
        sel = spans(name)
        return float(times[sel].sum() / sel.sum()) * scale

    def total(name):
        return float(self_times[spans(name)].sum()) / passes

    values = {
        "scenario.generate_instance.us": per_call("scenario.generate_instance", 1e6),
        "scenario.build_adjacency.us": per_call("scenario.build_adjacency", 1e6),
        "scenario.build_adjacency.edges": counts["scenario.build_adjacency.edges"] // passes,
        "decoders.decode_noncooperative.us": per_call("decoders.decode_noncooperative", 1e6),
        "decoders.decode_cooperative.us": per_call("decoders.decode_cooperative", 1e6),
        "decoders.decode_cooperative.rounds": counts["decoders.decode_cooperative.rounds"] // passes,
        "decoders.brute_force_collection_probability.ms": per_call("decoders.brute_force_collection_probability", 1e3),
        "decoders.mask_monte_carlo.us_per_mask": float(durations[spans("decoders.mask_monte_carlo")].sum())
        * 1e6
        / counts["decoders.mask_monte_carlo.masks"],
        "analytics.collection_prob_noncoop_asymptotic.us": per_call("analytics.collection_prob_noncoop_asymptotic", 1e6),
        "analytics.heuristic_coop.us": per_call("analytics.heuristic_coop", 1e6),
        "analytics.collection_prob_noncoop_finite.ms": per_call("analytics.collection_prob_noncoop_finite", 1e3),
        "geometry.disk_union_area.us": per_call("geometry.disk_union_area", 1e6),
        "geometry.disk_union_area.point_tests": counts["geometry.disk_union_area.point_tests"] // passes,
        "geometry.disk_union_area.bytes_computed": counts["geometry.disk_union_area.bytes_computed"] // passes,
        "geometry.sample_unit_disk.us": per_call("geometry.sample_unit_disk", 1e6),
        "geometry.tabulate_moments.self_s": total("geometry.tabulate_moments"),
        "geometry.MomentTable.load.ms": per_call("geometry.MomentTable.load", 1e3),
        "experiments.sweep_load.self_s": total("experiments.sweep_load"),
        "experiments.estimate_gbullet.self_s": total("experiments.estimate_gbullet"),
        "experiments.pool_starts": counts["experiments.pool_starts"] // passes,
        "experiments.jobs": int(spans("experiments.job").sum()) // passes,
        "experiments.render_and_report.ms": per_call("experiments.render_and_report", 1e3),
        "cli.main.self_ms": per_call("cli.main", 1e3, self_times),
        "trace.overhead_pct": overhead_pct,
    }
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name in units}
