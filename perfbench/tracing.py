"""Span tracing of epkit's public functions, installed from outside the library.

``install`` replaces each function named in ``TARGETS`` by a wrapper that
records one span per call: name, start, end, the span that was open when it
was called (its parent) and a count. The wrapper goes into every epkit module
that binds the function, so ``from .core import eigvalues_grid`` callers are
traced too. Wrappers pass arguments, return values and attributes through
unchanged. A target that no longer exists is skipped and its layer reads 0,
so the benchmark keeps running as the library changes.

Counts are taken from argument sizes, not from call counts: a sampler called
once on a 256x128 grid and one called 32768 times on single points both
count 32768 points.

``layer_metrics`` turns the spans of one iteration into per-layer metrics. A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

# One span: [name, start, end, parent index or -1, count].
NAME, START, END, PARENT, COUNT = range(5)


def _points(args, kwargs):
    """Points evaluated by one call, from the broadcast size of its arguments."""
    if all(isinstance(a, float) for a in args):
        return 1
    return int(np.broadcast(*args).size)


def _first_size(args, kwargs):
    return int(np.size(args[0]))


def _path_bytes(args, kwargs):
    return os.path.getsize(args[0])


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _cut_edges(args, kwargs, result):
    cuts = getattr(result, "cut_cells", None)
    return sum(len(getattr(cuts, kind, ())) for kind in ("matched", "re", "im"))


def _accepted_steps(args, kwargs, result):
    return getattr(result, "n_steps", 0)


def _lifted(args, kwargs, result):
    return len(result)


class Tracer:
    """Spans recorded in memory, in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, fn, name, before=None, after=None):
        """Trace ``fn`` as ``name``; ``before``/``after`` give the span's count."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], before(args, kwargs) if before else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                span[COUNT] = after(args, kwargs, result)
            return result

        return traced

    def wrap_factory(self, factory, name):
        """Trace the callables ``factory`` returns (samplers) as ``name``."""

        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap(factory(*args, **kwargs), name, before=_points)

        return make

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        taken = list(self.spans)
        del self.spans[:]
        return taken


# (span name, module, attribute, count before the call, count after it,
#  whether the attribute is a factory of samplers)
TARGETS = (
    ("cli.main", "epkit.cli", "main", None, None, False),
    ("core.eigvalues_grid", "epkit.core", "eigvalues_grid", _points, None, False),
    ("core.diagonalize", "epkit.core", "diagonalize", None, None, False),
    ("toymodel.sample", "epkit.toymodel", "eigenpair_sampler", None, None, True),
    ("surface.build_surface", "epkit.surface", "build_surface", None, _cut_edges, False),
    ("surface.encircle", "epkit.surface", "encircle", None, _accepted_steps, False),
    ("surface.oracle_sample", "epkit.surface", "AnalyticOracle.sampler", None, None, True),
    ("epfind.grid_ep_search", "epkit.epfind", "grid_ep_search", None, None, False),
    ("epfind.toy_ep_roots", "epkit.epfind", "toy_ep_roots", None, None, False),
    ("crossing.sweep_toy", "epkit.crossing", "sweep_toy", None, None, False),
    ("crossing.match_branches", "epkit.crossing", "match_branches", _first_size, None, False),
    ("crossing.overlap_peaks", "epkit.crossing", "overlap_peaks", None, None, False),
    ("crossing.classify", "epkit.crossing", "classify", None, None, False),
    ("crossing.beta_transition", "epkit.crossing", "beta_transition", None, None, False),
    ("io.write_csv", "epkit.io", "write_trajectory_csv", None, _written_bytes, False),
    ("io.write_csv", "epkit.io", "write_sheetgrid_csv", None, _written_bytes, False),
    ("io.write_csv", "epkit.io", "write_sphere_csv", None, _written_bytes, False),
    ("io.write_json", "epkit.io", "write_json", None, _written_bytes, False),
    ("io.ingest_csv", "epkit.io", "ingest_csv", _path_bytes, None, False),
    ("sphere.lift_cut", "epkit.sphere", "lift_cut", None, _lifted, False),
)


def install(tracer: Tracer, targets=TARGETS) -> list[str]:
    """Wrap every target that exists; return the names of the spans installed."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "epkit" or n.startswith("epkit.")]
    installed = []
    for name, module_name, attr, before, after, factory in targets:
        owner = sys.modules.get(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = vars(owner).get(leaf) if owner is not None else None
        if not callable(original):
            continue
        if factory:
            wrapped = tracer.wrap_factory(original, name)
        else:
            wrapped = tracer.wrap(original, name, before, after)
        if path:  # a method: patch the class that defines it
            setattr(owner, leaf, wrapped)
        else:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        installed.append(name)
    return installed


SAMPLERS = ("toymodel.sample", "surface.oracle_sample")


def _ancestors(spans, parent):
    while parent >= 0:
        yield spans[parent][NAME]
        parent = spans[parent][PARENT]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one iteration's spans."""
    children = [0.0] * len(spans)
    for name, start, end, parent, count in spans:
        if parent >= 0:
            children[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    counted = defaultdict(int)
    loop_points = search_points = bisection_evals = 0
    for k, (name, start, end, parent, count) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - children[k]
        counted[name] += count
        if name in SAMPLERS:
            above = set(_ancestors(spans, parent))
            if "surface.encircle" in above:
                loop_points += count
            if "epfind.grid_ep_search" in above:
                search_points += count
        elif name == "crossing.classify":
            if "crossing.beta_transition" in _ancestors(spans, parent):
                bisection_evals += 1
    loop_steps = counted["surface.encircle"]
    return {
        "toymodel.sample_calls": calls["toymodel.sample"],
        "toymodel.sample_points": counted["toymodel.sample"],
        "toymodel.sample_s": total["toymodel.sample"],
        "toymodel.sample_self_s": own["toymodel.sample"],
        "core.eigvalues_grid_calls": calls["core.eigvalues_grid"],
        "core.eigvalues_grid_points": counted["core.eigvalues_grid"],
        "core.eigvalues_grid_s": total["core.eigvalues_grid"],
        "core.diagonalize_calls": calls["core.diagonalize"],
        "core.diagonalize_s": total["core.diagonalize"],
        "surface.build_surface_s": total["surface.build_surface"],
        "surface.build_surface_self_s": own["surface.build_surface"],
        "surface.cut_edges": counted["surface.build_surface"],
        "surface.oracle_sample_calls": calls["surface.oracle_sample"],
        "surface.oracle_sample_s": total["surface.oracle_sample"],
        "surface.encircle_s": total["surface.encircle"],
        "surface.encircle_self_s": own["surface.encircle"],
        "surface.loop_steps": loop_steps,
        "surface.loop_accept_ratio": loop_steps / loop_points if loop_points else 0.0,
        "epfind.grid_ep_search_s": total["epfind.grid_ep_search"],
        "epfind.grid_ep_search_self_s": own["epfind.grid_ep_search"],
        "epfind.search_sample_points": search_points,
        "epfind.toy_ep_roots_s": total["epfind.toy_ep_roots"],
        "crossing.sweep_toy_s": total["crossing.sweep_toy"],
        "crossing.sweep_toy_self_s": own["crossing.sweep_toy"],
        "crossing.match_branches_calls": calls["crossing.match_branches"],
        "crossing.match_branches_points": counted["crossing.match_branches"],
        "crossing.match_branches_s": total["crossing.match_branches"],
        "crossing.overlap_peaks_s": total["crossing.overlap_peaks"],
        "crossing.classify_s": total["crossing.classify"],
        "crossing.beta_transition_s": total["crossing.beta_transition"],
        "crossing.bisection_evals": bisection_evals,
        "io.write_csv_s": total["io.write_csv"],
        "io.write_json_s": total["io.write_json"],
        "io.bytes_written": counted["io.write_csv"] + counted["io.write_json"],
        "io.ingest_csv_s": total["io.ingest_csv"],
        "io.bytes_read": counted["io.ingest_csv"],
        "sphere.lift_cut_s": total["sphere.lift_cut"],
        "sphere.points_lifted": counted["sphere.lift_cut"],
        "cli.self_s": own["cli.main"],
    }


def write_spans(path, spans: list[list]) -> None:
    """Write spans as CSV: id, name, start, end, parent id, count."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id,name,start,end,parent,count\n")
        for k, (name, start, end, parent, count) in enumerate(spans):
            handle.write(f"{k},{name},{start!r},{end!r},{parent},{count}\n")
