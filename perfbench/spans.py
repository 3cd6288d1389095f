"""Outside-in tracing of accordion_tau, done from the benchmark's own files.

A traced sweep rebinds the public functions of each layer module (and
``RowSpace.add``) in every loaded accordion_tau module to a wrapper that
records one span per call.  Spans are aggregated in memory per name: calls,
total time (outermost calls only) and self time (span time minus the time of
the traced spans it called).  Nothing under ``src/`` knows about it.

``PER_LAYER`` names the per-layer metrics the benchmark reports, grouped by
the layer whose cost they measure; ``layer_metrics`` reads them off a tracer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("geometry", "accordion", "quiver", "rigidity", "complexes", "linalg", "verify")
METHODS = (("linalg", "RowSpace", "add"),)

# Constant-time helpers called hundreds of thousands of times per sweep.  A
# span around each would mostly time the wrapper; their cost stays in the
# self time of the traced function that calls them.
UNTRACED = {
    "geometry.in_open_arc",
    "geometry.left_of",
    "geometry.is_boundary",
    "geometry.white_chord",
    "geometry.black_chord",
    "quiver.vertex_label",
    "rigidity.walk_vertices",
    "rigidity.inverse_word",
    "linalg.mat_vec",
}

# Per-layer metrics by group.  BENCHMARK.json lists the same names, and each
# workload in workloads.py predicts which groups move its sweep_s.
GROUPS = {
    "crossing": (
        "geometry.crosses.calls",
        "geometry.cells.calls",
        "geometry.cells.self_s",
        "accordion.crossing_sequence.self_s",
        "accordion.g_vector.calls",
        "accordion.accordion_complex.calls",
        "accordion.accordion_complex.total_s",
        "accordion.accordion_complex.distinct_ratio",
    ),
    "quiver": (
        "quiver.algebra_basis.calls",
        "quiver.algebra_basis.self_s",
        "quiver.algebra_basis.distinct_ratio",
        "quiver.shortcut_quiver.calls",
        "quiver.shortcut_quiver.self_s",
    ),
    "rigidity": (
        "rigidity.enumerate_strings.self_s",
        "rigidity.min_presentation.calls",
        "rigidity.min_presentation.self_s",
        "rigidity.hom_shift.calls",
        "rigidity.hom_shift.self_s",
        "rigidity.hom_shift.zero_ratio",
        "rigidity.silting_complex.calls",
        "rigidity.silting_complex.total_s",
    ),
    "linalg": (
        "linalg.RowSpace.add.calls",
        "linalg.RowSpace.add.self_s",
        "linalg.rank.calls",
        "linalg.rref.calls",
        "linalg.rref.self_s",
    ),
    "complexes": (
        "complexes.maximal_cliques.self_s",
        "complexes.make_complex.self_s",
        "complexes.iso_by_gvectors.calls",
        "complexes.iso_by_gvectors.self_s",
        "complexes.generic_iso.calls",
        "complexes.induced_subcomplex.calls",
        "complexes.induced_subcomplex.self_s",
    ),
    "audit": (
        "complexes.dual_graph.calls",
        "complexes.dual_graph.self_s",
        "complexes.dual_graph.edge_ratio",
        "complexes.check_facet_independence.self_s",
        "complexes.check_sign_coherence.self_s",
        "complexes.is_pseudomanifold.self_s",
        "verify.audit_complex.calls",
        "verify.audit_complex.total_s",
    ),
    # filled in by run.py from whole traced and untraced sweeps
    "trace": (
        "trace.sweep_s",
        "trace.overhead_frac",
        "trace.driver_self_s",
        "trace.accounted_frac",
    ),
}
PER_LAYER = tuple(name for names in GROUPS.values() for name in names)


def unit_and_better(metric: str) -> tuple[str, str]:
    """Unit and direction of a per-layer metric, from its name."""
    if metric.endswith(".calls"):
        return "count", "lower"
    if metric.endswith("_s"):
        return "s", "lower"
    if metric == "trace.overhead_frac":
        return "ratio", "lower"
    return "ratio", "higher"


class Patches:
    """Rebindings in the loaded accordion_tau modules, undone on exit."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def set_attr(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def wrap(self, module, name: str, make) -> None:
        """Replace module.name, and every other global bound to the same
        function, by make(current function)."""
        current = getattr(module, name)
        replacement = make(current)
        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "accordion_tau"]:
            for key, value in list(vars(mod).items()):
                if value is current:
                    self.set_attr(mod, key, replacement)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    active: int = 0
    # observer results: counts[...] and the distinct argument keys seen
    counts: dict = field(default_factory=dict)
    keys: set = field(default_factory=set)


def _count(stats: SpanStats, key: str, amount: int) -> None:
    stats.counts[key] = stats.counts.get(key, 0) + amount


# Ratios measured where the work happens: observer(stats, args, result).
OBSERVERS = {
    "accordion.accordion_complex": lambda st, args, out: st.keys.add(
        (args[0].cycle.m, tuple(args[0].white_pairs()))
    ),
    "quiver.algebra_basis": lambda st, args, out: st.keys.add(args[0]),
    "rigidity.hom_shift": lambda st, args, out: _count(st, "zero", out == 0),
    "complexes.dual_graph": lambda st, args, out: (
        _count(st, "edges", len(out.edges)),
        _count(st, "pairs", len(out.nodes) * (len(out.nodes) - 1) // 2),
    ),
}


class Tracer:
    """Aggregated spans of one traced sweep."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self._open: list[list[float]] = []  # child time of each open span

    def _wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, SpanStats())
        observe = OBSERVERS.get(name)
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            stats.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                stats.active -= 1
                stats.calls += 1
                stats.self_s += elapsed - children[0]
                if not stats.active:
                    stats.total_s += elapsed
                if open_spans:
                    open_spans[-1][0] += elapsed
            if observe is not None:
                observe(stats, args, result)
            return result

        return span

    def install(self, patches: Patches) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"accordion_tau.{layer}")
            for key, value in list(vars(module).items()):
                name = f"{layer}.{key}"
                if (
                    key.startswith("_")
                    or name in UNTRACED
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                ):
                    continue
                patches.wrap(module, key, lambda fn, name=name: self._wrap(name, fn))
        for layer, cls, method in METHODS:
            owner = getattr(importlib.import_module(f"accordion_tau.{layer}"), cls)
            patches.set_attr(
                owner, method, self._wrap(f"{layer}.{cls}.{method}", getattr(owner, method))
            )

    def counts(self) -> dict:
        """Everything that must repeat exactly between two traced sweeps."""
        return {
            name: (st.calls, sorted(st.counts.items()), len(st.keys))
            for name, st in sorted(self.spans.items())
        }

    def self_total(self) -> float:
        return sum(st.self_s for st in self.spans.values())

    def dump(self) -> dict:
        return {
            name: {"calls": st.calls, "self_s": st.self_s, "total_s": st.total_s}
            for name, st in sorted(self.spans.items())
            if st.calls
        }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except the trace.* group.

    A ratio whose base is zero (the layer never ran) reads 0.
    """
    out = {}
    for metric in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if span == "trace":
            continue
        st = tracer.spans.get(span, SpanStats())
        if kind == "calls":
            out[metric] = st.calls
        elif kind == "self_s":
            out[metric] = st.self_s
        elif kind == "total_s":
            out[metric] = st.total_s
        elif kind == "distinct_ratio":
            out[metric] = _ratio(len(st.keys), st.calls)
        elif kind == "zero_ratio":
            out[metric] = _ratio(st.counts.get("zero", 0), st.calls)
        elif kind == "edge_ratio":
            out[metric] = _ratio(st.counts.get("edges", 0), st.counts.get("pairs", 0))
        else:
            raise ValueError(f"unknown per-layer metric kind in {metric}")
    return out
