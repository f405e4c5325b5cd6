"""Spans and counters recorded from outside the library.

The tracer wraps the public functions of each nacap module and the
arithmetic, order and graph methods of LCElement, RFElement and
WeightedGraph.  A wrapped function is rebound under every name that refers
to it: on its class (``__radd__`` is ``__add__``), in its own module, and in
every nacap module that imported it by name (``capacity`` imports
``effective_capacity``, ``cli`` most of the solvers).

Each call records a span (name, parent, job, start, end) into one flat
array of doubles, five per span, appended at the call's start; the spans are
written out when the run ends.  A layer's self time is the time its spans
cover minus the part covered by their child spans.
"""

from __future__ import annotations

import array
import inspect
import json
import math
import sys
import time

FIELDS_PER_SPAN = 5  # name id, parent index, job id, start, end

ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
    "__truediv__", "__rtruediv__", "__pow__", "inv",
)
ORDER = ("compare", "sign", "indistinguishable", "abs", "with_guarantee")
GRAPH_METHODS = (
    "neighbors", "weight", "degree_weight", "measure", "ball", "distances_from",
    "boundary_weight", "is_connected_subset", "with_degree_measure", "evaluated_at",
)
AUTO = None  # every public function defined in the module

# layer -> (module, {class: methods}, functions)
LAYERS = {
    "field": ("nacap.field", {"LCElement": ARITHMETIC + ORDER}, ("parse_element",)),
    "ratfunc": ("nacap.ratfunc", {"RFElement": ARITHMETIC + ORDER + ("eval_at", "embed")}, AUTO),
    "graphs": ("nacap.graphs", {"WeightedGraph": GRAPH_METHODS}, AUTO),
    "dirichlet": ("nacap.dirichlet", {}, AUTO),
    "capacity": ("nacap.capacity", {}, AUTO),
    "potential": ("nacap.potential", {}, AUTO),
    "transition": ("nacap.transition", {}, AUTO),
    "specfile": ("nacap.specfile", {}, AUTO),
    "cli": ("nacap.cli", {}, ("main",)),
}

# Which end-to-end metric each layer's metrics should move, and where.
LAYER_EFFECTS = {
    "field": "wall_s on layered-lc (inversion) and transition-lc (pairs, kept ratio); "
    "guarantee_cuts moves min_guarantee everywhere",
    "ratfunc": "wall_s on generic-exact; zero on the Levi-Civita workloads",
    "dirichlet": "wall_s on layered-lc and generic-exact",
    "capacity": "wall_s on layered-lc",
    "transition": "wall_s on transition-lc",
    "graphs": "job_ms_p50 on every workload",
    "potential": "wall_s on layered-lc, through hardy",
    "specfile": "setup_s and job_ms_p50 on every workload",
    "cli": "job_ms_p50 on every workload",
    "bench": "retries move wall_s and ok_ratio on generic-exact",
}


def _terms(x):
    terms = getattr(x, "terms", None)
    if terms is not None:
        return len(terms)
    return 0 if x == 0 else 1


def _guarantee(x):
    return getattr(x, "guarantee", math.inf)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Span recorder plus the per-layer counters the spans cannot give."""

    def __init__(self):
        self.names = []
        self.spans = array.array("d")
        self.stack = [-1]
        self.job = -1
        self.job_start = 0
        self.counts = {}
        self.degree_max = 0
        self._wrappers = None
        self._restore = []

    # -- recording -----------------------------------------------------------

    def _count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper recording one span per call of ``fn``."""
        name_id = float(len(self.names))
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            index = len(spans) // FIELDS_PER_SPAN
            spans.extend((name_id, stack[-1], tracer.job, clock(), -1.0))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index * FIELDS_PER_SPAN + 4] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_job(self, job_id):
        self.job = job_id
        self.job_start = len(self.spans)

    def end_job(self, interrupted):
        """Reset the stack; after a budget interrupt, close the spans it left
        open at the current time."""
        if interrupted:
            now = time.perf_counter()
            for i in range(self.job_start + 4, len(self.spans), FIELDS_PER_SPAN):
                if self.spans[i] < 0:
                    self.spans[i] = now
        self.stack[:] = [-1]
        self.job = -1

    # -- counters --------------------------------------------------------------

    def _counters(self, layer, name):
        """(before, after) hooks for the calls behind the per-layer counts."""
        count = self._count
        if layer == "field":
            def cuts(args, result):
                if hasattr(result, "guarantee"):
                    if result.guarantee < min(_guarantee(a) for a in args):
                        count("field.guarantee_cuts")
            if name == "__mul__":
                def after(args, kwargs, result, _):
                    count("field.mul.calls")
                    count("field.mul.pairs", _terms(args[0]) * _terms(args[1]))
                    count("field.mul.kept", _terms(result))
                    cuts(args, result)
                return None, after
            key = {"__add__": "field.add.calls", "inv": "field.inv.calls"}.get(name)

            def after(args, kwargs, result, _):
                if key is not None:
                    count(key)
                cuts(args, result)
            return None, after
        if layer == "ratfunc" and name in ARITHMETIC:
            def after(args, kwargs, result, _):
                count("ratfunc.ops")
                num, den = getattr(result, "num", ()), getattr(result, "den", ())
                self.degree_max = max(self.degree_max, len(num) - 1, len(den) - 1)
            return None, after
        if layer == "graphs" and name == "neighbors":
            def before(args, kwargs):
                cache = getattr(args[0], "_neighbors", None)
                return cache is not None and _arg(args, kwargs, 1, "v") not in cache

            def after(args, kwargs, result, first):
                count("graphs.neighbors.calls")
                count("graphs.neighbors.first", int(first))
            return before, after
        if layer == "graphs" and name == "ball":
            return None, lambda args, kwargs, result, _: count("graphs.ball.calls")
        if layer == "dirichlet" and name in ("solve_dp", "dirichlet_inverse_apply"):
            boundary_values = 1 if name == "solve_dp" else 0  # the root's value is fixed

            def after(args, kwargs, result, _):
                count("dirichlet.solves")
                count("dirichlet.unknowns", len(set(_arg(args, kwargs, 1, "K"))) - boundary_values)
            return None, after
        if layer == "dirichlet" and name == "effective_capacity":
            return None, lambda args, kwargs, result, _: count("capacity.balls_solved")
        if layer == "transition" and name in ("transition_powers", "pi_element"):
            steps = "N" if name == "transition_powers" else "n"

            def after(args, kwargs, result, _):
                count("transition.steps", int(_arg(args, kwargs, 3, steps)))
            return None, after
        return None, None

    # -- installing ------------------------------------------------------------

    def install(self):
        """Rebind every traced function to its wrapper under all its names;
        the wrappers are made on the first call."""
        if self._wrappers is None:
            self._wrappers = self._make_wrappers()
        for layer, (module_name, classes, _) in LAYERS.items():
            module = sys.modules[module_name]
            for class_name, methods in classes.items():
                cls = getattr(module, class_name)
                for method in methods:
                    original = cls.__dict__.get(method)
                    if id(original) in self._wrappers:
                        self._rebind(cls, method, self._wrappers[id(original)])
        for module_name, module in list(sys.modules.items()):
            if module_name == "nacap" or module_name.startswith("nacap."):
                for name, value in list(vars(module).items()):
                    if id(value) in self._wrappers:
                        self._rebind(module, name, self._wrappers[id(value)])

    def _make_wrappers(self):
        """id(original) -> wrapper for every traced method and function."""
        wrappers = {}
        for layer, (module_name, classes, functions) in LAYERS.items():
            module = sys.modules[module_name]
            for class_name, methods in classes.items():
                cls = getattr(module, class_name)
                for method in methods:
                    original = cls.__dict__.get(method)  # RFElement has no abs
                    if original is not None and id(original) not in wrappers:
                        before, after = self._counters(layer, method)
                        wrappers[id(original)] = self.wrap(
                            f"{layer}.{class_name}.{method}", original, before, after
                        )
            if functions is AUTO:
                functions = [
                    name
                    for name, value in vars(module).items()
                    if inspect.isfunction(value)
                    and value.__module__ == module_name
                    and not name.startswith("_")
                ]
            for name in functions:
                original = getattr(module, name)
                before, after = self._counters(layer, name)
                wrappers[id(original)] = self.wrap(f"{layer}.{name}", original, before, after)
        return wrappers

    def _rebind(self, owner, name, wrapper):
        self._restore.append((owner, name, getattr(owner, "__dict__", {})[name]))
        setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------------

    def columns(self):
        """(names, parents, starts, ends) of the recorded spans, in start order."""
        s = self.spans
        names = [self.names[int(i)] for i in s[0::FIELDS_PER_SPAN]]
        parents = [int(p) for p in s[1::FIELDS_PER_SPAN]]
        return names, parents, s[3::FIELDS_PER_SPAN], s[4::FIELDS_PER_SPAN]

    def write(self, stem, meta):
        """Write ``stem.spans`` (float64 records of name id, parent index, job
        id, start, end, in start order) and ``stem.json`` (names, metadata)."""
        with open(stem + ".spans", "wb") as handle:
            self.spans.tofile(handle)
        header = {
            "meta": meta,
            "record": ["name_id", "parent", "job", "start_s", "end_s"],
            "format": "float64 native byte order, five per span; parent -1 is none",
            "names": self.names,
            "layer_effects": LAYER_EFFECTS,
            "spans": len(self.spans) // FIELDS_PER_SPAN,
        }
        with open(stem + ".json", "w") as handle:
            json.dump(header, handle, indent=1)


def self_times(parents, starts, ends):
    """Self time of each span: its duration minus the part of its interval
    that its children cover.  Spans are in start order, so the children of a
    parent arrive by start time and their union is accumulated in one pass."""
    count = len(starts)
    covered = [0.0] * count
    reach = [-math.inf] * count
    for i in range(count):
        parent = parents[i]
        if parent < 0:
            continue
        start = max(starts[i], starts[parent], reach[parent])
        end = min(ends[i], ends[parent])
        if end > start:
            covered[parent] += end - start
            reach[parent] = end
    return [ends[i] - starts[i] - covered[i] for i in range(count)]


def layer_of(name):
    return name.split(".", 1)[0]


def layer_metrics(tracer, passes):
    """The per-layer metrics, per traced pass, and the set of layers that
    recorded a span."""
    names, parents, starts, ends = tracer.columns()
    own = self_times(parents, starts, ends)
    layers = [layer_of(name) for name in names]
    self_s = {}
    inclusive = {"field.inv.s": 0.0, "transition.mmc_s": 0.0, "specfile.build_s": 0.0}
    for i, name in enumerate(names):
        layer = layers[i]
        self_s[layer] = self_s.get(layer, 0.0) + own[i]
        if name == "field.LCElement.inv":
            inclusive["field.inv.s"] += ends[i] - starts[i]
        elif name == "transition.min_mean_cycle_valuation":
            inclusive["transition.mmc_s"] += ends[i] - starts[i]
        elif layer == "specfile" and (parents[i] < 0 or layers[parents[i]] != "specfile"):
            inclusive["specfile.build_s"] += ends[i] - starts[i]
    counts = tracer.counts

    def per_pass(key):
        return counts.get(key, 0) / passes

    pairs = counts.get("field.mul.pairs", 0)
    metrics = {
        "field.mul.calls": per_pass("field.mul.calls"),
        "field.mul.pairs": per_pass("field.mul.pairs"),
        "field.mul.kept_ratio": counts.get("field.mul.kept", 0) / pairs if pairs else 0.0,
        "field.add.calls": per_pass("field.add.calls"),
        "field.inv.calls": per_pass("field.inv.calls"),
        "field.inv.s": inclusive["field.inv.s"] / passes,
        "field.self_s": self_s.get("field", 0.0) / passes,
        "field.guarantee_cuts": per_pass("field.guarantee_cuts"),
        "ratfunc.ops": per_pass("ratfunc.ops"),
        "ratfunc.self_s": self_s.get("ratfunc", 0.0) / passes,
        "ratfunc.degree_max": tracer.degree_max,
        "dirichlet.solves": per_pass("dirichlet.solves"),
        "dirichlet.unknowns": per_pass("dirichlet.unknowns"),
        "dirichlet.self_s": self_s.get("dirichlet", 0.0) / passes,
        "capacity.balls_solved": per_pass("capacity.balls_solved"),
        "capacity.self_s": self_s.get("capacity", 0.0) / passes,
        "transition.steps": per_pass("transition.steps"),
        "transition.mmc_s": inclusive["transition.mmc_s"] / passes,
        "transition.self_s": self_s.get("transition", 0.0) / passes,
        "graphs.neighbors.calls": per_pass("graphs.neighbors.calls"),
        "graphs.neighbors.first": per_pass("graphs.neighbors.first"),
        "graphs.ball.calls": per_pass("graphs.ball.calls"),
        "graphs.self_s": self_s.get("graphs", 0.0) / passes,
        "potential.self_s": self_s.get("potential", 0.0) / passes,
        "specfile.build_s": inclusive["specfile.build_s"] / passes,
        "cli.self_s": self_s.get("cli", 0.0) / passes,
    }
    return metrics, set(layers)
