"""Layer tracer: timing wrappers around the public functions of localcut.

The wrappers live here, outside the package. `Tracer.install` replaces each
traced function in every localcut namespace that binds it (``verify``,
``cli``, ``generators`` and ``bounds`` import functions by name, and
``verify.SUITES`` holds the suites), so calls through any of those names are
recorded. Lazy imports inside functions resolve the module attribute at call
time and pick up the wrapper as well. `Tracer.remove` puts every original
back.

Each call records a span: its name, start, end and the span that was open
when it began. A span's self time is its duration minus the durations of its
direct children, so nested spans (a generator building a RegularGraph) split
time between the layers correctly. Spans stay in memory until
`layer_metrics` folds them into per-layer totals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# Functions reported by name, per layer (a layer is a localcut module).
NAMED = {
    "generators": ("make_random_regular", "make_random_orientation",
                   "make_id_orientation"),
    "graphs": ("construct", "cut_size", "dicut_size", "dicut_arcs"),
    "algorithms": ("median_cut", "oriented_median_cut", "unstable_flip_step",
                   "stable_vertices", "distributed_flip_step", "random_cut"),
    "congest": ("run", "run_bit_serialized_median"),
    "oracle": ("max_dicut_exact", "max_cut_exact", "enumerate_max_dicuts"),
    "bounds": ("decompose", "check_inequalities"),
    "graphio": ("write_graph", "read_graph"),
}
# Generators' other public functions (circulants, ABCD and stuck
# instances, ...) are traced too, their self time reported as
# `generators.other_s`. In the other layers only the named functions are
# wrapped; the self time of their unnamed public functions is charged to the
# calling span.
OTHER = "generators"

# Span names whose self time is reported under another metric.
BUCKETS = {"congest.run_bit_serialized_median": "congest.run"}
CONSTRUCTORS = ("RegularGraph", "Orientation", "Labelling", "Cut")

COUNTS = ("algorithms.vertices", "oracle.masks", "congest.rounds",
          "congest.total_bits", "congest.node_steps")


def _vertex_count(obj) -> int:
    return getattr(obj, "graph", obj).n


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, after=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    # Hooks that read counts off a call's arguments or result.

    def _after_algorithm(self, args, result) -> None:
        if args:
            self.counts["algorithms.vertices"] += _vertex_count(args[0])

    def _after_dicut_oracle(self, args, result) -> None:
        self.counts["oracle.masks"] += 1 << _vertex_count(args[0])

    def _after_cut_oracle(self, args, result) -> None:
        g = args[0]
        # The bipartite shortcut returns m without enumerating; only a
        # non-bipartite graph (whose optimum is below m) costs 2^(n-1) masks.
        if result[0] != g.m:
            self.counts["oracle.masks"] += 1 << (g.n - 1)

    def _after_simulation(self, args, result) -> None:
        trace = result[1]
        self.counts["congest.rounds"] += trace.rounds_used
        self.counts["congest.total_bits"] += trace.total_bits

    def install(self) -> None:
        """Wrap every traced function wherever localcut binds it."""
        import localcut
        from localcut import congest, graphs, verify

        namespaces = [m for k, m in sorted(sys.modules.items())
                      if k == "localcut" or k.startswith("localcut.")]
        hooks = {
            "oracle.max_dicut_exact": self._after_dicut_oracle,
            "oracle.enumerate_max_dicuts": self._after_dicut_oracle,
            "oracle.max_cut_exact": self._after_cut_oracle,
            "congest.run": self._after_simulation,
        }
        targets = []
        for layer in NAMED:
            module = getattr(localcut, layer)
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")
                        and (layer == OTHER or attr in NAMED[layer])):
                    after = hooks.get(f"{layer}.{attr}")
                    if layer == "algorithms":
                        after = self._after_algorithm
                    targets.append((f"{layer}.{attr}", fn, after))
        for suite, fn in verify.SUITES.items():
            targets.append((f"verify.{suite}", fn, None))

        for name, fn, after in targets:
            wrapper = self._wrap(name, fn, after)
            for ns in namespaces:
                for bound, value in list(vars(ns).items()):
                    if value is fn:
                        self._set(ns, bound, wrapper)
            for key, value in list(verify.SUITES.items()):
                if value is fn:
                    self._set(verify.SUITES, key, wrapper)

        for cls_name in CONSTRUCTORS:
            cls = getattr(graphs, cls_name)
            for attr, value in list(vars(cls).items()):
                name = f"graphs.{cls_name}.{attr}"
                if attr == "__init__":
                    self._set(cls, attr, self._wrap(name, value))
                elif isinstance(value, classmethod):
                    self._set(cls, attr, classmethod(self._wrap(name, value.__func__)))

        counts = self.counts
        for cls in vars(congest).values():
            if (isinstance(cls, type) and issubclass(cls, congest.NodeProgram)
                    and "step" in vars(cls)):
                step = vars(cls)["step"]

                def counted(program, state, round_index, inbound, _step=step):
                    counts["congest.node_steps"] += 1
                    return _step(program, state, round_index, inbound)

                self._set(cls, "step", counted)

    def remove(self) -> None:
        """Restore every original function, method and SUITES entry."""
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def self_times(self) -> tuple[dict, Counter]:
        """Self time and call count per span name."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        totals: dict = defaultdict(float)
        calls: Counter = Counter()
        for i, name in enumerate(self.names):
            totals[name] += self.ends[i] - self.starts[i] - child[i]
            calls[name] += 1
        return totals, calls

    def layer_metrics(self, suites) -> dict:
        """Per-layer self times (s) and counts, keyed by metric name."""
        totals, calls = self.self_times()
        out: dict = {}
        for layer, fns in NAMED.items():
            for fn in fns:
                if f"{layer}.{fn}" not in BUCKETS:
                    out[f"{layer}.{fn}_s"] = 0.0
        out[f"{OTHER}.other_s"] = 0.0
        for suite in suites:
            out[f"verify.{suite}_s"] = 0.0
        layer_calls: Counter = Counter()
        for name, seconds in totals.items():
            layer, fn = name.split(".", 1)
            layer_calls[layer] += calls[name]
            if layer == "graphs" and fn.split(".")[0] in CONSTRUCTORS:
                fn = "construct"
            bucket = BUCKETS.get(f"{layer}.{fn}", f"{layer}.{fn}")
            if f"{bucket}_s" not in out:
                bucket = f"{layer}.other"
            out[f"{bucket}_s"] += seconds
        out["graphs.constructed"] = sum(
            calls[f"graphs.{c}.__init__"] for c in CONSTRUCTORS)
        for layer in ("generators", "algorithms", "oracle", "bounds"):
            out[f"{layer}.calls"] = layer_calls[layer]
        for key in COUNTS:
            out[key] = self.counts[key]
        oracle_s = sum(out[f"oracle.{fn}_s"] for fn in NAMED["oracle"])
        out["oracle.masks_per_s"] = out["oracle.masks"] / oracle_s if oracle_s else 0.0
        run_s = out["congest.run_s"]
        out["congest.bits_per_s"] = out["congest.total_bits"] / run_s if run_s else 0.0
        return out
