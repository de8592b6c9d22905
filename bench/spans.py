"""Outside-in tracing of qdeficit's public functions.

``Tracer`` wraps every public function of the six layer modules, plus the
``DensityMatrix`` constructor and its ``marginal`` method, by rebinding
the names in the modules that hold them; ``src/`` is not changed.  Each
call records a span (name, start, end, parent, request) in flat arrays
in memory.  ``layer_metrics`` turns the spans into the per-layer figures
and ``dump`` writes the spans out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from array import array

LAYERS = ("linalg", "concurrence", "entropy", "structure", "states", "cli")

DENSITY = "linalg.DensityMatrix"
MARGINAL = "linalg.marginal"

# The per-layer metrics, in the order they are printed.  A figure of a
# function the workload never calls reads 0.
PER_LAYER = (
    ("linalg.hermitian_eig.us_per_call", "us"),
    ("linalg.hermitian_eig.calls_per_state", "count"),
    ("linalg.DensityMatrix.calls_per_state", "count"),
    ("linalg.DensityMatrix.self_us_per_call", "us"),
    ("linalg.DensityMatrix.eig_reuse_ratio", "ratio"),
    ("linalg.marginal.cache_hit_ratio", "ratio"),
    ("linalg.psd_function.us_per_call", "us"),
    ("concurrence.concurrence.us_per_call", "us"),
    ("concurrence.spin_flip.calls_per_state", "count"),
    ("entropy.von_neumann.calls_per_state", "count"),
    ("structure.alpha_beta_frame.us_per_call", "us"),
    ("structure.decohere.us_per_call", "us"),
    ("structure.classify.self_us_per_call", "us"),
    ("states.werner.us_per_call", "us"),
    ("states.random_mixed.us_per_call", "us"),
    ("cli.werner_sweep_rows.self_us_per_state", "us"),
    ("cli.run_audit.self_us_per_state", "us"),
) + tuple((f"{layer}.self_share", "ratio") for layer in LAYERS) + (("trace.overhead_ratio", "ratio"),)


def _gets_eigensystem(kwargs) -> int:
    return int(kwargs.get("eigensystem") is not None)


def _totals() -> dict[str, int]:
    return {"calls": 0, "total_ns": 0, "self_ns": 0, "tagged": 0, "misses": 0}


class Tracer:
    """Span recorder for one process; ``install``/``remove`` toggle the wrappers."""

    def __init__(self, package):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.request = array("l")
        self.tag = array("b")
        self.request_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj, hit[1]))
        dm = modules["linalg"].DensityMatrix
        self._patches.append((dm, "__init__", dm.__init__, self._wrap(DENSITY, dm.__init__, _gets_eigensystem)))
        self._patches.append((dm, "marginal", dm.marginal, self._wrap(MARGINAL, dm.marginal)))

    def _wrap(self, name: str, fn, tag=None):
        nid = len(self.names)
        self.names.append(name)
        names, start, end, parent, request, tags = (
            self.name, self.start, self.end, self.parent, self.request, self.tag
        )
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(tracer.request_id)
            tags.append(tag(kwargs) if tag is not None else 0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def per_function(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive and self nanoseconds, and tagged calls per span name."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0] * n
        marginal_misses = set()
        dm_id = self.names.index(DENSITY)
        marg_id = self.names.index(MARGINAL)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
                if self.name[i] == dm_id and self.name[p] == marg_id:
                    marginal_misses.add(p)
        stats = {name: _totals() for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name[i]]]
            s["calls"] += 1
            s["total_ns"] += dur[i]
            s["self_ns"] += dur[i] - covered[i]
            s["tagged"] += self.tag[i]
        stats[MARGINAL]["misses"] = len(marginal_misses)
        return stats

    def layer_metrics(self, states: int, wall_ns: int, overhead_ratio: float) -> dict[str, float]:
        """The PER_LAYER figures for ``states`` traced states taking ``wall_ns``.

        A metric name is ``<span>.<kind>``; the kind says how the span's
        totals become the figure.
        """
        stats = self.per_function()
        out = {}
        for metric, _ in PER_LAYER:
            span, kind = metric.rsplit(".", 1)
            s = stats.get(span, _totals())
            calls = s["calls"] or 1  # every total is 0 when there are no calls
            if kind == "us_per_call":
                out[metric] = s["total_ns"] / calls / 1e3
            elif kind == "self_us_per_call":
                out[metric] = s["self_ns"] / calls / 1e3
            elif kind == "calls_per_state":
                out[metric] = s["calls"] / states
            elif kind == "self_us_per_state":
                out[metric] = s["self_ns"] / states / 1e3
            elif kind == "eig_reuse_ratio":
                out[metric] = s["tagged"] / calls
            elif kind == "cache_hit_ratio":
                out[metric] = (s["calls"] - s["misses"]) / calls
            elif kind == "self_share":
                own = sum(v["self_ns"] for name, v in stats.items() if name.split(".", 1)[0] == span)
                out[metric] = own / wall_ns if wall_ns else 0.0
            elif metric == "trace.overhead_ratio":
                out[metric] = overhead_ratio
            else:
                raise ValueError(f"no rule for per-layer metric {metric!r}")
        return out

    def dump(self, path) -> None:
        """Write the spans as columns, times in ns from the first span."""
        t0 = min(self.start) if len(self.start) else 0
        payload = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "request", "eigensystem_given"],
            "name": self.name.tolist(),
            "start_ns": [t - t0 for t in self.start],
            "end_ns": [t - t0 for t in self.end],
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
            "eigensystem_given": self.tag.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
