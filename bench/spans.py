"""Span tracer that wraps coulomblab's public functions from outside.

Installing the tracer replaces every public function of the layer modules,
and the `green` method of each compact-set class, with a wrapper that
records one span per call: name, start, end and parent span.  Spans stay in
memory; `save` writes them once, when the run ends.  A span's self time is
its duration minus the time covered by its direct children, so the self
times of all spans plus the benchmark's own glue add up to the traced wall
time.  No library source is touched: uninstalling restores every original.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("potential", "measures", "fekete", "sampler", "partition", "stats",
          "acceptance", "cli")

GREEN_CLASSES = {"Disk": "disk", "Segment": "segment", "Ellipse": "ellipse",
                 "ExteriorMap": "exterior_map"}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_green(counts, name, args, kwargs, out):
    z = _arg(args, kwargs, 1, "z")
    counts[name + ".points"] += getattr(z, "size", 1)


def _count_run_chain(counts, name, args, kwargs, out):
    counts["sampler.run_chain.steps"] += out.cfg.burn_in + out.cfg.steps
    counts["sampler.post_proposed"] += out.cfg.steps
    counts["sampler.post_accepted"] += round(out.acceptance_rate * out.cfg.steps)


def _count_states(key):
    def count(counts, name, args, kwargs, out):
        counts[key] += len(_arg(args, kwargs, 0, "chain"))
    return count


def _count_discretize(counts, name, args, kwargs, out):
    counts["measures.discretize.points_generated"] += out.points_generated


def _count_bl(counts, name, args, kwargs, out):
    n1 = len(_arg(args, kwargs, 0, "mu"))
    n2 = len(_arg(args, kwargs, 1, "nu"))
    counts["measures.bl_distance.atoms"] += n1 + n2
    counts["measures.bl_distance.lp_vars_computed"] += n1 * n2


def _count_solve(counts, name, args, kwargs, out):
    counts["fekete.iterations"] += out.iterations
    counts["fekete.converged"] += int(out.converged)


COUNTERS = {
    "sampler.run_chain": _count_run_chain,
    "sampler.tail_mass_estimate": _count_states("sampler.tail_mass_estimate.states"),
    "stats.linear_statistic": _count_states("stats.states_processed"),
    "stats.moment_statistic": _count_states("stats.states_processed"),
    "stats.intensity_histogram": _count_states("stats.states_processed"),
    "measures.discretize": _count_discretize,
    "measures.bl_distance": _count_bl,
    "fekete.solve": _count_solve,
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple] = []

    def wrap(self, name, fn, count=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                count(counts, name, args, kwargs, out)
            return out

        return traced

    def install(self, package: str = "coulomblab") -> None:
        """Wrap the public functions of every layer and the green methods."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        replacements = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    replacements[id(fn)] = (fn, self.wrap(name, fn, COUNTERS.get(name)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        potential = sys.modules[f"{package}.potential"]
        for cls_name, label in GREEN_CLASSES.items():
            cls = getattr(potential, cls_name)
            original = cls.__dict__["green"]
            self._patches.append((cls, "green", original))
            setattr(cls, "green", self.wrap(f"potential.green.{label}", original, _count_green))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def arrays(self):
        start = np.asarray(self.starts, dtype=float)
        end = np.asarray(self.ends, dtype=float)
        parent = np.asarray(self.parents, dtype=np.int64)
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return start, end, parent, dur, dur - covered

    def inclusive(self, name: str) -> float:
        """Total duration of the spans called `name`, children included."""
        _, _, _, dur, _ = self.arrays()
        return float(sum(d for n, d in zip(self.names, dur.tolist()) if n == name))

    def summary(self) -> tuple[dict, dict]:
        """Per-name (self seconds, calls) and the raw counters."""
        _, _, _, _, self_s = self.arrays()
        by_name: dict = {}
        for name, s in zip(self.names, self_s.tolist()):
            tot = by_name.setdefault(name, [0.0, 0])
            tot[0] += s
            tot[1] += 1
        return by_name, dict(self.counts)

    def save(self, path, meta: dict) -> None:
        start, end, parent, _, self_s = self.arrays()
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = start.min() if start.size else 0.0
        np.savez_compressed(path, names=np.asarray(table),
                            name_id=np.asarray([index[n] for n in self.names], dtype=np.int32),
                            start=start - t0, end=end - t0, parent=parent,
                            self_s=self_s, meta=np.asarray(json.dumps(meta)))
