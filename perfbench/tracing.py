"""Layer tracing by wrapping the library's public functions from outside.

``Tracer.install`` replaces each traced function on every ``inblock`` module
attribute (and class attribute) that holds it, so callers that imported it by
name pick up the wrapper too; ``uninstall`` puts the originals back.  Spans
(name, start, end, parent, job) stay in memory until ``dump``.  Counters that
the span boundaries can see (trees enumerated, tuples rolled out, BA
iterations, entropy queries already answered once for the same joint, ...)
are kept next to the spans.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

import numpy as np

# (module, attribute or Class.method, span name).  Span names are
# "<layer>.<stage>"; the layer is the module the function lives in.
TRACED = (
    ("specio", "parse_spec", "specio.parse"),
    ("specio", "parse_channel", "specio.parse"),
    ("specio", "parse_gaussian", "specio.parse"),
    ("model", "BlockChannel.__init__", "model.compile"),
    ("model", "BlockChannel.from_noise", "model.compile"),
    ("model", "BlockChannel.additive", "model.compile"),
    ("model", "enumerate_code_functions", "model.enumerate"),
    ("model", "enumerate_maps", "model.enumerate"),
    ("model", "constant_code_functions", "model.enumerate"),
    ("model", "induced_channel", "model.rollout"),
    ("model", "rollout", "model.rollout"),
    ("model", "joint_distribution", "model.joint"),
    ("probability", "JointBlockDistribution.entropy", "probability.entropy"),
    ("cutset", "cut_mutual_information", "cutset.eval"),
    ("cutset", "weakened_bound", "cutset.eval"),
    ("cutset", "baik_bound", "cutset.eval"),
    ("cutset", "cutset_region", "cutset.eval"),
    ("strategies", "df_rate", "strategies.eval"),
    ("strategies", "pdf_rate", "strategies.eval"),
    ("strategies", "cf_rate", "strategies.eval"),
    ("strategies", "qf_rate", "strategies.eval"),
    ("strategies", "mac_fb_region", "strategies.eval"),
    ("strategies", "bc_cutset_region", "strategies.eval"),
    ("strategies", "bc_marton_region", "strategies.eval"),
    ("strategies", "bc_deterministic_region", "strategies.eval"),
    ("strategies", "bc_regions", "strategies.eval"),
    ("strategies", "relay_without_delay_bound", "strategies.eval"),
    ("optimize", "blahut_arimoto", "optimize.ba"),
    ("optimize", "tuple_channel_matrix", "optimize.tree_matrix"),
    ("optimize", "maximize_cutset_minimum", "optimize.maxmin"),
    ("optimize", "support_reduction", "optimize.support"),
    ("gaussian", "gap_certificate", "gaussian.gap"),
    ("gaussian", "whiten", "gaussian.gap"),
    ("gaussian", "cut_upper_bound", "gaussian.gap"),
    ("gaussian", "qf_lower_bound", "gaussian.gap"),
    ("cli", "main", "cli.command"),
)
COUNTED = (  # (module, function, counter): calls or yielded items, no span
    ("optimize", "project_to_simplex", "optimize.ascent_steps"),
    ("optimize", "simplex_grid", "optimize.grid_points"),
)
LAYERS = ("specio", "model", "probability", "cutset", "strategies", "optimize",
          "gaussian", "cli")
# Per-layer metrics: (name, unit, better).  ``*_s`` entries are self times.
METRICS = (
    ("model.enumerate_s", "s", "lower"), ("model.trees", "count", "lower"),
    ("model.rollout_s", "s", "lower"), ("model.rollout_calls", "count", "lower"),
    ("optimize.tree_matrix_s", "s", "lower"),
    ("model.joint_s", "s", "lower"), ("model.joint_builds", "count", "lower"),
    ("model.joint_cells", "count", "lower"), ("model.joint_nonzeros", "count", "lower"),
    ("model.joint_fill", "ratio", "higher"),
    ("probability.entropy_s", "s", "lower"), ("probability.entropy_calls", "count", "lower"),
    ("probability.entropy_repeat_ratio", "ratio", "lower"),
    ("cutset.eval_s", "s", "lower"), ("cutset.evals", "count", "lower"),
    ("strategies.eval_s", "s", "lower"), ("strategies.evals", "count", "lower"),
    ("optimize.ba_s", "s", "lower"), ("optimize.ba_calls", "count", "lower"),
    ("optimize.ba_iterations", "count", "lower"),
    ("optimize.support_s", "s", "lower"), ("optimize.support_candidates", "count", "lower"),
    ("optimize.support_improving_ratio", "ratio", "higher"),
    ("optimize.maxmin_s", "s", "lower"), ("optimize.ascent_steps", "count", "lower"),
    ("optimize.grid_points", "count", "lower"),
    ("optimize.max_gap_bits", "bits", "lower"),
    ("specio.parse_s", "s", "lower"), ("model.compile_s", "s", "lower"),
    ("gaussian.gap_s", "s", "lower"), ("cli.command_s", "s", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS)

COUNT_SPANS = {  # span name -> counter bumped once per call
    "model.joint": "model.joint_builds",
    "probability.entropy": "probability.entropy_calls",
    "optimize.ba": "optimize.ba_calls",
}
CUT_EVALS = {"cut_mutual_information", "weakened_bound", "baik_bound"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []     # [name id, start, end, parent, job, paused]
        self.results: dict[int, float] = {}  # BA span index -> value
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._job = "setup"
        self._seen_entropy = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [self._name_id(name), time.perf_counter(), 0.0, parent, self._job, 0.0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def job(self, name: str):
        self._job = name
        with self.span("job"):
            yield

    def pause(self, seconds: float) -> None:
        """Charge time spent outside the library (a speed sample) to the
        innermost open span, so that it is left out of that span's self time."""
        if self._stack:
            self.spans[self._stack[-1]][5] += seconds

    def _parent_name(self) -> str | None:
        if not self._stack:
            return None
        return self.names[self.spans[self._stack[-1]][0]]

    # -- wrappers -----------------------------------------------------------------

    def _wrap(self, attr: str, fn, name: str):
        tracer = self
        counter = COUNT_SPANS.get(name)
        if attr == "rollout":
            @wraps(fn)
            def rollout(*args, **kwargs):
                with tracer.span(name):
                    paths = list(fn(*args, **kwargs))
                tracer.counts["model.rollout_calls"] += 1
                return iter(paths)
            return rollout

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._parent_name()
            with tracer.span(name) as index:
                out = fn(*args, **kwargs)
            if counter:
                tracer.counts[counter] += 1
            tracer._count(attr, name, parent, index, args, kwargs, out)
            return out
        return traced

    def _count(self, attr, name, parent, index, args, kwargs, out):
        if attr in ("enumerate_maps", "constant_code_functions"):
            self.counts["model.trees"] += len(out)
        elif name == "model.joint":
            table = out.table
            self.counts["model.joint_cells"] += table.size
            self.counts["model.joint_nonzeros"] += int(np.count_nonzero(table))
        elif name == "probability.entropy":
            names = args[1] if len(args) > 1 else kwargs.get("names")
            key = frozenset(args[0].names if names is None else names)
            seen = self._seen_entropy.setdefault(args[0], set())
            if key in seen:
                self.counts["probability.entropy_repeats"] += 1
            seen.add(key)
        elif attr in CUT_EVALS:
            self.counts["cutset.evals"] += 1
        elif name == "strategies.eval" and parent != "strategies.eval":
            self.counts["strategies.evals"] += 1
        elif name == "optimize.ba":
            self.counts["optimize.ba_iterations"] += out[2]
            self.results[index] = out[0]

    def _counting(self, fn, counter: str):
        tracer = self
        if fn.__name__ == "simplex_grid":
            @wraps(fn)
            def grid(*args, **kwargs):
                for point in fn(*args, **kwargs):
                    tracer.counts[counter] += 1
                    yield point
            return grid

        @wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, ib) -> None:
        submodules = {m.name: importlib.import_module(f"inblock.{m.name}")
                      for m in pkgutil.iter_modules(ib.__path__)}
        modules = [ib, *submodules.values()]
        for module_name, attr, name in TRACED:
            module = submodules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(method, raw.__func__, name))
                else:
                    wrapped = self._wrap(method, raw, name)
                self._patches.append((cls, method, raw))
                setattr(cls, method, wrapped)
                continue
            original = getattr(module, attr)
            self._replace(modules, original, self._wrap(attr, original, name))
        for module_name, attr, counter in COUNTED:
            original = getattr(submodules[module_name], attr)
            self._replace(modules, original, self._counting(original, counter))

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reports ------------------------------------------------------------------

    def self_times(self, scale: float = 1.0) -> dict[str, float]:
        """Total self time per span name, times ``scale``: duration minus time
        in child spans and minus paused time."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _job, _paused in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name_id, start, end, _parent, _job, paused) in enumerate(self.spans):
            totals[self.names[name_id]] += scale * ((end - start) - child[i] - paused)
        return dict(totals)

    def support_counts(self) -> tuple[int, int]:
        """(candidates, improving): BA calls under a support search after the
        first (full-support) one, and how many raised the best value so far."""
        support = self._name_ids.get("optimize.support")
        ba = self._name_ids.get("optimize.ba")
        calls: dict[int, list[float]] = defaultdict(list)
        for i, (name_id, _s, _e, parent, _job, _paused) in enumerate(self.spans):
            if name_id == ba and parent >= 0 and self.spans[parent][0] == support:
                calls[parent].append(self.results[i])
        candidates = improving = 0
        for values in calls.values():
            best = -np.inf
            for value in values[1:]:
                candidates += 1
                if value > best:
                    improving += 1
                    best = value
        return candidates, improving

    def metrics(self, max_gap: float, scale: float) -> dict[str, float]:
        """The per-layer metrics; self times are multiplied by ``scale``."""
        own = self.self_times(scale)
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        candidates, improving = self.support_counts()
        out = {
            "model.enumerate_s": own.get("model.enumerate", 0.0),
            "model.trees": c["model.trees"],
            "model.rollout_s": own.get("model.rollout", 0.0),
            "model.rollout_calls": c["model.rollout_calls"],
            "optimize.tree_matrix_s": own.get("optimize.tree_matrix", 0.0),
            "model.joint_s": own.get("model.joint", 0.0),
            "model.joint_builds": c["model.joint_builds"],
            "model.joint_cells": c["model.joint_cells"],
            "model.joint_nonzeros": c["model.joint_nonzeros"],
            "model.joint_fill": ratio(c["model.joint_nonzeros"], c["model.joint_cells"]),
            "probability.entropy_s": own.get("probability.entropy", 0.0),
            "probability.entropy_calls": c["probability.entropy_calls"],
            "probability.entropy_repeat_ratio": ratio(c["probability.entropy_repeats"],
                                                      c["probability.entropy_calls"]),
            "cutset.eval_s": own.get("cutset.eval", 0.0),
            "cutset.evals": c["cutset.evals"],
            "strategies.eval_s": own.get("strategies.eval", 0.0),
            "strategies.evals": c["strategies.evals"],
            "optimize.ba_s": own.get("optimize.ba", 0.0),
            "optimize.ba_calls": c["optimize.ba_calls"],
            "optimize.ba_iterations": c["optimize.ba_iterations"],
            "optimize.support_s": own.get("optimize.support", 0.0),
            "optimize.support_candidates": candidates,
            "optimize.support_improving_ratio": ratio(improving, candidates),
            "optimize.maxmin_s": own.get("optimize.maxmin", 0.0),
            "optimize.ascent_steps": c["optimize.ascent_steps"],
            "optimize.grid_points": c["optimize.grid_points"],
            "optimize.max_gap_bits": max_gap,
            "specio.parse_s": own.get("specio.parse", 0.0),
            "model.compile_s": own.get("model.compile", 0.0),
            "gaussian.gap_s": own.get("gaussian.gap", 0.0),
            "cli.command_s": own.get("cli.command", 0.0),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in own.items()
                                         if k.split(".")[0] == layer)
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON: a names table plus one list per span."""
        with open(path, "w") as f:
            json.dump({"names": self.names, "fields": ["name", "start", "end",
                                                       "parent", "job", "paused"],
                       "spans": self.spans, "counts": dict(self.counts)}, f)
