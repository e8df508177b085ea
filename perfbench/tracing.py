"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of ``radfree`` from outside the package and
records one span per call: name, start, end, parent span and trace id.  Spans
of one row (a sweep radicand) or one catalogue instance share the trace id.
The radfree modules import each other with ``from .x import y``, so a wrapper
is bound under every name in every ``radfree`` module that holds the
original, not only where the function is defined.  Two hot methods get call
counts only, because a span per call would dominate their cost.

Spans stay in memory during the run; ``layer_stats`` turns them into calls,
self time and total time per layer, and ``Tracer.write`` saves them at exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute path) of every traced public function.  The metric
# prefix is "<module>.<attribute path>".  A class name alone wraps __init__.
LAYERS = (
    ("basefield", "factor_kideal"),
    ("basefield", "ideal_valuation"),
    ("basefield", "KIdeal.from_generators"),
    ("basefield", "is_principal"),
    ("basefield", "ClassGroup.class_of"),
    ("sympy", "factorint"),
    ("lattices", "hnf"),
    ("extension", "RadicandContext"),
    ("extension", "span_lattice"),
    ("extension", "hnf_glue"),
    ("radical", "tameness_test"),
    ("radical", "associated_ideals"),
    ("radical", "i_part_decomposition"),
    ("integral", "local_basis"),
    ("integral", "uniformizer"),
    ("integral", "solve_coordinates"),
    ("integral", "global_integral_basis"),
    ("integral", "field_index_and_discriminant"),
    ("dedekind", "dedekind_maximality_oracle"),
    ("hopf", "local_generator"),
    ("hopf", "class_of_MOL"),
    ("hopf", "act"),
    ("freeness", "criterion_check"),
    ("freeness", "verify_generator"),
    ("report", "analyze"),
    ("report", "canonical_json"),
    ("report", "verify_report"),
    ("cli", "main"),
)

# (module, class, method, metric prefix): call counts only.
COUNTED = (
    ("basefield", "KElem", "__mul__", "basefield.KElem.mul"),
    ("extension", "LElem", "__mul__", "extension.LElem.mul"),
)

# Layers whose calls per report.analyze call show duplicated stages.
PER_ANALYSIS = (
    "freeness.verify_generator",
    "integral.global_integral_basis",
    "radical.associated_ideals",
    "extension.RadicandContext",
    "basefield.factor_kideal",
)

# Spans that open a new trace id unless they run inside another row.
ROW_SPANS = frozenset({"report.analyze", "bench.instance"})


def layer_names() -> list[str]:
    return [f"{mod}.{path}" for mod, path in LAYERS]


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in layer_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"),
                (f"{name}.total_s", "s")]
    out += [(f"{prefix}.calls", "count") for *_, prefix in COUNTED]
    out += [(f"{name}.per_analysis", "ratio") for name in PER_ANALYSIS]
    out += [("trace.wall_s", "s"), ("trace.overhead", "ratio")]
    return out


def _module(mod: str):
    return importlib.import_module(mod if mod == "sympy" else f"radfree.{mod}")


def layer_stats(names, starts, ends, parents) -> dict[str, dict[str, float]]:
    """Calls, self time and total time per span name.

    Spans are indexed in the order they began, so a parent precedes its
    children.  Self time is a span's duration minus its children's
    durations.  Total time counts only the outermost span of a name, so a
    layer that calls itself is not counted twice.
    """
    n = len(names)
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += ends[i] - starts[i]
    stats: dict[str, dict[str, float]] = {}
    path: list[int] = []
    on_path: Counter = Counter()
    for i in range(n):
        while path and path[-1] != parents[i]:
            on_path[names[path.pop()]] -= 1
        dur = ends[i] - starts[i]
        st = stats.setdefault(names[i], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        st["calls"] += 1
        st["self_s"] += dur - child[i]
        if on_path[names[i]] == 0:
            st["total_s"] += dur
        path.append(i)
        on_path[names[i]] += 1
    return stats


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.trace_ids: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.missing: list[str] = []        # layers not found; fails the run
        self._stack: list[int] = []
        self._rows = 0                      # row spans currently open
        self._on = [True]                   # False while paused
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------
    def _enter(self, name: str) -> int:
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        row = name in ROW_SPANS
        if parent < 0 or (row and self._rows == 0):
            tid = idx
        else:
            tid = self.trace_ids[parent]
        self._rows += row
        self.names.append(name)
        self.parents.append(parent)
        self.trace_ids.append(tid)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _exit(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self._rows -= self.names[idx] in ROW_SPANS

    @contextmanager
    def paused(self):
        """Calls made inside run untraced: the benchmark's own checks."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, name: str, fn):
        enter, exit_, on = self._enter, self._exit, self._on

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            idx = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx)
        return traced

    # -- installation -----------------------------------------------------
    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, home, original, wrapped):
        """Bind ``wrapped`` wherever a radfree module (or ``home``) holds
        ``original``."""
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "radfree" or n.startswith("radfree."))]
        if home not in holders:
            holders.append(home)
        for mod in holders:
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, wrapped)

    def _wrap_method(self, name: str, cls, meth: str):
        raw = cls.__dict__.get(meth)
        if raw is None:
            self.missing.append(name)
        elif isinstance(raw, staticmethod):
            self._set(cls, meth, staticmethod(self._wrap(name, raw.__func__)))
        else:
            self._set(cls, meth, self._wrap(name, raw))

    def _count_method(self, name: str, cls, meth: str):
        raw = cls.__dict__.get(meth) if isinstance(cls, type) else None
        if raw is None:
            self.missing.append(name)
            return
        cell, on = self.counts.setdefault(name, [0]), self._on

        @functools.wraps(raw)
        def counted(a, b):
            if on[0]:
                cell[0] += 1
            return raw(a, b)
        self._set(cls, meth, counted)

    def install(self):
        import radfree.cli  # noqa: F401  (loads every radfree module)
        for mod, path in LAYERS:
            name = f"{mod}.{path}"
            home = _module(mod)
            head, _, meth = path.partition(".")
            target = getattr(home, head, None)
            if isinstance(target, type):
                self._wrap_method(name, target, meth or "__init__")
            elif target is None:
                self.missing.append(name)
            else:
                self._rebind_everywhere(home, target, self._wrap(name, target))
        for mod, clsname, meth, prefix in COUNTED:
            self._count_method(prefix, getattr(_module(mod), clsname, None), meth)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        stats = layer_stats(self.names, self.starts, self.ends, self.parents)
        empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        out: dict[str, float] = {}
        for name in layer_names():
            for key, val in stats.get(name, empty).items():
                out[f"{name}.{key}"] = val
        for *_, prefix in COUNTED:
            out[f"{prefix}.calls"] = self.counts.get(prefix, [0])[0]
        analyses = out["report.analyze.calls"]
        for name in PER_ANALYSIS:
            out[f"{name}.per_analysis"] = (out[f"{name}.calls"] / analyses
                                           if analyses else 0.0)
        return out

    def write(self, path):
        """Save the spans as JSON: a name table and one
        [name index, start, end, parent, trace id] row per span."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [[index[n], round(s - t0, 7), round(e - t0, 7), p, t]
                for n, s, e, p, t in zip(self.names, self.starts, self.ends,
                                         self.parents, self.trace_ids)]
        with open(path, "w") as fh:
            json.dump({"names": table, "spans": rows,
                       "counts": {k: v[0] for k, v in self.counts.items()}},
                      fh, separators=(",", ":"))
