"""Spans around holonome's public functions, installed from outside.

``Tracer.install()`` replaces each traced function by a wrapper in every
holonome module namespace that holds it (modules import each other's names
with ``from .groups import project_to_group``), and wraps the ``value`` /
``value_and_grad`` methods of every coefficient-function class.  Each call
appends one span (function, parent span, operation id, start, end, count)
to an in-memory list; nothing is written until ``save``.  A span's self
time is its duration minus the durations of its child spans.
"""

import functools
import os
import sys
import time

import numpy as np


def _rows(X):
    shape = np.shape(X)
    return 1 if len(shape) < 2 else shape[0]


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


# layer -> (module, function names); the count taken from each call follows
# in COUNTS.
FUNCTIONS = {
    "exprs": ("holonome.exprs", ("evaluate_many", "evaluate_dual_many", "substitute", "parse")),
    "connection": ("holonome.connection", ("curvature_at", "is_flat")),
    "groups": ("holonome.groups", ("project_to_group", "group_log", "group_exp", "group_inverse")),
    "paths": ("holonome.paths", (
        "constant_path", "line_path", "arc_path", "path_from_exprs", "path_from_strings",
        "path_point", "path_velocity", "subpath", "juxtapose", "reparametrize", "reverse_path",
    )),
    "transport": ("holonome.transport", ("transport", "lift_path", "verify_axioms")),
    "reconstruction": ("holonome.reconstruction", (
        "lift_vector", "reconstruct_connection", "roundtrip_report",
    )),
    "holonomy": ("holonome.holonomy", (
        "holonomy", "homotopy_scan", "flatness_verdict", "shrinking_loop_curvature",
    )),
    "scenario": ("holonome.scenario", ("load_scenario", "run_scenario")),
}

COUNTS = {
    "evaluate_many": lambda a, k, out: _rows(a[1]),
    "evaluate_dual_many": lambda a, k, out: _rows(a[1]),
    "value": lambda a, k, out: _rows(a[1]),
    "value_and_grad": lambda a, k, out: _rows(a[1]),
    "curvature_at": lambda a, k, out: 1,
    "gauge_at": lambda a, k, out: 1,
    "map_coords": lambda a, k, out: 1,
    "transport": lambda a, k, out: out.step_count,
    "lift_path": lambda a, k, out: len(out.samples) - 1,
    "reconstruct_connection": lambda a, k, out: len(out.entries),
    "run_scenario": lambda a, k, out: _dir_bytes(a[1] if len(a) > 1 else k.get("out_dir", ".")),
}


def unit_of(metric_name):
    """Unit of a layer metric, from the part of its name after the layer."""
    kind = metric_name.split(".", 1)[1]
    return {"self_ms": "ms", "ms_per_call": "ms", "report_bytes": "B"}.get(kind, "count")


class Tracer:
    """Span recorder for the holonome modules already imported.

    ``install`` swaps the wrappers in and ``uninstall`` puts the original
    functions back, so traced and untraced rounds can alternate."""

    def __init__(self):
        self.names = []  # function index -> (layer, name)
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.paused = False
        self.patches = []  # (namespace object, attribute, original, wrapper)
        mods = [m for n, m in sys.modules.items() if n == "holonome" or n.startswith("holonome.")]
        for layer, (modname, names) in FUNCTIONS.items():
            for name in names:
                original = getattr(sys.modules[modname], name)
                wrapped = self._wrap(layer, name, original)
                if name == "lift_vector":
                    wrapped = self._count_oracle(wrapped)
                self.patches += [(m, name, original, wrapped) for m in mods if vars(m).get(name) is original]
        conn_mod = sys.modules["holonome.connection"]
        methods = [(cls, name) for cls in _subclasses(conn_mod.MatrixFunction)
                   for name in ("value", "value_and_grad") if name in vars(cls)]
        methods += [(conn_mod.Transition, "gauge_at"), (conn_mod.Transition, "map_coords")]
        for cls, name in methods:
            original = vars(cls)[name]
            self.patches.append((cls, name, original, self._wrap("connection", name, original)))

    def install(self):
        for target, name, _, wrapped in self.patches:
            setattr(target, name, wrapped)

    def uninstall(self):
        for target, name, original, _ in self.patches:
            setattr(target, name, original)

    def _register(self, layer, name):
        self.names.append((layer, name))
        return len(self.names) - 1

    def _wrap(self, layer, name, fn):
        return self._span(self._register(layer, name), fn, COUNTS.get(name))

    def _span(self, idx, fn, count=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                n = count(args, kwargs, out) if count is not None and out is not None else 0
                spans[sid] = (idx, parent, self.op_id, t0, t1, n)

        return wrapper

    def _count_oracle(self, lift_vector):
        """Give the oracle handed to lift_vector a span of its own, so that
        its calls are counted and its time is not reconstruction's.  An
        oracle from outside holonome is a black box: the holonome functions
        it calls run untraced, so the layers count holonome's own work."""
        idx = self._register("oracle", "oracle")

        @functools.wraps(lift_vector)
        def wrapper(oracle, *args, **kwargs):
            if not getattr(oracle, "__module__", "").startswith("holonome"):
                oracle = self._paused(oracle)
            return lift_vector(self._span(idx, oracle), *args, **kwargs)

        return wrapper

    def _paused(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.paused = True
            try:
                return fn(*args, **kwargs)
            finally:
                self.paused = False

        return wrapper

    def arrays(self):
        rows = np.array(self.spans, dtype=float).reshape(-1, 6)
        return {
            "function": rows[:, 0].astype(int),
            "parent": rows[:, 1].astype(int),
            "op": rows[:, 2].astype(int),
            "start": rows[:, 3],
            "end": rows[:, 4],
            "count": rows[:, 5].astype(np.int64),
        }

    def save(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = np.array([f"{layer}.{name}" for layer, name in self.names])
        np.savez_compressed(path, names=names, **self.arrays())

    def layer_metrics(self, n_ops):
        """Per-operation layer metrics over every recorded span."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        layer_of = np.array([layer for layer, _ in self.names])[a["function"]]
        name_of = np.array([name for _, name in self.names])[a["function"]]
        per = 1.0 / n_ops

        def calls(mask):
            return np.count_nonzero(mask) * per

        def counted(mask):
            return float(a["count"][mask].sum()) * per

        def self_ms(layer):
            return float(own[layer_of == layer].sum()) * 1e3 * per

        lay = {layer: layer_of == layer for layer in FUNCTIONS}
        integrations = np.isin(name_of, ("transport", "lift_path"))
        n_int = np.count_nonzero(integrations)
        return {
            "transport.calls": calls(lay["transport"]),
            "transport.steps": counted(lay["transport"]),
            "transport.self_ms": self_ms("transport"),
            "transport.ms_per_call": float(dur[integrations].sum()) * 1e3 / n_int if n_int else 0.0,
            "exprs.calls": calls(lay["exprs"]),
            "exprs.points": counted(lay["exprs"]),
            "exprs.self_ms": self_ms("exprs"),
            "connection.calls": calls(lay["connection"]),
            "connection.points": counted(lay["connection"]),
            "connection.self_ms": self_ms("connection"),
            "groups.project_calls": calls(name_of == "project_to_group"),
            "groups.log_calls": calls(name_of == "group_log"),
            "groups.self_ms": self_ms("groups"),
            "paths.calls": calls(lay["paths"]),
            "paths.self_ms": self_ms("paths"),
            "reconstruction.oracle_calls": calls(layer_of == "oracle"),
            "reconstruction.entries": counted(lay["reconstruction"]),
            "reconstruction.self_ms": self_ms("reconstruction"),
            "holonomy.calls": calls(lay["holonomy"]),
            "holonomy.self_ms": self_ms("holonomy"),
            "scenario.report_bytes": counted(lay["scenario"]),
            "scenario.self_ms": self_ms("scenario"),
        }


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
