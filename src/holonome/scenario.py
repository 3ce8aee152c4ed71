"""Scenario files: JSON descriptions of a connection, named paths and
families, and an ordered task list, executed into a report.

Schema v1 (see README for the full field list):

    {
      "version": 1,
      "description": "...",
      "connection": {"builtin": "abelian-area(1.5)"}
                    or {"group": {"kind": "SO", "k": 2},
                        "charts": [...], "transitions": [...]},
      "paths":    {"name": {"segments": [{"chart": 0,
                                          "coords": ["x1", "0"],
                                          "range": [0.0, 1.0]}]}},
      "families": {"name": {"chart": 0, "coords": ["...", "..."],
                            "s_samples": 11}},
      "solver":   {"method": "rk4-fixed", "h": 0.001,
                   "project_every": 8, "tol": 1e-10},
      "tasks":    [{"kind": "transport", "path": "name",
                    "expect": {"matrix": [[...]], "tol": 1e-7}}, ...]
    }

Every name a task references must be declared; validation happens before
any computation.  Reports echo every numeric parameter that affects a
result and are byte-identical across runs except for the timestamp.
"""

from __future__ import annotations

import datetime
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .connection import (
    ChartSpec,
    ConnectionForm,
    ExprMatrixFunction,
    Transition,
    builtin_connection,
)
from .errors import HolonomeError, SchemaError, ValidationError
from .exprs import parse
from .groups import StructureGroup, frobenius, identity_element
from .holonomy import (
    HomotopyFamily,
    flatness_verdict,
    holonomy,
    homotopy_scan,
    shrinking_loop_curvature,
)
from .paths import ChartPoint, PathSpec, Segment, box_grid
from .reconstruction import reconstruct_connection, roundtrip_report
from .transport import (
    SolverConfig,
    engine_oracle,
    lift_path,
    standard_axiom_suite,
    transport,
    verify_axioms,
)

__all__ = ["Scenario", "load_scenario", "run_scenario", "TASK_KINDS"]

TASK_KINDS = (
    "transport",
    "holonomy",
    "verify_axioms",
    "reconstruct",
    "roundtrip",
    "shrinking_curvature",
    "homotopy_scan",
    "flatness_verdict",
)


@dataclass(frozen=True)
class Scenario:
    description: str
    connection: ConnectionForm
    paths: dict
    families: dict
    solver: SolverConfig
    tasks: tuple


_REQUIRED = object()

# the numeric fields of a task, and of its grid and expect objects, each
# converted by _as: int or float, or [kind] for a list of them
_TASK_NUMBERS = {
    "chart": int, "mu": int, "nu": int, "samples": int, "tol": float, "h": float,
    "h_final": float, "hs": [float], "eps": [float], "x": [float],
}
_GRID_NUMBERS = {"shape": int, "lo": [float], "hi": [float]}
_EXPECT_NUMBERS = {
    "tol": float, "angle": float, "max_spread": float, "min_spread": float, "matrix": [[float]],
}
# the field each task kind cannot run without
_TASK_NEEDS = {"transport": "path", "holonomy": "loop", "homotopy_scan": "family",
               "shrinking_curvature": "x"}


def _need(doc, key, where, kind=None, default=_REQUIRED):
    """doc[key], checked to be a kind when kind is given, or default when
    doc lacks the key and a default is given.  A SchemaError when doc, at
    where in the document, is not an object, or the field is missing or of
    another kind."""
    if not isinstance(doc, dict):
        raise SchemaError(f"expected an object, got {doc!r}", where)
    if key not in doc:
        if default is not _REQUIRED:
            return default
        raise SchemaError(f"missing required field {key!r}", where)
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"field {key!r} has the wrong type", f"{where}.{key}")
    return value


def _as(value, kind, where):
    """A field's value converted by kind: int or float for a scalar, [kind]
    for a list of such values.  A SchemaError at where, the field's path in
    the document, when it will not convert."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise SchemaError(f"expected a list, got {value!r}", where)
        return [_as(v, kind[0], f"{where}[{i}]") for i, v in enumerate(value)]
    try:
        return kind(value)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise SchemaError(f"expected {noun}, got {value!r}", where) from None


def _converted(doc, numbers, where):
    """A copy of the object doc, at where in the document, with each field
    named in numbers converted by _as."""
    doc = dict(doc)
    for key, kind in numbers.items():
        if key in doc:
            doc[key] = _as(doc[key], kind, f"{where}.{key}")
    return doc


def _matrix_function(rows, dim, where):
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise SchemaError(f"expected a list of rows, got {rows!r}", where)
    try:
        entries = [[parse(str(cell), dim) for cell in row] for row in rows]
    except HolonomeError as err:
        raise SchemaError(f"bad expression: {err}", where) from None
    try:
        return ExprMatrixFunction(entries, dim)
    except HolonomeError as err:
        raise SchemaError(str(err), where) from None


def _parse_list(sources, dim, where):
    try:
        return tuple(parse(str(s), dim) for s in sources)
    except HolonomeError as err:
        raise SchemaError(f"bad expression: {err}", where) from None


def _load_connection(doc, where):
    if "builtin" in doc:
        try:
            return builtin_connection(_need(doc, "builtin", where, str))
        except ValidationError as err:
            raise SchemaError(str(err), f"{where}.builtin") from None
    group_doc = _need(doc, "group", where, dict)
    group = StructureGroup(
        _need(group_doc, "kind", f"{where}.group", str),
        _as(_need(group_doc, "k", f"{where}.group"), int, f"{where}.group.k"),
    )
    charts = []
    for i, cdoc in enumerate(_need(doc, "charts", where, list)):
        cw = f"{where}.charts[{i}]"
        dim = _as(_need(cdoc, "dim", cw), int, f"{cw}.dim")
        box = _need(cdoc, "box", cw, list)
        if len(box) != 2:
            raise SchemaError("box must be [lo, hi]", cw)
        lo, hi = _as(box, [[float]], f"{cw}.box")
        coeff_rows = _need(cdoc, "coefficients", cw, list)
        if len(coeff_rows) != dim:
            raise SchemaError(f"need {dim} coefficient matrices", cw)
        coeffs = tuple(
            _matrix_function(rows, dim, f"{cw}.coefficients[{mu}]")
            for mu, rows in enumerate(coeff_rows)
        )
        chart_id = _as(_need(cdoc, "id", cw), int, f"{cw}.id")
        try:
            charts.append(ChartSpec(chart_id, dim, lo, hi, coeffs))
        except HolonomeError as err:
            raise SchemaError(str(err), cw) from None
    transitions = []
    for i, tdoc in enumerate(_need(doc, "transitions", where, list, [])):
        tw = f"{where}.transitions[{i}]"
        src = _as(_need(tdoc, "from", tw), int, f"{tw}.from")
        dims = [c.dim for c in charts if c.chart_id == src]
        if not dims:
            raise SchemaError(f"no chart has id {src}", f"{tw}.from")
        coord_map = _parse_list(_need(tdoc, "map", tw, list), dims[0], f"{tw}.map")
        gauge = _matrix_function(_need(tdoc, "gauge", tw, list), dims[0], f"{tw}.gauge")
        dst = _as(_need(tdoc, "to", tw), int, f"{tw}.to")
        transitions.append(Transition(src, dst, coord_map, gauge))
    try:
        return ConnectionForm(group, tuple(charts), tuple(transitions))
    except HolonomeError as err:
        raise ValidationError(f"connection rejected: {err}") from None


def _load_path(doc, where):
    segs = []
    seg_docs = _need(doc, "segments", where, list)
    n = len(seg_docs)
    for i, sdoc in enumerate(seg_docs):
        sw = f"{where}.segments[{i}]"
        coords = _parse_list(_need(sdoc, "coords", sw, list), 1, f"{sw}.coords")
        rng = _need(sdoc, "range", sw, list, [i / n, (i + 1) / n])
        if len(rng) != 2:
            raise SchemaError(f"range must be [t0, t1], got {rng!r}", f"{sw}.range")
        t0, t1 = (_as(t, float, f"{sw}.range") for t in rng)
        chart_id = _as(_need(sdoc, "chart", sw), int, f"{sw}.chart")
        try:
            segs.append(Segment(chart_id, coords, t0, t1))
        except HolonomeError as err:
            raise SchemaError(str(err), sw) from None
    try:
        return PathSpec(tuple(segs))
    except HolonomeError as err:
        raise SchemaError(str(err), where) from None


def _load_family(doc, where):
    coords = _parse_list(_need(doc, "coords", where, list), 2, f"{where}.coords")
    chart_id = _as(_need(doc, "chart", where), int, f"{where}.chart")
    s_samples = _as(doc.get("s_samples", 11), int, f"{where}.s_samples")
    try:
        return HomotopyFamily(chart_id, coords, s_samples)
    except HolonomeError as err:
        raise SchemaError(str(err), where) from None


def load_scenario(path_or_doc):
    """Load and fully validate a scenario (file path, JSON text, or dict).

    Raises SchemaError with a path into the document for structural
    problems and ValidationError for semantic ones (undeclared names,
    incompatible transitions)."""
    if isinstance(path_or_doc, dict):
        doc = path_or_doc
    else:
        text = path_or_doc
        if os.path.exists(str(path_or_doc)):
            with open(path_or_doc, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise SchemaError(f"not valid JSON: {err}", "$") from None
    if not isinstance(doc, dict):
        raise SchemaError("scenario must be a JSON object", "$")
    if doc.get("version", 1) != 1:
        raise SchemaError("unsupported scenario version", "$.version")

    conn = _load_connection(_need(doc, "connection", "$", dict), "$.connection")
    paths = {
        name: _load_path(pdoc, f"$.paths.{name}")
        for name, pdoc in _need(doc, "paths", "$", dict, {}).items()
    }
    families = {
        name: _load_family(fdoc, f"$.families.{name}")
        for name, fdoc in _need(doc, "families", "$", dict, {}).items()
    }
    sdoc = _need(doc, "solver", "$", dict, {})
    numbers = (
        _as(sdoc.get("h", 1e-3), float, "$.solver.h"),
        _as(sdoc.get("project_every", 8), int, "$.solver.project_every"),
        _as(sdoc.get("tol", 1e-10), float, "$.solver.tol"),
    )
    try:
        solver = SolverConfig(sdoc.get("method", "rk4-fixed"), *numbers)
    except HolonomeError as err:
        raise SchemaError(str(err), "$.solver") from None
    tasks = tuple(
        _load_task(task, i, paths, families, conn.group.k)
        for i, task in enumerate(_need(doc, "tasks", "$", list, []))
    )
    return Scenario(doc.get("description", ""), conn, paths, families, solver, tasks)


def _load_task(task, i, paths, families, k):
    """Task i, checked against the declared paths and families, with its
    numeric fields converted by _as."""
    tw = f"$.tasks[{i}]"
    kind = _need(task, "kind", tw, str)
    if kind not in TASK_KINDS:
        raise SchemaError(f"unknown task kind {kind!r}", f"{tw}.kind")
    for key, declared, noun in (("path", paths, "path"), ("loop", paths, "path"),
                                ("family", families, "family")):
        name = _need(task, key, tw, str, None)
        if name is not None and name not in declared:
            raise ValidationError(f"task {i} references undeclared {noun} {name!r}")
    need = _TASK_NEEDS.get(kind)
    if need is not None and need not in task:
        raise SchemaError(f"{kind} task needs a {need!r}", tw)
    task = _converted(task, _TASK_NUMBERS, tw)
    for key, numbers in (("grid", _GRID_NUMBERS), ("expect", _EXPECT_NUMBERS)):
        if key in task:
            task[key] = _converted(_need(task, key, tw, dict), numbers, f"{tw}.{key}")
    matrix = task.get("expect", {}).get("matrix")
    if matrix is not None and (len(matrix) != k or any(len(row) != k for row in matrix)):
        raise SchemaError(f"expected a {k} x {k} matrix", f"{tw}.expect.matrix")
    return task


# --- execution -----------------------------------------------------------------


def _json_matrix(m):
    return [[float(v) for v in row] for row in np.asarray(m)]


def _json_group_element(g):
    return {
        "matrix": _json_matrix(g.matrix),
        "orthogonality_defect": g.orthogonality_defect,
    }


def _json_point(pt):
    return {"chart": pt.chart_id, "coords": [float(c) for c in pt.coords]}


def _wrap_angle(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def _check_expectation(task, result_payload):
    """Evaluate a task's declared expectation; None when none declared."""
    expect = task.get("expect")
    if expect is None:
        return None, None
    tol = expect.get("tol", 1e-7)
    for key, field in (("matrix", "g"), ("verdict", "verdict"), ("max_spread", "spread"),
                       ("min_spread", "spread")):
        if key in expect and field not in result_payload:
            raise ValidationError(f"a {task['kind']} task has no {field} to hold to expect.{key}")
    if "matrix" in expect:
        got = np.asarray(result_payload["g"]["matrix"], dtype=float)
        want = np.asarray(expect["matrix"], dtype=float)
        dev = frobenius(got - want)
        return bool(dev <= tol), {"matrix_deviation": dev, "tol": tol}
    if "angle" in expect:
        got = result_payload.get("angle")
        if got is None:
            return False, {"reason": "no angle available"}
        dev = abs(_wrap_angle(float(got) - expect["angle"]))
        return bool(dev <= tol), {"angle_deviation_mod_2pi": dev, "tol": tol}
    if "verdict" in expect:
        got = result_payload["verdict"]
        return bool(got == expect["verdict"]), {"verdict": got, "expected": expect["verdict"]}
    if "max_spread" in expect:
        got = result_payload["spread"]
        return bool(got <= expect["max_spread"]), {"spread": got}
    if "min_spread" in expect:
        got = result_payload["spread"]
        return bool(got >= expect["min_spread"]), {"spread": got}
    if "passed" in expect:
        return bool(result_payload.get("passed") == expect["passed"]), {}
    raise ValidationError(f"unknown expectation {sorted(expect)!r}")


def _run_task(scenario, task, index, out_dir, trace_csv):
    conn = scenario.connection
    cfg = scenario.solver
    kind = task["kind"]
    params = {"solver": asdict(cfg)}
    payload = {}

    if kind == "transport":
        gamma = scenario.paths[task["path"]]
        params["path"] = task["path"]
        res = transport(conn, gamma, cfg)
        payload = {
            "start": _json_point(res.start),
            "end": _json_point(res.end),
            "g": _json_group_element(res.g),
            "step_count": res.step_count,
            "est_error": res.est_error,
        }
        if trace_csv:
            payload["trace_csv"] = _write_trace(
                conn, gamma, cfg, out_dir, f"trace-{index:02d}-transport.csv"
            )
    elif kind == "holonomy":
        loop = scenario.paths[task["loop"]]
        params["loop"] = task["loop"]
        res = holonomy(conn, loop, cfg)
        payload = {"g": _json_group_element(res.g), "angle": res.angle}
        if trace_csv:
            payload["trace_csv"] = _write_trace(
                conn, loop, cfg, out_dir, f"trace-{index:02d}-holonomy.csv"
            )
    elif kind == "verify_axioms":
        tol = task.get("tol", 1e-7)
        params["tol"] = tol
        suite = standard_axiom_suite(conn, task.get("chart"))
        report = verify_axioms(engine_oracle(conn, cfg), suite, tol)
        payload = report.as_dict()
    elif kind == "reconstruct":
        chart = conn.chart(task.get("chart", conn.charts[0].chart_id))
        grid_doc = task.get("grid", {})
        shape = grid_doc.get("shape", 5)
        center = 0.5 * (chart.lo + chart.hi)
        quarter = 0.25 * (chart.hi - chart.lo)
        lo = np.asarray(grid_doc.get("lo", center - quarter), dtype=float)
        hi = np.asarray(grid_doc.get("hi", center + quarter), dtype=float)
        if len(lo) != chart.dim or len(hi) != chart.dim:
            raise ValidationError(f"grid lo and hi need {chart.dim} coordinates each")
        h = task.get("h", 1e-3)
        params.update({"h": h, "grid": {"lo": lo.tolist(), "hi": hi.tolist(), "shape": shape}})
        grid = box_grid(chart.chart_id, lo, hi, shape)
        table = reconstruct_connection(engine_oracle(conn, cfg), grid, h, conn.group)
        csv_name = f"reconstruction-{index:02d}.csv"
        table.to_csv(os.path.join(out_dir, csv_name))
        payload = {
            "points": len(table.points),
            "dropped": [{"point": _json_point(pt), "reason": reason}
                        for pt, reason in table.dropped],
            "csv": csv_name,
        }
    elif kind == "roundtrip":
        hs = tuple(task.get("hs", (1e-2, 5e-3, 2.5e-3)))
        h_final = task.get("h_final", 1e-3)
        params.update({"hs": list(hs), "h_final": h_final})
        payload = roundtrip_report(conn, cfg, hs, h_final).as_dict()
    elif kind == "shrinking_curvature":
        chart = task.get("chart", conn.charts[0].chart_id)
        x = ChartPoint(chart, task["x"])
        mu, nu = task.get("mu", 1) - 1, task.get("nu", 2) - 1
        eps = tuple(task.get("eps", (0.2, 0.1, 0.05)))
        params.update({"x": _json_point(x), "mu": mu + 1, "nu": nu + 1, "eps": list(eps)})
        report = shrinking_loop_curvature(engine_oracle(conn, cfg), x, mu, nu, eps)
        payload = {
            "estimates": [_json_matrix(m) for m in report.estimates],
            "g": {"matrix": _json_matrix(report.extrapolated), "orthogonality_defect": None},
            "order": report.order,
            "degenerate": report.degenerate,
        }
    elif kind == "homotopy_scan":
        fam = scenario.families[task["family"]]
        params.update({"family": task["family"], "s_samples": fam.s_samples})
        report = homotopy_scan(engine_oracle(conn, cfg), fam)
        payload = {"spread": report.spread, "s_values": list(report.s_values)}
        if trace_csv:
            payload["trace_csv"] = [
                _write_trace(conn, fam.member(s), cfg, out_dir,
                             f"trace-{index:02d}-homotopy-s{j:02d}.csv")
                for j, s in enumerate(report.s_values)
            ]
    elif kind == "flatness_verdict":
        samples = task.get("samples", 7)
        tol = task.get("tol", 1e-6)
        params.update({"samples": samples, "tol": tol})
        payload = flatness_verdict(conn, cfg, samples=samples, tol=tol).as_dict()
    else:  # pragma: no cover - load_scenario rejects unknown kinds
        raise ValidationError(f"unknown task kind {kind!r}")

    passed, check = _check_expectation(task, payload)
    if check:
        payload["expectation"] = check
    return {"index": index, "kind": kind, "params": params,
            "result": payload, "passed": passed, "error": None}


def _write_trace(conn, gamma, cfg, out_dir, name):
    lifted = lift_path(conn, gamma, identity_element(conn.group), cfg)
    k = conn.group.k
    dim = lifted.samples[0][1].dim
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        header = ["t", "chart"] + [f"x{d + 1}" for d in range(dim)]
        header += [f"U[{i}][{j}]" for i in range(k) for j in range(k)]
        fh.write(",".join(header) + "\n")
        for t, pt, g in lifted.samples:
            row = [repr(float(t)), str(pt.chart_id)]
            row += [repr(float(c)) for c in pt.coords]
            row += [repr(float(v)) for v in g.matrix.ravel()]
            fh.write(",".join(row) + "\n")
    return name


def run_scenario(scenario, out_dir=".", trace_csv=False):
    """Execute every task in order and write report.json into out_dir.

    Returns (exit_code, report dict).  Exit 0 when every declared
    expectation holds, 2 when any fails, 1 when any task errors; a failing
    task never aborts the ones after it.  Reports are deterministic except
    for the timestamp field.
    """
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    any_error = False
    any_fail = False
    for index, task in enumerate(scenario.tasks):
        try:
            entry = _run_task(scenario, task, index, out_dir, trace_csv)
        except HolonomeError as err:
            entry = {
                "index": index,
                "kind": task.get("kind"),
                "params": {},
                "result": None,
                "passed": None,
                "error": {"type": type(err).__name__, "message": str(err)},
            }
        if entry["error"] is not None:
            any_error = True
        if entry["passed"] is False:
            any_fail = True
        entries.append(entry)
    report = {
        "version": 1,
        "description": scenario.description,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "tasks": entries,
    }
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    code = 1 if any_error else (2 if any_fail else 0)
    return code, report
