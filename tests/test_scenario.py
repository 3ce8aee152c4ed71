"""Scenario files, report emission, and the command-line interface."""

import copy
import json
import os

import numpy as np
import pytest

from holonome.cli import main as cli_main
from holonome.errors import SchemaError, ValidationError
from holonome.scenario import load_scenario, run_scenario

MINIMAL = {
    "version": 1,
    "description": "flat transport",
    "connection": {"builtin": "flat-so2"},
    "paths": {
        "line": {"segments": [{"chart": 0, "coords": ["x1", "0.5*x1"], "range": [0.0, 1.0]}]}
    },
    "solver": {"method": "rk4-fixed", "h": 0.001},
    "tasks": [
        {"kind": "transport", "path": "line",
         "expect": {"matrix": [[1.0, 0.0], [0.0, 1.0]], "tol": 1e-9}}
    ],
}


def shipped(name):
    import importlib.resources

    return str(importlib.resources.files("holonome") / "scenarios" / name)


def test_minimal_scenario_runs_to_identity(tmp_path):
    scenario = load_scenario(copy.deepcopy(MINIMAL))
    code, report = run_scenario(scenario, str(tmp_path))
    assert code == 0
    task = report["tasks"][0]
    assert task["passed"] is True
    got = np.asarray(task["result"]["g"]["matrix"])
    assert np.allclose(got, np.eye(2), atol=1e-9)
    assert os.path.exists(tmp_path / "report.json")


def test_undeclared_path_is_named_in_error():
    doc = copy.deepcopy(MINIMAL)
    doc["tasks"][0]["path"] = "gamma9"
    with pytest.raises(ValidationError) as err:
        load_scenario(doc)
    assert "gamma9" in str(err.value)


def test_schema_error_carries_document_path():
    doc = copy.deepcopy(MINIMAL)
    del doc["tasks"][0]["path"]
    with pytest.raises(SchemaError) as err:
        load_scenario(doc)
    assert "tasks[0]" in str(err.value)

    doc = copy.deepcopy(MINIMAL)
    doc["tasks"][0]["kind"] = "teleport"
    with pytest.raises(SchemaError) as err:
        load_scenario(doc)
    assert "kind" in str(err.value)


def test_inline_connection_must_be_algebra_valued():
    doc = {
        "version": 1,
        "connection": {
            "group": {"kind": "SO", "k": 2},
            "charts": [{
                "id": 0, "dim": 2, "box": [[-1, -1], [1, 1]],
                # symmetric, not skew: must be refused at load time
                "coefficients": [
                    [["0", "x1"], ["x1", "0"]],
                    [["0", "0"], ["0", "0"]],
                ],
            }],
        },
        "tasks": [],
    }
    with pytest.raises(ValidationError):
        load_scenario(doc)


def _inline_doc():
    with open(shipped("inline-connection.json")) as fh:
        return json.load(fh)


def test_inline_coefficients_must_be_square():
    """A ragged coefficient matrix is refused with a SchemaError at its place
    in the document, where loading once raised a bare numpy ValueError."""
    doc = _inline_doc()
    doc["connection"]["charts"][0]["coefficients"][0] = [["0", "-1.5"], ["1.5"]]
    with pytest.raises(SchemaError) as err:
        load_scenario(doc)
    assert err.value.where == "$.connection.charts[0].coefficients[0]"


def test_ragged_transition_gauge_is_a_schema_error():
    doc = _inline_doc()
    doc["connection"]["transitions"] = [
        {"from": 0, "to": 0, "map": ["x1", "x2"], "gauge": [["1", "0"], ["0"]]}
    ]
    with pytest.raises(SchemaError) as err:
        load_scenario(doc)
    assert err.value.where == "$.connection.transitions[0].gauge"


def test_transition_from_an_undeclared_chart_is_a_schema_error():
    """A transition from a chart id that no chart has is refused at its
    'from' field, where loading raised a bare StopIteration."""
    doc = _inline_doc()
    doc["connection"]["transitions"] = [
        {"from": 99, "to": 0, "map": ["x1", "x2"], "gauge": [["1", "0"], ["0", "1"]]}
    ]
    with pytest.raises(SchemaError) as err:
        load_scenario(doc)
    assert err.value.where == "$.connection.transitions[0].from"
    assert "99" in str(err.value)


@pytest.mark.parametrize("coord_map", [["x1"], ["x1", "x2", "x1"]])
def test_transition_map_of_the_wrong_length_fails_validation(coord_map, tmp_path, capsys):
    """holonome validate refuses a transition map with too few or too many
    components for its charts, naming the transition, and exits 1, where
    three components escaped as a numpy traceback."""
    doc = _inline_doc()
    doc["connection"]["transitions"] = [
        {"from": 0, "to": 0, "map": coord_map, "gauge": [["1", "0"], ["0", "1"]]}
    ]
    with pytest.raises(ValidationError, match="transition 0->0"):
        load_scenario(doc)
    path = tmp_path / "bad-map.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["validate", str(path)]) == 1
    assert "transition 0->0" in capsys.readouterr().err


MALFORMED_FIELDS = {
    "one-entry range": (("paths", "unit-x", "segments", 0, "range"), [0.0],
                        "$.paths.unit-x.segments[0].range"),
    "word dim": (("connection", "charts", 0, "dim"), "two", "$.connection.charts[0].dim"),
    "word h": (("solver", "h"), "fine", "$.solver.h"),
    "list k": (("connection", "group", "k"), [2], "$.connection.group.k"),
    "null chart": (("paths", "unit-x", "segments", 0, "chart"), None,
                   "$.paths.unit-x.segments[0].chart"),
    "word expect tol": (("tasks", 0, "expect", "tol"), "x", "$.tasks[0].expect.tol"),
    "word expect matrix": (("tasks", 0, "expect", "matrix"), "abc", "$.tasks[0].expect.matrix"),
    "ragged expect matrix": (("tasks", 0, "expect", "matrix"), [[0.0, 1.0], [-1.0]],
                             "$.tasks[0].expect.matrix"),
    "word reconstruct h": (("tasks", 0), {"kind": "reconstruct", "h": "fine"}, "$.tasks[0].h"),
    "curvature without x": (("tasks", 0), {"kind": "shrinking_curvature"}, "$.tasks[0]"),
    "number solver": (("solver",), 5, "$.solver"),
    "list paths": (("paths",), ["x"], "$.paths"),
    "list families": (("families",), ["x"], "$.families"),
    "flat box": (("connection", "charts", 0, "box"), [0, 1], "$.connection.charts[0].box[0]"),
    "number task": (("tasks",), [5], "$.tasks[0]"),
    "number chart": (("connection", "charts", 0), 5, "$.connection.charts[0]"),
    "number segment": (("paths", "unit-x", "segments", 0), 5, "$.paths.unit-x.segments[0]"),
    "number transition": (("connection", "transitions"), [5], "$.connection.transitions[0]"),
    "list task path": (("tasks", 0, "path"), ["a"], "$.tasks[0].path"),
    "reversed range": (("paths", "unit-x", "segments", 0, "range"), [0.5, 0.2],
                       "$.paths.unit-x.segments[0]"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FIELDS))
def test_malformed_scalar_field_is_a_schema_error(name, tmp_path, capsys):
    """A field that will not convert, or a container of the wrong kind, is
    refused with a SchemaError at its place in the document, where loading
    (or holonome run) once raised a bare IndexError, ValueError, TypeError,
    KeyError or AttributeError; holonome validate reports it and exits 1
    instead of crashing."""
    keys, value, where = MALFORMED_FIELDS[name]
    doc = _inline_doc()
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    with pytest.raises(SchemaError) as err:
        load_scenario(doc)
    assert err.value.where == where
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["validate", str(path)]) == 1
    assert where in capsys.readouterr().err


INTEGER_FIELDS = {
    "fractional segment chart": (("paths", "unit-x", "segments", 0, "chart"), 0.7,
                                 "$.paths.unit-x.segments[0].chart"),
    "true segment chart": (("paths", "unit-x", "segments", 0, "chart"), True,
                           "$.paths.unit-x.segments[0].chart"),
    "false chart id": (("connection", "charts", 0, "id"), False, "$.connection.charts[0].id"),
    "fractional group k": (("connection", "group", "k"), 2.5, "$.connection.group.k"),
    "fractional s_samples": (("families", "bump", "s_samples"), 2.7, "$.families.bump.s_samples"),
    "infinite s_samples": (("families", "bump", "s_samples"), float("inf"),
                           "$.families.bump.s_samples"),
    "fractional samples": (("tasks", 0), {"kind": "flatness_verdict", "samples": 7.5},
                           "$.tasks[0].samples"),
    "true project_every": (("solver", "project_every"), True, "$.solver.project_every"),
}
# a bool is no number either: "tol": true once loaded as 1.0
BOOLEAN_NUMBERS = {
    "true expect tol": (("tasks", 0, "expect", "tol"), True, "$.tasks[0].expect.tol"),
    "false solver h": (("solver", "h"), False, "$.solver.h"),
    "true box corner": (("connection", "charts", 0, "box", 1, 0), True,
                        "$.connection.charts[0].box[1][0]"),
}


def _with_family(doc, s_samples=3):
    doc["families"] = {"bump": {"chart": 0, "coords": ["-1 + 2*x1", "0.5*x2*sin(3*x1)*(1 - x1)*x1"],
                                "s_samples": s_samples}}
    return doc


@pytest.mark.parametrize("name", sorted(INTEGER_FIELDS) + sorted(BOOLEAN_NUMBERS))
def test_a_number_field_refuses_a_bool_and_an_integer_field_a_fraction(name):
    """int() once turned 0.7 into chart 0, true into 1 and 2.7 into 2
    s-samples, and float() true into a tolerance of 1.0, without a word:
    each is a SchemaError at its field now."""
    keys, value, where = {**INTEGER_FIELDS, **BOOLEAN_NUMBERS}[name]
    doc = _with_family(_inline_doc())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    with pytest.raises(SchemaError, match="expected an? (integer|number)") as err:
        load_scenario(json.loads(json.dumps(doc)))
    assert err.value.where == where


def test_an_integral_float_loads_as_an_integer():
    doc = _with_family(_inline_doc(), s_samples=3.0)
    doc["paths"]["unit-x"]["segments"][0]["chart"] = 0.0
    scenario = load_scenario(doc)
    assert scenario.families["bump"].s_samples == 3
    assert type(scenario.families["bump"].s_samples) is int
    assert scenario.paths["unit-x"].segments[0].chart_id == 0


def test_task_value_errors_are_reported_and_later_tasks_run(tmp_path):
    """Task values that convert but cannot be used, among them "mu": 0 (the
    fields are 1-based, and axis -1 once wrapped to report F_21 for F_12)
    and an expectation on a field the task's result lacks, give each its
    task a typed error in the report, exit code 1, and the task after them
    still runs."""
    doc = _inline_doc()
    x = [0.1, 0.1]
    doc["tasks"][:0] = [
        {"kind": "shrinking_curvature", "x": x, "mu": 0},
        {"kind": "shrinking_curvature", "x": x, "eps": [0.1]},
        {"kind": "roundtrip", "hs": []},
        {"kind": "reconstruct", "grid": {"shape": -1}},
        {"kind": "reconstruct", "grid": {"lo": [0.0]}},
        {"kind": "transport", "path": "unit-x", "expect": {"verdict": "FLAT"}},
    ]
    code, report = run_scenario(load_scenario(doc), str(tmp_path))
    assert code == 1
    *refused, last = report["tasks"]
    assert [entry["error"]["type"] for entry in refused] == ["ValidationError"] * 6
    assert "mu=-1" in refused[0]["error"]["message"]
    assert last["error"] is None and last["passed"] is True


def test_bad_expression_is_rejected_with_location():
    doc = copy.deepcopy(MINIMAL)
    doc["paths"]["line"]["segments"][0]["coords"] = ["x1 +", "0"]
    with pytest.raises(SchemaError) as err:
        load_scenario(doc)
    assert "segments[0]" in str(err.value)


def test_empty_task_list_exits_zero(tmp_path):
    doc = copy.deepcopy(MINIMAL)
    doc["tasks"] = []
    code, report = run_scenario(load_scenario(doc), str(tmp_path))
    assert code == 0
    assert report["tasks"] == []


def test_failed_expectation_exits_two(tmp_path):
    doc = {
        "version": 1,
        "connection": {"builtin": "abelian-area(1.5)"},
        "tasks": [{"kind": "flatness_verdict", "expect": {"verdict": "FLAT"}}],
    }
    code, report = run_scenario(load_scenario(doc), str(tmp_path))
    assert code == 2
    assert report["tasks"][0]["passed"] is False
    assert report["tasks"][0]["result"]["verdict"] == "CURVED"


def test_task_error_recorded_and_run_continues(tmp_path):
    doc = copy.deepcopy(MINIMAL)
    doc["paths"]["leaves"] = {
        "segments": [{"chart": 0, "coords": ["9*x1", "0"], "range": [0.0, 1.0]}]
    }
    doc["tasks"] = [
        {"kind": "transport", "path": "leaves"},  # exits the chart: error
        {"kind": "transport", "path": "line",
         "expect": {"matrix": [[1.0, 0.0], [0.0, 1.0]], "tol": 1e-9}},
    ]
    code, report = run_scenario(load_scenario(doc), str(tmp_path))
    assert code == 1
    assert report["tasks"][0]["error"]["type"] == "OutsideChartError"
    assert report["tasks"][1]["passed"] is True  # later task still ran


def test_report_is_deterministic_modulo_timestamp(tmp_path):
    scenario = load_scenario(shipped("sphere-latitude.json"))
    run_scenario(scenario, str(tmp_path / "a"))
    run_scenario(scenario, str(tmp_path / "b"))
    a = json.loads((tmp_path / "a" / "report.json").read_text())
    b = json.loads((tmp_path / "b" / "report.json").read_text())
    a.pop("timestamp")
    b.pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_echoes_numeric_parameters(tmp_path):
    doc = {
        "version": 1,
        "connection": {"builtin": "constant-so3"},
        "solver": {"h": 0.02, "project_every": 4, "tol": 1e-9},
        "tasks": [
            {"kind": "shrinking_curvature", "x": [0.1, 0.1], "mu": 1, "nu": 2,
             "eps": [0.2, 0.1, 0.05]},
            {"kind": "roundtrip", "hs": [0.01, 0.005], "h_final": 0.001},
            {"kind": "verify_axioms", "tol": 1e-7},
        ],
    }
    code, report = run_scenario(load_scenario(doc), str(tmp_path))
    assert code == 0
    t0, t1, t2 = report["tasks"]
    assert t0["params"]["eps"] == [0.2, 0.1, 0.05]
    assert t0["params"]["solver"]["h"] == 0.02
    assert t1["params"]["hs"] == [0.01, 0.005]
    assert t1["params"]["h_final"] == 0.001
    assert t2["params"]["tol"] == 1e-7
    for task in report["tasks"]:
        assert task["params"]["solver"]["project_every"] == 4
        assert task["params"]["solver"]["tol"] == 1e-9


def test_group_elements_carry_orthogonality_defect(tmp_path):
    code, report = run_scenario(load_scenario(copy.deepcopy(MINIMAL)), str(tmp_path))
    g = report["tasks"][0]["result"]["g"]
    assert "orthogonality_defect" in g
    assert g["orthogonality_defect"] <= 1e-12


@pytest.mark.parametrize(
    "name",
    ["minimal-flat.json", "sphere-latitude.json", "axioms-abelian.json",
     "flat-gauge-trivial.json", "roundtrip-so3.json", "inline-connection.json"],
)
def test_shipped_scenarios_exit_zero(name, tmp_path):
    scenario = load_scenario(shipped(name))
    code, _ = run_scenario(scenario, str(tmp_path))
    assert code == 0


def test_sphere_latitude_angle(tmp_path):
    code, report = run_scenario(load_scenario(shipped("sphere-latitude.json")), str(tmp_path))
    assert code == 0
    angle = report["tasks"][0]["result"]["angle"]
    wrapped = (angle + np.pi) % (2.0 * np.pi) - np.pi
    assert abs(abs(wrapped) - np.pi) <= 1e-6  # -pi mod 2pi


# --- command line ---------------------------------------------------------------

def test_cli_run_and_validate(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(MINIMAL))
    assert cli_main(["validate", str(path)]) == 0
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "pass" in out
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_solver_overrides(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(MINIMAL))
    assert cli_main(["run", str(path), "--out", str(tmp_path / "o"), "--h", "0.01"]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["tasks"][0]["params"]["solver"]["h"] == 0.01


def test_cli_rejects_bad_scenario(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli_main(["run", str(path)]) == 1
    assert cli_main(["validate", str(path)]) == 1


def test_cli_examples_lists_shipped(capsys):
    assert cli_main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "sphere-latitude.json" in out
    assert "minimal-flat.json" in out


def test_cli_trace_csv(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(MINIMAL))
    out = tmp_path / "traced"
    assert cli_main(["run", str(path), "--out", str(out), "--trace-csv"]) == 0
    traces = [f for f in os.listdir(out) if f.startswith("trace-")]
    assert traces
    lines = (out / traces[0]).read_text().strip().splitlines()
    assert lines[0] == "t,chart,x1,x2,U[0][0],U[0][1],U[1][0],U[1][1]"
    assert len(lines) > 100
    first = lines[1].split(",")
    assert float(first[0]) == 0.0


def test_cli_trace_csv_lifts_an_so3_arc_with_short_projection_blocks(tmp_path):
    """--trace-csv lifts the path.  On a constant-so3 arc at h = 0.02 with
    project_every = 4, where RK4 partial products once drifted off SO(3)
    by about 3.2e-7 against the group check's 1e-9, the lift's samples
    stay on the group with nothing projected: the run exits 0 with the
    flag as it does without it, and the trace ends at the transport."""
    doc = {
        "version": 1,
        "connection": {"builtin": "constant-so3(0.8,0.6)"},
        "paths": {"arc": {"segments": [
            {"chart": 0, "coords": ["0.1 + 0.8*cos(6.2*x1)", "0.1 + 0.8*sin(6.2*x1)"]}
        ]}},
        "solver": {"method": "rk4-fixed", "h": 0.02, "project_every": 4},
        "tasks": [{"kind": "transport", "path": "arc"}],
    }
    path = tmp_path / "arc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    for flags in ([], ["--trace-csv"]):
        assert cli_main(["run", str(path), "--out", str(out), *flags]) == 0
    result = json.loads((out / "report.json").read_text())["tasks"][0]["result"]
    rows = (out / result["trace_csv"]).read_text().strip().splitlines()
    last = np.array(rows[-1].split(",")[4:], dtype=float).reshape(3, 3)
    assert np.allclose(last, result["g"]["matrix"], atol=1e-12)
    assert np.allclose(last.T @ last, np.eye(3), atol=1e-13)


def test_a_holonomy_task_writes_the_trace_of_its_loop(tmp_path):
    """With trace_csv, a holonomy task writes its lifted loop to
    trace-NN-holonomy.csv and names it in its result: the trace starts at
    the loop's basepoint with U = I and ends at the task's holonomy, one
    row per sample, on the area-law connection where the holonomy of a
    circle of radius 0.5 turns by 1.5 times its area."""
    doc = {
        "version": 1,
        "connection": {"builtin": "abelian-area(1.5)"},
        "paths": {"circle": {"segments": [
            {"chart": 0, "coords": ["0.5*cos(6.283185307179586*x1)",
                                    "0.5*sin(6.283185307179586*x1)"]}
        ]}},
        "solver": {"method": "rk4-fixed", "h": 0.01},
        "tasks": [{"kind": "transport", "path": "circle"}, {"kind": "holonomy", "loop": "circle"}],
    }
    code, report = run_scenario(load_scenario(doc), str(tmp_path), trace_csv=True)
    assert code == 0
    result = report["tasks"][1]["result"]
    assert result["trace_csv"] == "trace-01-holonomy.csv"
    rows = (tmp_path / result["trace_csv"]).read_text().strip().splitlines()
    assert rows[0] == "t,chart,x1,x2,U[0][0],U[0][1],U[1][0],U[1][1]"
    first, last = (np.array(r.split(","), dtype=float) for r in (rows[1], rows[-1]))
    assert np.array_equal(first[:4], [0.0, 0.0, 0.5, 0.0])
    assert np.array_equal(first[4:], [1.0, 0.0, 0.0, 1.0])
    assert last[0] == 1.0 and len(rows) > 100
    assert np.allclose(last[4:].reshape(2, 2), result["g"]["matrix"], atol=1e-12)
    assert abs(abs(result["angle"]) - 1.5 * np.pi * 0.25) <= 1e-8


def test_adaptive_solver_selected_from_scenario(tmp_path):
    doc = copy.deepcopy(MINIMAL)
    doc["connection"] = {"builtin": "constant-so3"}
    doc["solver"] = {"method": "rk4-doubling", "h": 0.05, "tol": 1e-10}
    doc["tasks"] = [{"kind": "transport", "path": "line"}]
    code, report = run_scenario(load_scenario(doc), str(tmp_path))
    assert code == 0
    result = report["tasks"][0]["result"]
    assert result["est_error"] > 0.0
    assert report["tasks"][0]["params"]["solver"]["method"] == "rk4-doubling"


def test_homotopy_scan_traces_per_s(tmp_path):
    doc = {
        "version": 1,
        "connection": {"builtin": "flat-so2"},
        "families": {
            "bump": {"chart": 0,
                     "coords": ["-1 + 2*x1", "0.5*x2*sin(3.141592653589793*x1)"],
                     "s_samples": 3}
        },
        "tasks": [{"kind": "homotopy_scan", "family": "bump"}],
    }
    code, report = run_scenario(load_scenario(doc), str(tmp_path), trace_csv=True)
    assert code == 0
    traces = report["tasks"][0]["result"]["trace_csv"]
    assert len(traces) == 3
    for name in traces:
        assert (tmp_path / name).exists()


def test_failing_expectation_exits_two_via_cli(tmp_path):
    doc = {
        "version": 1,
        "connection": {"builtin": "abelian-area(1.5)"},
        "tasks": [{"kind": "flatness_verdict", "expect": {"verdict": "FLAT"}}],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["run", str(path), "--out", str(tmp_path / "o")]) == 2


BAD_TOLS = [0.0, -1.0, float("nan"), float("inf")]


@pytest.mark.parametrize("tol", BAD_TOLS, ids=["zero", "negative", "nan", "inf"])
def test_a_tol_that_is_not_finite_and_positive_is_refused(tmp_path, capsys, tol):
    """A scenario's solver tol of 0, -1, NaN or inf raises SchemaError at
    $.solver, and holonome run --tol with it exits 1 before running."""
    doc = copy.deepcopy(MINIMAL)
    doc["solver"]["tol"] = tol
    with pytest.raises(SchemaError, match="tol must be finite and > 0") as err:
        load_scenario(doc)
    assert err.value.where == "$.solver"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(MINIMAL))
    out = tmp_path / "out"
    assert cli_main(["run", str(path), "--out", str(out), f"--tol={tol!r}"]) == 1
    assert "tol must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()
