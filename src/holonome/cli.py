"""Command-line interface.

    holonome run <scenario.json> [--out DIR] [--trace-csv]
                                 [--h FLOAT] [--tol FLOAT]
    holonome validate <scenario.json>
    holonome examples

Flags override the scenario's solver configuration.  Exit codes from run:
0 all declared expectations hold, 2 an expectation failed, 1 an error.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import json
import sys

from .errors import HolonomeError
from .scenario import load_scenario, run_scenario


def _shipped_scenarios():
    root = importlib.resources.files("holonome") / "scenarios"
    return sorted(p for p in root.iterdir() if p.name.endswith(".json"))


def _cmd_run(args):
    try:
        scenario = load_scenario(args.scenario)
    except HolonomeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.h is not None or args.tol is not None:
        cfg = scenario.solver
        try:
            cfg = dataclasses.replace(
                cfg,
                h=args.h if args.h is not None else cfg.h,
                tol=args.tol if args.tol is not None else cfg.tol,
            )
        except HolonomeError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        scenario = dataclasses.replace(scenario, solver=cfg)
    code, report = run_scenario(scenario, args.out, args.trace_csv)
    for entry in report["tasks"]:
        status = (
            "error" if entry["error"] else
            {True: "pass", False: "FAIL", None: "done"}[entry["passed"]]
        )
        print(f"task {entry['index']:2d} {entry['kind']:<20s} {status}")
    print(f"report written to {args.out}/report.json")
    return code


def _cmd_validate(args):
    try:
        scenario = load_scenario(args.scenario)
    except HolonomeError as err:
        print(f"invalid: {err}", file=sys.stderr)
        return 1
    print(
        f"ok: {len(scenario.paths)} path(s), {len(scenario.families)} family(ies), "
        f"{len(scenario.tasks)} task(s)"
    )
    return 0


def _cmd_examples(_args):
    for path in _shipped_scenarios():
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            desc = doc.get("description", "")
        except Exception:
            desc = ""
        print(f"{path}  -  {desc}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="holonome",
        description="Parallel transport, holonomy, and connection reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--out", default=".", help="output directory (default: .)")
    p_run.add_argument("--trace-csv", action="store_true", help="write CSV traces")
    p_run.add_argument("--h", type=float, default=None, help="override solver step")
    p_run.add_argument("--tol", type=float, default=None, help="override solver tol (per piece, rk4-doubling)")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_val.add_argument("scenario", help="path to a scenario JSON file")
    p_val.set_defaults(func=_cmd_validate)

    p_ex = sub.add_parser("examples", help="list shipped example scenarios")
    p_ex.set_defaults(func=_cmd_examples)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
