"""Print a SHA-256 digest of each output that holonome computes on a fixed
set of inputs, one line per output, so that two checkouts can be checked
for byte-identical results:

    python tools/output_digest.py [src-dir] > digests.txt
    diff digests-before.txt digests-after.txt

src-dir is the holonome source tree to import (default: this checkout's
src).  The outputs are:

- every file the shipped scenarios write with trace CSVs on, report.json
  without its timestamp line;
- the engine-oracle reconstruction tables of abelian-area(1.5),
  constant-so3(0.8,0.6) and pure-gauge at probe steps 1e-2 and 1e-3;
- the holonomies (matrix and angle) of a latitude loop, a two-chart
  crossing loop, a circle on abelian-area(1.5) and a rectangle on
  constant-so3 at h = 1e-4, and of a small latitude loop under
  rk4-doubling: one of each kind of loop the benchmark's forward_loops
  workload runs;
- the horizontal spaces and lifted vectors of abelian-area(1.5),
  constant-so3(0.8,0.6), pure-gauge and levi-civita-s2-stereo at seeded
  points and fiber points p != I, at probe steps 1e-2 and 1e-3, and the
  pairings eval_connection of the same connections with seeded vectors.
  flat-so2 is left out: its pairing's zero entries carry no meaningful
  sign;
- the homotopy_scan spreads of the canned families of abelian-area(1.5),
  pure-gauge and levi-civita-s2-stereo, and of the family
  (-1 + 2 x1, x2 sin(pi x1)) on abelian-area(1.5), whose s is a bare
  factor, and the lift_path samples of their members at s = 0, 0.5
  and 1.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def scenario_digests(hn):
    scenario_dir = Path(hn.__file__).parent / "scenarios"
    for path in sorted(scenario_dir.glob("*.json")):
        with tempfile.TemporaryDirectory() as out:
            code, _ = hn.run_scenario(hn.load_scenario(str(path)), out, trace_csv=True)
            yield f"{path.stem} exit", digest(code)
            for file in sorted(Path(out).rglob("*")):
                data = file.read_bytes()
                if file.name == "report.json":
                    data = b"".join(
                        line for line in data.splitlines(keepends=True) if b'"timestamp":' not in line
                    )
                yield f"{path.stem} {file.relative_to(out)}", digest(data)


def table_digests(hn):
    axis = np.linspace(-0.6, 0.6, 3)
    for name in ("abelian-area(1.5)", "constant-so3(0.8,0.6)", "pure-gauge"):
        conn = hn.builtin_connection(name)
        grid = [hn.ChartPoint(0, [a, b]) for a in axis for b in axis]
        oracle = hn.engine_oracle(conn, hn.SolverConfig(h=0.02))
        for h in (1e-2, 1e-3):
            table = hn.reconstruct_connection(oracle, grid, h, conn.group)
            parts = [part for key in sorted(table.entries) for part in (key, table.entries[key].tobytes())]
            yield f"table {name} h={h:g}", digest(*parts, table.dropped)


def holonomy_digests(hn):
    stereo = hn.builtin_connection("levi-civita-s2-stereo")
    twochart = hn.builtin_connection("levi-civita-s2-twochart")
    abelian = hn.builtin_connection("abelian-area(1.5)")
    so3 = hn.builtin_connection("constant-so3(0.8,0.6)")
    fine = hn.SolverConfig(h=1e-4)
    corners = [(-0.7, -0.4), (0.9, -0.4), (0.9, 0.8), (-0.7, 0.8)]
    pts = [hn.ChartPoint(0, c) for c in corners]
    legs = [hn.line_path(a, b.coords) for a, b in zip(pts, pts[1:] + pts[:1])]
    cases = {
        "latitude": (stereo, hn.arc_path(0, (0.0, 0.0), 1.1, 0.4, 0.4 + 2.0 * np.pi), fine),
        "twochart": (twochart, hn.arc_path(0, (3.0, 0.1), 2.0, np.pi, 3.0 * np.pi), fine),
        "abelian": (abelian, hn.arc_path(0, (0.1, -0.2), 0.9, 0.0, 2.0 * np.pi), fine),
        "rectangle": (so3, hn.juxtapose(hn.juxtapose(legs[0], legs[1]), hn.juxtapose(legs[2], legs[3])), fine),
        "doubling": (stereo, hn.arc_path(0, (0.0, 0.0), 0.5, 0.0, 2.0 * np.pi),
                     hn.SolverConfig(method="rk4-doubling", h=1e-2)),
    }
    for name, (conn, loop, cfg) in cases.items():
        res = hn.holonomy(conn, loop, cfg)
        yield f"holonomy {name}", digest(res.g.matrix.tobytes(), res.angle, res.transport.end.chart_id)


def pointwise_digests(hn):
    rng = np.random.default_rng(20)
    for name in ("abelian-area(1.5)", "constant-so3(0.8,0.6)", "pure-gauge", "levi-civita-s2-stereo"):
        conn = hn.builtin_connection(name)
        oracle = hn.engine_oracle(conn, hn.SolverConfig(h=0.02))
        k = conn.group.k
        for i in range(3):
            x = hn.ChartPoint(0, rng.uniform(-1.0, 1.0, 2))
            v = hn.TangentVector(x, rng.normal(size=2))
            a = rng.normal(size=(k, k))
            p = hn.group_exp(hn.AlgebraElement(0.5 * (a - a.T), conn.group))
            yield f"pairing {name} #{i}", digest(hn.eval_connection(conn, x, v).matrix.tobytes())
            for h in (1e-2, 1e-3):
                basis = hn.horizontal_space(oracle, x, p, h)
                lift = hn.lift_vector(oracle, x, p, v, h)
                parts = [lv.vertical_part.matrix.tobytes() for lv in basis.lifts]
                yield f"lifts {name} #{i} h={h:g}", digest(*parts, lift.vertical_part.matrix.tobytes())


def family_digests(hn):
    families = [
        (f"{name} #{i}", conn, fam)
        for name in ("abelian-area(1.5)", "pure-gauge", "levi-civita-s2-stereo")
        for conn in [hn.builtin_connection(name)]
        for i, fam in enumerate(hn.standard_homotopy_families(conn))
    ]
    bare = [hn.parse(src, 2) for src in ("-1 + 2*x1", "x2*sin(3.141592653589793*x1)")]
    abelian = hn.builtin_connection("abelian-area(1.5)")
    families.append(("abelian-area(1.5) bare-factor", abelian, hn.HomotopyFamily(0, bare)))
    for name, conn, fam in families:
        yield f"homotopy spread {name}", digest(hn.homotopy_scan(hn.engine_oracle(conn), fam).spread)
        p = hn.identity_element(conn.group)
        for s in (0.0, 0.5, 1.0):
            lifted = hn.lift_path(conn, fam.member(s), p)
            parts = [
                part for t, x, g in lifted.samples
                for part in (t, x.chart_id, x.coords.tobytes(), g.matrix.tobytes())
            ]
            yield f"family lift {name} s={s:g}", digest(*parts)


def main(argv):
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    import holonome as hn

    for source in (scenario_digests, table_digests, holonomy_digests, pointwise_digests,
                   family_digests):
        for name, value in source(hn):
            print(f"{value}  {name}")


if __name__ == "__main__":
    main(sys.argv)
