"""
reconstruction_roundtrip.py

The converse direction: treat the transport engine as a black-box oracle
and rebuild the connection from it.  Short straight transports give lifted
velocities; their vertical parts are the (negated) connection coefficients.
The demo checks the key lemma (same initial velocity => same lifted
velocity in the h -> 0 limit), rebuilds a coefficient grid, and reports
round-trip convergence.

Run:  python demos/reconstruction_roundtrip.py
"""

import os

import numpy as np

from holonome import (
    ChartPoint,
    SolverConfig,
    TangentVector,
    builtin_connection,
)
from holonome.exprs import lit, var
from holonome.groups import identity_element, so3_basis
from holonome.paths import path_from_exprs
from holonome.reconstruction import (
    horizontal_space,
    lemma_independence_check,
    lift_vector,
    reconstruct_connection,
    roundtrip_report,
    split_horizontal_vertical,
)
from holonome.transport import engine_oracle

np.set_printoptions(precision=6, suppress=True)
cfg = SolverConfig(h=0.02)  # probes are short; coarse is plenty

print("=" * 72)
print("Reconstructing a connection from a transport oracle")
print("=" * 72)

conn = builtin_connection("constant-so3")
oracle = engine_oracle(conn, cfg)
x = ChartPoint(0, [0.2, -0.3])
p = identity_element(conn.group)

print("\n1. Lifted velocity of e_1 (vertical part estimates -A_1)")
lv = lift_vector(oracle, x, p, TangentVector(x, [1.0, 0.0]), h=1e-3)
e1, e2, _ = so3_basis()
print(f"   vertical part:\n{lv.vertical_part.matrix}")
print(f"   -A_1 is {-0.8:.1f} * (rotation generator about axis 1):")
print(f"   deviation = {np.linalg.norm(lv.vertical_part.matrix + 0.8 * e1):.3e}")

print("\n2. Horizontal space at (x, I) and the splitting it induces")
basis = horizontal_space(oracle, x, p, h=1e-3)
print(f"   basis condition number = {basis.condition_number():.3f}")
w_base = np.array([0.3, -0.5])
w_fiber = 0.4 * e1 + 0.1 * e2
horiz, vert = split_horizontal_vertical(basis, w_base, w_fiber)
recomposed = horiz.vertical_part.matrix + vert.matrix
print(f"   split recomposes the input within {np.linalg.norm(recomposed - w_fiber):.2e}")

print("\n3. The lemma: different paths, same initial velocity")
x0 = np.array([0.3, 0.2])
v0 = np.array([1.0, 0.0])
u = var(0)
line = path_from_exprs(0, [lit(x0[0]) + u, lit(x0[1])])
parabola = path_from_exprs(0, [lit(x0[0]) + u, lit(x0[1]) + u**2])
ab = builtin_connection("abelian-area(1.5)")
rep = lemma_independence_check(
    engine_oracle(ab, cfg), ChartPoint(0, x0), identity_element(ab.group),
    TangentVector(ChartPoint(0, x0), v0), [line, parabola],
)
print("   h        pairwise deviation")
for h, d in zip(rep.hs, rep.deviations):
    print(f"   {h:.4g}   {d:.3e}")
print(f"   slope = {rep.slope:.3f}, extrapolated h->0 deviation = {rep.extrapolated:.2e}")

print("\n4. Grid reconstruction and CSV export")
grid = [ChartPoint(0, [gx, gy])
        for gx in np.linspace(-1.0, 1.0, 5) for gy in np.linspace(-1.0, 1.0, 5)]
table = reconstruct_connection(engine_oracle(ab, cfg), grid, h=1e-3, group=ab.group)
chart = ab.charts[0]
worst = 0.0
for idx, pt in enumerate(grid):
    X = np.asarray(pt.coords)[None, :]
    for mu in range(2):
        worst = max(worst, np.linalg.norm(
            table.coefficient(idx, mu) - chart.coefficients[mu].value(X)[0]))
print(f"   max coefficient error over the 5x5 grid = {worst:.3e}")
out = "reconstruction-demo.csv"
table.to_csv(out)
print(f"   wrote {out} ({os.path.getsize(out)} bytes)")

print("\n5. Round-trip convergence (connection -> transport -> connection)")
for name in ("levi-civita-s2-stereo", "constant-so3"):
    rr = roundtrip_report(builtin_connection(name), cfg)
    errs = ", ".join(f"{e:.2e}" for e in rr.errors)
    order = "exact (machine level)" if rr.degenerate else f"order {rr.order:.2f}"
    print(f"   {name:<24s} errors [{errs}]  {order}  "
          f"final {rr.final_error:.2e}  -> {'PASS' if rr.passed else 'FAIL'}")
print("   (straight probes see constant coefficients on constant-so3, so its")
print("    reconstruction is exact; the curved sphere shows the generic order 2)")

print("\nDone.")
