"""
transport_basics.py

Walk through the forward direction: specify a connection by its local
coefficient matrices, integrate the transport ODE along paths, and check
the three defining properties of parallel transport numerically
(identity on constant paths, reparametrization invariance, multiplicativity
under juxtaposition).

Run:  python demos/transport_basics.py
"""

import numpy as np

from holonome import (
    ChartPoint,
    SolverConfig,
    builtin_connection,
    constant_path,
    inverse_path_check,
    juxtapose,
    line_path,
    parse,
    reparametrize,
    transport,
)
from holonome.transport import (
    endpoint_convergence,
    engine_oracle,
    standard_axiom_suite,
    verify_axioms,
)

np.set_printoptions(precision=6, suppress=True)

print("=" * 72)
print("Parallel transport from a connection form")
print("=" * 72)

cfg = SolverConfig(h=1e-3)

# The "abelian area" connection on R^2: A = (f/2)(x1 dx2 - x2 dx1) J with
# f = 1.5.  Its curvature is the constant 1.5 J, so transport around a loop
# rotates by -1.5 times the enclosed (signed) area.
conn = builtin_connection("abelian-area(1.5)")

a = ChartPoint(0, [0.0, 0.0])
b = ChartPoint(0, [1.0, 0.0])
c = ChartPoint(0, [1.0, 1.0])
d = ChartPoint(0, [0.0, 1.0])

print("\n1. Unit square loop, counterclockwise")
loop = juxtapose(
    juxtapose(line_path(a, b.coords), line_path(b, c.coords)),
    juxtapose(line_path(c, d.coords), line_path(d, a.coords)),
)
res = transport(conn, loop, cfg)
angle = np.arctan2(res.g.matrix[1, 0], res.g.matrix[0, 0])
print(f"   transport matrix:\n{res.g.matrix}")
print(f"   rotation angle = {angle:+.9f} rad   (area law predicts -1.5)")
print(f"   steps = {res.step_count}")

print("\n2. The three transport axioms, one by one")
gamma = line_path(a, c.coords)

print("   constant path  ->  identity:")
g_const = transport(conn, constant_path(a), cfg).g.matrix
print(f"     ||P(c_x) - I||_F = {np.linalg.norm(g_const - np.eye(2)):.3e}")

print("   reparametrization alpha(t) = t^2 leaves transport unchanged:")
g_base = transport(conn, gamma, cfg).g.matrix
g_rep = transport(conn, reparametrize(gamma, parse("x1^2", 1)), cfg).g.matrix
print(f"     ||P(gamma o alpha) - P(gamma)||_F = {np.linalg.norm(g_rep - g_base):.3e}")

print("   juxtaposition composes multiplicatively:")
g1 = line_path(a, b.coords)
g2 = line_path(b, c.coords)
whole = transport(conn, juxtapose(g1, g2), cfg).g.matrix
parts = transport(conn, g2, cfg).g.matrix @ transport(conn, g1, cfg).g.matrix
print(f"     ||P(g2 * g1) - P(g2) P(g1)||_F = {np.linalg.norm(whole - parts):.3e}")

print("\n3. The bundled axiom checker on a standard suite")
for name in ("flat-so2", "abelian-area(1.5)", "constant-so3"):
    cn = builtin_connection(name)
    rep = verify_axioms(engine_oracle(cn, cfg), standard_axiom_suite(cn), tol=1e-7)
    print(f"   {name:<22s} constant {rep.constant_dev:.1e}  "
          f"reparam {rep.reparam_dev:.1e}  juxtapose {rep.juxtapose_dev:.1e}  "
          f"-> {'pass' if rep.passed else 'FAIL'}")

print("\n4. Reversal inverts transport (a consequence of the ODE)")
dev = inverse_path_check(conn, loop, cfg)
print(f"   ||P(reverse) P(loop) - I||_F = {dev:.3e}")

print("\n5. Order check on the non-abelian constant-so3 connection")
c3 = builtin_connection("constant-so3")
conv = endpoint_convergence(c3, line_path(ChartPoint(0, [-0.5, -0.5]), [1.0, 0.8]))
for h, e in zip(conv.hs, conv.errors):
    print(f"   h = {h:.4g}   endpoint error = {e:.3e}")
print(f"   log-log slope = {conv.slope:.2f}   (the fourth-order Cayley-Magnus step gives 4)")

print("\nDone.")
