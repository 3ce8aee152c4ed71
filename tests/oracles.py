"""Independent numerical oracles used by the tests.

Deliberately dumb implementations: brute-force Taylor series, Jacobi
rotations, trapezoid quadrature, central differences, tree walkers of
the expression DSL (a plain one and one with forward-mode dual numbers),
and the two-probe symmetric difference of a lifted velocity.  They share
no code with the package paths they check; the two-probe lift builds its
paths with the DSL and asks whatever oracle it is given.
"""

import numpy as np

from holonome.errors import DomainError
from holonome.exprs import lit, var
from holonome.paths import path_from_exprs


def taylor_expm(m, terms=30):
    """Matrix exponential by summing the series directly."""
    m = np.asarray(m, dtype=float)
    acc = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for i in range(1, terms + 1):
        term = term @ m / i
        acc = acc + term
    return acc


def jacobi_polar(m, sweeps=60):
    """Polar factor via a one-sided Jacobi SVD (orthogonalize columns)."""
    a = np.asarray(m, dtype=float).copy()
    n = a.shape[1]
    v = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[:, p] @ a[:, q]
                app = a[:, p] @ a[:, p]
                aqq = a[:, q] @ a[:, q]
                off = max(off, abs(apq))
                if abs(apq) < 1e-16:
                    continue
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = a @ rot
                v = v @ rot
        if off < 1e-15:
            break
    norms = np.linalg.norm(a, axis=0)
    u = a / norms
    return u @ v.T


def central_gradient(f, x, h=1e-6):
    """Componentwise central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def abelian_loop_exponent(a_funcs, curve, curve_dot, steps=100_000):
    """Quadrature oracle for the abelian case: the line integral of the
    connection along a loop, so transport = expm(-integral).

    a_funcs: per-direction scalar coefficient functions (of the J factor);
    curve/curve_dot: parametrization of the loop on [0, 1].
    """
    ts = (np.arange(steps) + 0.5) / steps
    total = 0.0
    for t in ts:
        x = curve(t)
        v = curve_dot(t)
        total += sum(a(x) * vi for a, vi in zip(a_funcs, v))
    return total / steps




def series_logm(m, terms=200):
    """Principal log of a matrix near I by the series of log(I + X)."""
    x = np.asarray(m, dtype=float) - np.eye(len(m))
    acc = np.zeros_like(x)
    term = np.eye(len(m))
    for i in range(1, terms + 1):
        term = term @ x
        acc = acc + (-1.0) ** (i + 1) * term / i
        if np.max(np.abs(term)) < 1e-18:
            break
    return acc


def two_probe_lift(oracle, x, v, h, p):
    """The vertical part at the bundle point (x, p) of the lift of v, by the
    two-probe symmetric difference: U(+h) and U(-h) are the oracle's
    answers for the straight paths x + t h v and x - t h v, and the part is
    p^-1 log(U(+h) U(-h)^-1) p / (2h).  x is a ChartPoint, p a matrix."""
    def probe(step):
        coords = [lit(xi) + lit(step * vi) * var(0) for xi, vi in zip(x.coords, v)]
        return oracle(path_from_exprs(x.chart_id, coords)).g.matrix

    d = probe(h) @ np.linalg.inv(probe(-h))
    p = np.asarray(p, dtype=float)
    return np.linalg.inv(p) @ series_logm(d) @ p / (2.0 * h)


def walk(ast, X):
    """Value of a DSL AST at the points X (m, n) by walking the tree, every
    node evaluated where it occurs, with the DSL's domain checks."""
    op = ast[0]
    if op == "num":
        return np.full(X.shape[0], ast[1])
    if op == "var":
        return X[:, ast[1]].copy()
    if op == "neg":
        return -walk(ast[1], X)
    if op == "pow":
        return walk(ast[1], X) ** ast[2]
    if op in ("add", "sub", "mul"):
        a, b = walk(ast[1], X), walk(ast[2], X)
        return a + b if op == "add" else a - b if op == "sub" else a * b
    if op == "div":
        num, den = walk(ast[1], X), walk(ast[2], X)
        if np.any(den == 0.0):
            raise DomainError("division by zero")
        return num / den
    name, args = ast[1], ast[2]
    if name == "atan2":
        y, x = walk(args[0], X), walk(args[1], X)
        if np.any((y == 0.0) & (x == 0.0)):
            raise DomainError("atan2(0, 0) is undefined")
        return np.arctan2(y, x)
    a = walk(args[0], X)
    if name == "log":
        if np.any(a <= 0.0):
            raise DomainError("log of a non-positive value")
        return np.log(a)
    if name == "sqrt":
        if np.any(a < 0.0):
            raise DomainError("sqrt of a negative value")
        return np.sqrt(a)
    return {"sin": np.sin, "cos": np.cos, "exp": np.exp}[name](a)


def walk_dual(ast, X):
    """(values (m,), gradients (m, n)) of a DSL AST at the points X by
    forward-mode dual numbers, walking the tree."""
    m, n = X.shape
    op = ast[0]
    if op == "num":
        return np.full(m, ast[1]), np.zeros((m, n))
    if op == "var":
        g = np.zeros((m, n))
        g[:, ast[1]] = 1.0
        return X[:, ast[1]].copy(), g
    if op == "neg":
        v, g = walk_dual(ast[1], X)
        return -v, -g
    if op == "pow":
        v, g = walk_dual(ast[1], X)
        k = ast[2]
        if k == 0:
            return np.ones(m), np.zeros((m, n))
        return v**k, (k * v ** (k - 1))[:, None] * g
    if op in ("add", "sub", "mul", "div"):
        va, ga = walk_dual(ast[1], X)
        vb, gb = walk_dual(ast[2], X)
        if op == "add":
            return va + vb, ga + gb
        if op == "sub":
            return va - vb, ga - gb
        if op == "mul":
            return va * vb, va[:, None] * gb + vb[:, None] * ga
        if np.any(vb == 0.0):
            raise DomainError("division by zero")
        return va / vb, (ga * vb[:, None] - va[:, None] * gb) / (vb**2)[:, None]
    name, args = ast[1], ast[2]
    if name == "atan2":
        vy, gy = walk_dual(args[0], X)
        vx, gx = walk_dual(args[1], X)
        r2 = vx**2 + vy**2
        if np.any(r2 == 0.0):
            raise DomainError("atan2(0, 0) is undefined")
        return np.arctan2(vy, vx), (vx[:, None] * gy - vy[:, None] * gx) / r2[:, None]
    v, g = walk_dual(args[0], X)
    if name == "sin":
        return np.sin(v), np.cos(v)[:, None] * g
    if name == "cos":
        return np.cos(v), -np.sin(v)[:, None] * g
    if name == "exp":
        ev = np.exp(v)
        return ev, ev[:, None] * g
    if name == "log":
        if np.any(v <= 0.0):
            raise DomainError("log of a non-positive value")
        return np.log(v), g / v[:, None]
    # the derivative 1/(2 sqrt v) blows up at 0, so dual mode needs v > 0
    if np.any(v <= 0.0):
        raise DomainError("sqrt derivative needs a positive argument")
    sv = np.sqrt(v)
    return sv, g / (2.0 * sv)[:, None]


def _finite(a):
    if not np.all(np.isfinite(a)):
        raise DomainError("evaluation overflowed to inf/nan")
    return a


def walk_many(es, X):
    """Column i: es[i] by walk at the points X, then the finite check."""
    out = np.empty((X.shape[0], len(es)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, e in enumerate(es):
            out[:, i] = walk(e.ast, X)
    return _finite(out)


def walk_dual_many(es, X):
    """(values (m, len(es)), gradients (m, len(es), n)) by walk_dual, then
    the finite checks."""
    m, n = X.shape
    vals, grads = np.empty((m, len(es))), np.empty((m, len(es), n))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, e in enumerate(es):
            vals[:, i], grads[:, i] = walk_dual(e.ast, X)
    return _finite(vals), _finite(grads)
