"""Reference values for the benchmark's correctness checks.

Everything here is plain numpy and shares no code with holonome: closed
forms from the definitions of the built-in connections, Gauss-Legendre /
trapezoid quadrature, and Rodrigues' rotation formula.  The checks compare
the engine's outputs against these, never against a stored copy of an
earlier output.

Conventions (those of the engine): transport solves U' = -A(gamma') U, so a
loop's holonomy is exp(-closed integral of A) for an abelian connection, and
juxtaposed legs compose as P(leg2) P(leg1).
"""

import numpy as np

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def hat(w):
    """so(3) matrix of a 3-vector: hat(w) x = w cross x."""
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


E1 = hat([1.0, 0.0, 0.0])
E2 = hat([0.0, 1.0, 0.0])


def rotation2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def rodrigues(w):
    """exp(hat(w)) by Rodrigues' formula."""
    w = np.asarray(w, dtype=float)
    theta = float(np.linalg.norm(w))
    k = hat(w)
    if theta < 1e-8:
        return np.eye(3) + k + 0.5 * (k @ k)
    return np.eye(3) + (np.sin(theta) / theta) * k + ((1.0 - np.cos(theta)) / theta**2) * (k @ k)


def angle_gap(a, b):
    """|a - b| modulo 2 pi, in [0, pi]."""
    d = (a - b) % (2.0 * np.pi)
    return float(min(d, 2.0 * np.pi - d))


# --- sphere: Gauss-Bonnet ----------------------------------------------------------

def sphere_disc_area(center, radius, n_r=48, n_theta=256):
    """Area on the unit sphere of the stereographic disc |x - center| <= radius.

    Quadrature of the conformal density 4 / (1 + |x|^2)^2 in polar
    coordinates about the disc centre: Gauss-Legendre in r, the trapezoid
    rule (spectrally accurate for periodic integrands) in theta.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * radius * (nodes + 1.0)
    wr = 0.5 * radius * weights
    th = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    x = center[0] + r[:, None] * np.cos(th)
    y = center[1] + r[:, None] * np.sin(th)
    density = 4.0 / (1.0 + x**2 + y**2) ** 2
    return float(np.sum((wr * r)[:, None] * density) * (2.0 * np.pi / n_theta))


def sphere_loop_angle(center, radius):
    """Holonomy angle of the counter-clockwise boundary of a stereographic
    disc: the enclosed area (Gauss-Bonnet, Gaussian curvature 1), which is
    congruent to -2 pi (1 - cos theta) for the latitude of colatitude theta
    measured from the other pole."""
    return sphere_disc_area(center, radius)


# --- abelian-area(f): Stokes --------------------------------------------------------

def abelian_loop_angle(f, radius):
    """A = (f/2)(x1 dx2 - x2 dx1) J has curvature f J, so a counter-clockwise
    circle of any centre rotates by -f * (enclosed area)."""
    return -f * np.pi * radius**2


# --- closed-form coefficients and straight-line transports ------------------------

def coefficients(kind, params, X):
    """(A_1, A_2) at the rows of X, each of shape (m, k, k).

    abelian-area(f): A = (f/2)(x1 dx2 - x2 dx1) J;
    constant-so3(s1, s2): A = s1 E1 dx1 + s2 E2 dx2;
    pure-gauge: A = g^-1 dg for g = exp(x1 x2 J), i.e. (x2 dx1 + x1 dx2) J.
    """
    X = np.asarray(X, dtype=float)
    x1, x2 = X[:, 0, None, None], X[:, 1, None, None]
    if kind == "abelian-area":
        f = params[0]
        return -0.5 * f * x2 * J, 0.5 * f * x1 * J
    if kind == "constant-so3":
        m = len(X)
        return np.broadcast_to(params[0] * E1, (m, 3, 3)), np.broadcast_to(params[1] * E2, (m, 3, 3))
    if kind == "pure-gauge":
        return x2 * J, x1 * J
    raise ValueError(f"no closed form for {kind!r}")


def straight_transport(kind, params, a, b):
    """Exact transport along the straight coordinate segment from a to b."""
    d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    if kind == "abelian-area":
        # the integral of x1 dx2 - x2 dx1 along a + t d is a1 d2 - a2 d1
        return rotation2(-0.5 * params[0] * (a[0] * d[1] - a[1] * d[0]))
    if kind == "constant-so3":
        return rodrigues([-params[0] * d[0], -params[1] * d[1], 0.0])
    if kind == "pure-gauge":
        # U = g(end)^-1 g(start) solves U' = -(g^-1 dg) U
        return rotation2(a[0] * a[1] - b[0] * b[1])
    raise ValueError(f"no closed form for {kind!r}")


def rectangle_holonomy(s1, s2, corners):
    """constant-so3 holonomy around juxtaposed straight legs through the
    corners (closed back to the first): the product of one Rodrigues
    rotation per leg, later legs on the left."""
    out = np.eye(3)
    for a, b in zip(corners, corners[1:] + corners[:1]):
        out = straight_transport("constant-so3", (s1, s2), a, b) @ out
    return out
