"""Matrix structure groups GL(k), SO(k) and U(1)-as-SO(2), with the matrix
exponential/logarithm pair and the polar projection that keeps integrator
iterates on the group.

All elements are k x k real matrices validated against the group invariants
at construction.  Instances are immutable; every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GroupInvariantError, OutOfBranchError, SingularInputError

__all__ = [
    "StructureGroup",
    "GroupElement",
    "AlgebraElement",
    "group_exp",
    "group_log",
    "project_to_group",
    "group_inverse",
    "identity_element",
    "rotation_angle",
    "frobenius",
    "max_spread",
    "neville_at_zero",
    "loglog_slope",
    "so2_generator",
    "so3_basis",
    "rotation2",
]

# invariant tolerances (checked constructors)
_ORTHO_TOL = 1e-9
_SKEW_TOL = 1e-12
_DET_TOL = 1e-12


def frobenius(m):
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(m), "fro"))


@dataclass(frozen=True)
class StructureGroup:
    """Declared structure group: kind in {"GL", "SO", "U1"}, matrix size k.

    "U1" is the circle group realized as SO(2) and forces k = 2.
    """

    kind: str
    k: int

    def __post_init__(self):
        if self.kind not in ("GL", "SO", "U1"):
            raise GroupInvariantError(f"unknown group kind {self.kind!r}")
        if self.k < 1:
            raise GroupInvariantError("matrix size k must be >= 1")
        if self.kind == "U1" and self.k != 2:
            raise GroupInvariantError("U1 is realized as SO(2) and needs k = 2")

    @property
    def orthogonal(self):
        return self.kind in ("SO", "U1")

    def __str__(self):
        return "U(1)" if self.kind == "U1" else f"{self.kind}({self.k})"


def _check_group_matrix(m, group):
    if m.shape != (group.k, group.k):
        raise GroupInvariantError(
            f"expected a {group.k}x{group.k} matrix, got shape {m.shape}"
        )
    if group.orthogonal:
        defect = frobenius(m.T @ m - np.eye(group.k))
        if defect > _ORTHO_TOL:
            raise GroupInvariantError(
                f"matrix is not orthogonal: ||g^T g - I||_F = {defect:.3e}"
            )
        if np.linalg.det(m) <= 0:
            raise GroupInvariantError("special orthogonal matrix needs det > 0")
    else:
        if abs(np.linalg.det(m)) <= _DET_TOL:
            raise GroupInvariantError("GL element is numerically singular")


@dataclass(frozen=True)
class GroupElement:
    """Validated element of a structure group."""

    matrix: np.ndarray
    group: StructureGroup

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        _check_group_matrix(m, self.group)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __matmul__(self, other):
        if isinstance(other, GroupElement):
            return GroupElement(self.matrix @ other.matrix, self.group)
        return self.matrix @ other

    @property
    def orthogonality_defect(self):
        return frobenius(self.matrix.T @ self.matrix - np.eye(self.group.k))


@dataclass(frozen=True)
class AlgebraElement:
    """Validated Lie-algebra element (skew-symmetric for SO/U1)."""

    matrix: np.ndarray
    group: StructureGroup

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (self.group.k, self.group.k):
            raise GroupInvariantError(
                f"expected a {self.group.k}x{self.group.k} matrix, got shape {m.shape}"
            )
        if self.group.orthogonal:
            defect = frobenius(m + m.T)
            if defect > _SKEW_TOL:
                raise GroupInvariantError(
                    f"algebra element is not skew-symmetric: ||a + a^T||_F = {defect:.3e}"
                )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def identity_element(group):
    return GroupElement(np.eye(group.k), group)


def group_inverse(g):
    """Group inverse (transpose for orthogonal groups)."""
    if g.group.orthogonal:
        return GroupElement(g.matrix.T.copy(), g.group)
    return GroupElement(np.linalg.inv(g.matrix), g.group)


# --- exponential / logarithm ---------------------------------------------------

def _expm(m):
    """Scaling-and-squaring with a truncated Taylor series (desk scale k <= 4)."""
    nrm = frobenius(m)
    s = 0
    if nrm > 0.25:
        s = int(np.ceil(np.log2(nrm / 0.25)))
    b = m / (2.0**s)
    k = m.shape[0]
    acc = np.eye(k)
    term = np.eye(k)
    for i in range(1, 30):
        term = term @ b / i
        acc = acc + term
        if frobenius(term) < 1e-18:
            break
    for _ in range(s):
        acc = acc @ acc
    return acc


def _sqrtm_db(m):
    """Denman-Beavers square root iteration (valid near the identity)."""
    y = m.copy()
    z = np.eye(m.shape[0])
    for _ in range(60):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z_next = 0.5 * (z + np.linalg.inv(y))
        y, z = y_next, z_next
        if frobenius(y @ y - m) < 1e-15 * max(1.0, frobenius(m)):
            break
    return y


def _logm(m):
    """Inverse scaling-and-squaring logarithm; caller guards the branch."""
    x = m.copy()
    s = 0
    while frobenius(x - np.eye(x.shape[0])) > 0.25 and s < 40:
        x = _sqrtm_db(x)
        s += 1
    e = x - np.eye(x.shape[0])
    term = e.copy()
    acc = e.copy()
    for i in range(2, 60):
        term = term @ e
        inc = term / i if i % 2 else -term / i
        acc = acc + inc
        if frobenius(term) < 1e-18:
            break
    return acc * (2.0**s)


def group_exp(a):
    """Matrix exponential of an algebra element, landing on the group."""
    m = _expm(np.asarray(a.matrix, dtype=float))
    if a.group.orthogonal:
        # repeated squaring can leave roundoff of order 1e-15; snap back
        m = _polar(m)
    return GroupElement(m, a.group)


def group_log(g):
    """Principal matrix logarithm; requires ||g - I||_F < 1.

    Inverse of group_exp within 1e-10 on its branch.
    """
    dist = frobenius(g.matrix - np.eye(g.group.k))
    if dist >= 1.0:
        raise OutOfBranchError(
            f"||g - I||_F = {dist:.3f} >= 1: outside the principal branch"
        )
    a = _logm(np.asarray(g.matrix, dtype=float))
    if g.group.orthogonal:
        a = 0.5 * (a - a.T)  # roundoff cleanup; log of orthogonal is skew
    return AlgebraElement(a, g.group)


# --- projection ----------------------------------------------------------------

def _polar(m):
    """Orthogonal polar factor u @ vt of m = u diag(sigma) vt: the nearest
    SO matrix in the Frobenius norm.  Raises SingularInputError when m is
    numerically singular or has det <= 0.  Returns a raw matrix, so
    callers inside a loop skip the GroupElement checks."""
    u, sigma, vt = np.linalg.svd(m)
    if sigma[-1] <= _DET_TOL:
        raise SingularInputError("matrix is numerically singular")
    if np.linalg.det(m) <= 0:
        raise SingularInputError("projection to SO needs det > 0")
    return u @ vt


def project_to_group(m, group):
    """Nearest group element (Frobenius): polar factor for SO/U1, identity
    operation after a determinant check for GL."""
    m = np.asarray(m, dtype=float)
    if group.orthogonal:
        return GroupElement(_polar(m), group)
    if abs(np.linalg.det(m)) <= _DET_TOL:
        raise SingularInputError("matrix is numerically singular")
    return GroupElement(m, group)


# --- small helpers used across the package --------------------------------------

def max_spread(mats):
    """Largest pairwise Frobenius distance, max_{i<j} ||m_i - m_j||_F."""
    return max(
        (frobenius(a - b) for i, a in enumerate(mats) for b in mats[i + 1:]), default=0.0
    )


def neville_at_zero(xs, values):
    """Value at x = 0 of the polynomial through (xs[i], values[i]) by
    Neville's scheme; values may be numbers or matrices."""
    v = list(values)
    n = len(v)
    for level in range(1, n):
        for i in range(n - level):
            v[i] = (xs[i + level] * v[i] - xs[i] * v[i + 1]) / (xs[i + level] - xs[i])
    return v[0]


def loglog_slope(xs, ys):
    """Least-squares slope of log ys against log xs (ys floored at 1e-300)."""
    return float(np.polyfit(np.log(xs), np.log(np.maximum(ys, 1e-300)), 1)[0])


def so2_generator():
    """The rotation generator J = [[0, -1], [1, 0]]."""
    return np.array([[0.0, -1.0], [1.0, 0.0]])


def rotation2(theta):
    """2x2 rotation by theta."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def so3_basis():
    """Standard so(3) generators (E_i rotates about axis i)."""
    e1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    e2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    e3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return e1, e2, e3


def rotation_angle(g):
    """Rotation angle of a group element, in (-pi, pi].

    SO(2)/U(1): signed angle via atan2.  SO(3): unsigned angle from the
    trace, in [0, pi].  Returns None for other groups.
    """
    if g.group.k == 2 and g.group.orthogonal:
        return float(np.arctan2(g.matrix[1, 0], g.matrix[0, 0]))
    if g.group.k == 3 and g.group.orthogonal:
        c = (np.trace(g.matrix) - 1.0) / 2.0
        return float(np.arccos(np.clip(c, -1.0, 1.0)))
    return None
