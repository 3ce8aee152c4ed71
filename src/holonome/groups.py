"""Matrix structure groups GL(k), SO(k) and U(1)-as-SO(2), with the matrix
exponential/logarithm pair and the polar projection that keeps integrator
iterates on the group.

All elements are k x k real matrices validated against the group invariants
at construction.  Instances are immutable; every function here is pure.

Stacks of small matrices are multiplied component-major: a (k, k, ...)
array holds entry (i, j) of every matrix in one contiguous row, so one
einsum over those rows (_mul) replaces a per-matrix product.  The polar
projection runs on such stacks with Newton-Schulz steps; only matrices far
from the group take a per-matrix SVD.  The logarithm runs on (m, k, k)
stacks too (inverse scaling and squaring, Higham, Functions of Matrices,
2008, 11.5): each matrix takes its own count of Denman-Beavers square
roots, through one batched inverse per step, and of series terms, so its
log is bit for bit the log of a stack of one; group_log is that stack of
one.  Stacks of group and algebra matrices are validated once, through
their worst members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GroupInvariantError, OutOfBranchError, SingularInputError, ValidationError

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
# Newton-Schulz polar steps run on a matrix whose Gram defect X^T X - I has
# every entry within _NS_BASIN (the defect then shrinks as about 0.75 d^2 a
# step), and stop once the matrix's own defect is within _NS_TOL, which is
# roundoff (it reads at most 2 eps on random rotations of SO(2) and SO(3)).
# From the basin's edge that takes 4 steps; a matrix that needs more than
# _NS_STEPS goes to the SVD.
_NS_BASIN = 0.1
_NS_TOL = 4.0 * np.finfo(float).eps
_NS_STEPS = 6


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


def _validated(mats, group):
    """A (m, k, k) stack, m >= 1, as a read-only float copy, validated once
    as a stack: it passes when its worst members pass _check_group_matrix
    (the largest orthogonality defect, and the smallest det, |det| on
    GL)."""
    mats = np.array(mats, dtype=float)
    gram = mats.swapaxes(-1, -2) @ mats - np.eye(mats.shape[-1])
    det = np.linalg.det(mats)
    worst = {
        int(np.argmax((gram * gram).sum(axis=(-2, -1)))),
        int(np.argmin(det if group.orthogonal else np.abs(det))),
    }
    for i in worst:
        _check_group_matrix(mats[i], group)
    mats.flags.writeable = False
    return mats


def _elements(mats, group):
    """GroupElements of a (m, k, k) stack, m >= 1, validated once as a
    stack (_validated).  Each element is a read-only view of one copy,
    built without a check of its own."""
    return [_unchecked(m, group) for m in _validated(mats, group)]


def _algebra_checked(mats, group):
    """A (m, k, k) stack of Lie-algebra matrices, checked once as a stack:
    it passes when its least skew member (on SO/U1) passes the
    AlgebraElement check."""
    if len(mats):
        worst = int(np.argmax(_norms(mats + mats.swapaxes(-1, -2)))) if group.orthogonal else 0
        AlgebraElement(mats[worst], group)
    return mats


def _unchecked(m, group):
    """A GroupElement of a read-only float array that is known to pass
    _check_group_matrix, built without running the check again."""
    g = object.__new__(GroupElement)
    object.__setattr__(g, "matrix", m)
    object.__setattr__(g, "group", group)
    return g


def identity_element(group):
    return GroupElement(np.eye(group.k), group)


def group_inverse(g):
    """Group inverse (transpose for orthogonal groups).

    The transpose is not checked again: g^T has the same ||g^T g - I||_F
    and the same det as g, which passed the check."""
    if g.group.orthogonal:
        m = g.matrix.T.copy()
        m.flags.writeable = False
        return _unchecked(m, g.group)
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


def _norms(S):
    """frobenius of every matrix of a (m, k, k) stack, bit for bit: each is
    the same dot product of the flattened matrix with itself."""
    R = S.reshape(len(S), S.shape[-2] * S.shape[-1])
    return np.sqrt(np.matmul(R[:, None, :], R[:, :, None])[:, 0, 0])


def _sqrtm_db(S):
    """Denman-Beavers square root iteration (valid near the identity) on a
    (m, k, k) stack, one batched inverse per step for the matrices still
    going; each stops once its own ||y^2 - s||_F <= 1e-15 max(1, ||s||_F)."""
    Y = S.copy()
    Z = np.broadcast_to(np.eye(S.shape[-1]), S.shape).copy()
    scale = 1e-15 * np.maximum(1.0, _norms(S))
    live = np.arange(len(S))
    for _ in range(60):
        y, z = Y[live], Z[live]
        Y[live] = y_next = 0.5 * (y + np.linalg.inv(z))
        Z[live] = 0.5 * (z + np.linalg.inv(y))
        live = live[~(_norms(y_next @ y_next - S[live]) < scale[live])]
        if not len(live):
            break
    return Y


def _logm(S):
    """Principal logarithm of every matrix of a (m, k, k) stack by inverse
    scaling and squaring (Higham, Functions of Matrices, SIAM 2008, 11.5);
    callers guard the branch.  Each matrix takes its own count s of square
    roots, until ||x - I||_F <= 0.25 (at most 40), and its own count of
    Mercator series terms, until a term's norm is below 1e-18, so its log
    does not depend on the rest of the stack."""
    eye = np.eye(S.shape[-1])
    X = np.array(S, dtype=float)
    s = np.zeros(len(X), dtype=int)
    roots = np.flatnonzero(_norms(X - eye) > 0.25)
    while len(roots):
        X[roots] = _sqrtm_db(X[roots])
        s[roots] += 1
        roots = roots[(_norms(X[roots] - eye) > 0.25) & (s[roots] < 40)]
    E = X - eye
    acc = E.copy()
    term = E.copy()
    live = np.arange(len(X))
    for i in range(2, 60):
        term = term @ E[live]
        acc[live] += term / i if i % 2 else -term / i
        going = ~(_norms(term) < 1e-18)
        live, term = live[going], term[going]
        if not len(live):
            break
    return acc * (2.0**s)[:, None, None]


def _algebra_logs(S, group):
    """The principal logs of a (m, k, k) stack of group matrices inside the
    branch (_check_branch), as one checked stack; on SO/U1 the roundoff of
    each log is cleaned up to the skew matrix it must be."""
    a = _logm(S)
    if group.orthogonal:
        a = 0.5 * (a - a.swapaxes(-1, -2))
    return _algebra_checked(a, group)


def _check_branch(m):
    """Raises OutOfBranchError unless ||m - I||_F < 1, the principal branch
    on which group_log inverts group_exp."""
    dist = frobenius(m - np.eye(len(m)))
    if dist >= 1.0:
        raise OutOfBranchError(
            f"||g - I||_F = {dist:.3f} >= 1: outside the principal branch"
        )


def group_exp(a):
    """Matrix exponential of an algebra element, landing on the group."""
    m = _expm(np.asarray(a.matrix, dtype=float))
    if a.group.orthogonal:
        # repeated squaring can leave roundoff of order 1e-15; snap back
        m = _polar(m)
    return GroupElement(m, a.group)


def group_log(g):
    """Principal matrix logarithm; requires ||g - I||_F < 1.

    Inverse of group_exp within 1e-10 on its branch.  The log of a stack
    of one (_algebra_logs).
    """
    _check_branch(g.matrix)
    return AlgebraElement(_algebra_logs(g.matrix[None], g.group)[0], g.group)


# --- projection ----------------------------------------------------------------

def _rows(C):
    """The (..., k, k) view of a component-major (k, k, ...) stack."""
    return C.transpose(tuple(range(2, C.ndim)) + (0, 1))


def _components(R):
    """The component-major (k, k, ...) view of a (..., k, k) stack."""
    return R.transpose((R.ndim - 2, R.ndim - 1) + tuple(range(R.ndim - 2)))


def _mul(a, b):
    """a @ b for every matrix of two component-major (k, k, ...) stacks,
    whose trailing axes broadcast."""
    return np.einsum("ij...,jk...->ik...", a, b)


def _polar(m):
    """Orthogonal polar factor of each matrix of a (..., k, k) stack: the
    nearest SO matrix in the Frobenius norm.  See _polar_components."""
    return _rows(_polar_components(_components(np.asarray(m, dtype=float))))


def _polar_components(C):
    """Orthogonal polar factor of each matrix of a component-major
    (k, k, ...) stack, as a new stack.

    A matrix whose Gram defect X^T X - I has every entry within _NS_BASIN
    takes Newton-Schulz steps X <- X (3I - X^T X) / 2 (Higham, Computing
    the polar decomposition -- with applications, 1986), which converge
    quadratically to its polar factor, until its own defect is at roundoff.
    Every other matrix takes the SVD factor u @ vt, and raises
    SingularInputError when it is numerically singular.  Every choice is
    made per matrix, so a matrix's factor does not depend on the rest of
    the stack.  Raises SingularInputError when any factor has det <= 0.
    Returns raw matrices, so callers skip the GroupElement checks."""
    k = len(C)
    given = C.reshape(k, k, -1)
    eye = np.eye(k)[:, :, None]
    X = given.copy()
    G = _mul(X.swapaxes(0, 1), X) - eye
    defect = np.abs(G).max(axis=(0, 1))
    newton = defect <= _NS_BASIN
    going = newton & (defect > _NS_TOL)
    for _ in range(_NS_STEPS):
        if not going.any():
            break
        X = np.where(going, X - 0.5 * _mul(X, G), X)
        G = _mul(X.swapaxes(0, 1), X) - eye
        going &= np.abs(G).max(axis=(0, 1)) > _NS_TOL
    far = ~newton | going
    if far.any():
        u, sigma, vt = np.linalg.svd(_rows(given[..., far]))
        if (sigma[..., -1] <= _DET_TOL).any():
            raise SingularInputError("matrix is numerically singular")
        X[..., far] = _components(u @ vt)
    if (np.linalg.det(_rows(X)) <= 0).any():
        raise SingularInputError("projection to SO needs det > 0")
    return X.reshape(C.shape)


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


def _check_sweep(steps, what):
    """Refuses a sweep that a slope or an extrapolation to zero cannot use:
    fewer than two steps, a repeated step, or a zero step."""
    if len(steps) < 2 or len(set(steps)) < len(steps) or 0 in steps:
        raise ValidationError(
            f"{what} must hold two or more distinct nonzero steps, got {list(steps)}"
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
