"""Structure groups, exp/log, and the polar projection."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holonome import groups
from holonome.errors import GroupInvariantError, OutOfBranchError, SingularInputError
from holonome.groups import (
    AlgebraElement,
    GroupElement,
    StructureGroup,
    frobenius,
    group_exp,
    group_inverse,
    group_log,
    project_to_group,
    rotation2,
    rotation_angle,
    so2_generator,
    so3_basis,
)

from oracles import jacobi_polar, taylor_expm

SO2 = StructureGroup("SO", 2)
SO3 = StructureGroup("SO", 3)
GL2 = StructureGroup("GL", 2)
J = so2_generator()


def random_skew(rng, k, scale=1.0):
    m = rng.normal(size=(k, k)) * scale
    return 0.5 * (m - m.T)


def test_group_kinds():
    assert StructureGroup("U1", 2).orthogonal
    with pytest.raises(GroupInvariantError):
        StructureGroup("U1", 3)
    with pytest.raises(GroupInvariantError):
        StructureGroup("SU", 2)
    with pytest.raises(GroupInvariantError):
        StructureGroup("SO", 0)


def test_group_element_invariants():
    GroupElement(np.eye(2), SO2)
    with pytest.raises(GroupInvariantError):
        GroupElement(np.diag([1.0, -1.0]), SO2)  # det < 0
    with pytest.raises(GroupInvariantError):
        GroupElement(1.5 * np.eye(2), SO2)  # not orthogonal
    with pytest.raises(GroupInvariantError):
        GroupElement(np.zeros((2, 2)), GL2)  # singular
    GroupElement(np.array([[2.0, 1.0], [0.0, 0.5]]), GL2)


def test_algebra_element_invariants():
    AlgebraElement(0.3 * J, SO2)
    with pytest.raises(GroupInvariantError):
        AlgebraElement(np.array([[0.0, 1.0], [1.0, 0.0]]), SO2)
    AlgebraElement(np.array([[1.0, 2.0], [3.0, 4.0]]), GL2)  # GL: anything


def test_exp_of_zero_is_identity():
    g = group_exp(AlgebraElement(np.zeros((2, 2)), SO2))
    assert frobenius(g.matrix - np.eye(2)) < 1e-15


def test_exp_rotation_closed_form():
    g = group_exp(AlgebraElement((np.pi / 2.0) * J, SO2))
    assert frobenius(g.matrix - np.array([[0.0, -1.0], [1.0, 0.0]])) < 1e-12


def test_exp_random_skew_lands_on_group_and_matches_taylor():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_skew(rng, 3)
        g = group_exp(AlgebraElement(a, SO3))
        assert frobenius(g.matrix.T @ g.matrix - np.eye(3)) <= 1e-12
        assert frobenius(g.matrix - taylor_expm(a)) <= 1e-12


def test_log_identity_is_zero():
    a = group_log(GroupElement(np.eye(2), SO2))
    assert frobenius(a.matrix) == 0.0


def test_log_small_rotation_closed_form():
    a = group_log(GroupElement(rotation2(0.3), SO2))
    assert frobenius(a.matrix - 0.3 * J) < 1e-12


def test_log_outside_principal_branch():
    with pytest.raises(OutOfBranchError):
        group_log(GroupElement(rotation2(np.pi), SO2))


def test_exp_log_mutually_inverse():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_skew(rng, 3, scale=0.4)
        a = a / max(1.0, frobenius(a) / 0.5)  # keep ||a|| <= 0.5
        g = group_exp(AlgebraElement(a, SO3))
        back = group_log(g)
        assert frobenius(back.matrix - a) <= 1e-10
        # GL branch: non-skew logarithms
        m = rng.normal(size=(2, 2)) * 0.2
        gl = group_exp(AlgebraElement(m, GL2))
        assert frobenius(group_log(gl).matrix - m) <= 1e-10


def test_project_near_identity():
    rng = np.random.default_rng(5)
    noise = rng.normal(size=(2, 2))
    noise = 0.5 * (noise + noise.T) * 1e-8
    g = project_to_group(np.eye(2) + noise, SO2)
    assert frobenius(g.matrix.T @ g.matrix - np.eye(2)) < 1e-14


def test_project_singular_input():
    with pytest.raises(SingularInputError):
        project_to_group(np.diag([2.0, 0.0]), SO2)


def test_project_scaling_invariance_vs_jacobi_oracle():
    r = rotation2(0.4)
    g = project_to_group(1.001 * r, SO2)
    assert frobenius(g.matrix - r) < 1e-12
    rng = np.random.default_rng(21)
    for _ in range(10):
        m = rng.normal(size=(3, 3))
        if np.linalg.det(m) < 0:
            m[:, 0] *= -1.0
        got = project_to_group(m, SO3).matrix
        assert frobenius(got - jacobi_polar(m)) < 1e-10


def test_group_inverse():
    g = GroupElement(rotation2(0.8), SO2)
    assert frobenius((group_inverse(g) @ g).matrix - np.eye(2)) < 1e-15
    m = GroupElement(np.array([[2.0, 1.0], [0.5, 1.0]]), GL2)
    assert frobenius(group_inverse(m).matrix @ m.matrix - np.eye(2)) < 1e-14


def test_orthogonal_inverse_is_the_unchecked_transpose(monkeypatch):
    """g^T passes every check g passed, so group_inverse does not run the
    check again; it returns a read-only copy of the transpose."""
    g = GroupElement(rotation2(0.8), SO2)
    monkeypatch.setattr(groups, "_check_group_matrix", lambda m, group: pytest.fail("checked"))
    inv = group_inverse(g)
    assert isinstance(inv, GroupElement) and inv.group is SO2
    assert np.array_equal(inv.matrix, g.matrix.T)
    assert not inv.matrix.flags.writeable and not np.shares_memory(inv.matrix, g.matrix)


def test_rotation_angle():
    assert rotation_angle(GroupElement(rotation2(0.7), SO2)) == pytest.approx(0.7)
    assert rotation_angle(GroupElement(rotation2(-2.5), SO2)) == pytest.approx(-2.5)
    e1, _, _ = so3_basis()
    g3 = group_exp(AlgebraElement(1.1 * e1, SO3))
    assert rotation_angle(g3) == pytest.approx(1.1, abs=1e-12)
    assert rotation_angle(GroupElement(np.eye(2) * 2.0, GL2)) is None


def test_matrices_are_immutable():
    g = GroupElement(np.eye(2), SO2)
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 5.0


def test_polar_projects_a_stack_and_checks_all_of_it():
    """_polar on a (m, k, k) stack equals _polar on each matrix, and one
    singular or det < 0 matrix anywhere in the stack raises."""
    rng = np.random.default_rng(8)
    stack = np.stack([group_exp(AlgebraElement(random_skew(rng, 3), SO3)).matrix
                      + 1e-6 * rng.normal(size=(3, 3)) for _ in range(7)])
    got = groups._polar(stack)
    for m, g in zip(stack, got):
        assert np.array_equal(g, groups._polar(m))
    for bad in (np.zeros((3, 3)), np.diag([-1.0, 1.0, 1.0])):
        for i in (0, 3, 6):
            broken = stack.copy()
            broken[i] = bad
            with pytest.raises(SingularInputError):
                groups._polar(broken)


def near_orthogonal_stack(rng, k, m, scale):
    """m rotations of SO(k), each pushed off the group by a perturbation
    of size scale times a factor in [1e-6, 1], so that the stack spans
    defects from roundoff to a few percent."""
    group = {2: SO2, 3: SO3}[k]
    rot = np.stack(
        [group_exp(AlgebraElement(random_skew(rng, k, 3.0), group)).matrix for _ in range(m)]
    )
    sizes = scale * 10.0 ** rng.uniform(-6.0, 0.0, size=(m, 1, 1))
    return rot + sizes * rng.normal(size=(m, k, k))


def svd_polar(m):
    """The SVD polar factor u @ vt of each matrix, reached by another
    route: with m^T m = V S^2 V^T, u @ vt = m V S^-1 V^T."""
    s2, v = np.linalg.eigh(np.swapaxes(m, -1, -2) @ m)
    return m @ (v / np.sqrt(s2)[..., None, :]) @ np.swapaxes(v, -1, -2)


@seed(20261021)
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.integers(1, 40),
    st.sampled_from([1e-12, 1e-6, 1e-3, 0.03]),
    st.integers(0, 2**32 - 1),
)
def test_polar_matches_the_svd_factor(k, m, scale, rng_seed):
    """On near-orthogonal stacks, _polar equals the SVD polar factor,
    computed here from the eigendecomposition of m^T m, within 1e-14,
    entry by entry."""
    stack = near_orthogonal_stack(np.random.default_rng(rng_seed), k, m, scale)
    assert np.abs(groups._polar(stack) - svd_polar(stack)).max() <= 1e-14


@seed(20261022)
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.integers(1, 40),
    st.sampled_from([1e-12, 1e-6, 1e-3, 0.03]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_polar_of_each_matrix_is_its_own(k, m, scale, far_off, rng_seed):
    """_polar is the orthogonal polar factor of each matrix on its own: on
    near-orthogonal stacks, one matrix far off the group or none, it
    equals the one-sided Jacobi polar factor of the oracles within 1e-14,
    entry by entry, and _polar(S)[i] equals _polar(S[i:i+1])[0] bit for
    bit, so no matrix's result depends on the rest of the stack."""
    rng = np.random.default_rng(rng_seed)
    stack = near_orthogonal_stack(rng, k, m, scale)
    if far_off:
        i = rng.integers(m)
        stack[i] = stack[i] * 3.0 + rng.normal(size=(k, k))
        stack[i, :, 0] *= np.sign(np.linalg.det(stack[i]))
    got = groups._polar(stack)
    for i in range(m):
        assert np.abs(got[i] - jacobi_polar(stack[i])).max() <= 1e-14
        assert np.array_equal(got[i], groups._polar(stack[i : i + 1])[0])


@seed(20261023)
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.integers(1, 30),
    st.sampled_from(["singular", "reflection", "flipped"]),
    st.data(),
)
def test_one_bad_matrix_anywhere_in_the_stack_raises(k, m, kind, data):
    """A singular matrix, a reflection, or a near-orthogonal matrix with
    det < 0 anywhere in the stack raises SingularInputError."""
    stack = near_orthogonal_stack(np.random.default_rng(m), k, m, 1e-6)
    i = data.draw(st.integers(0, m - 1))
    if kind == "singular":
        stack[i, :, -1] = 0.0
    elif kind == "reflection":
        stack[i] = np.diag([-1.0] + [1.0] * (k - 1))
    else:
        stack[i, :, 0] *= -1.0
    with pytest.raises(SingularInputError):
        groups._polar(stack)


def test_elements_validate_the_stack_once():
    """_elements checks every matrix of a stack against the group, then
    wraps each as a read-only GroupElement; a stack is not one element."""
    mats = np.stack([rotation2(a) for a in (0.1, 0.2, 0.3)])
    gs = groups._elements(mats, SO2)
    assert all(isinstance(g, GroupElement) and g.group == SO2 for g in gs)
    assert all(np.array_equal(g.matrix, m) for g, m in zip(gs, mats))
    with pytest.raises(ValueError):
        gs[1].matrix[0, 0] = 5.0
    for bad, group in ((1.5 * np.eye(2), SO2), (np.diag([1.0, -1.0]), SO2),
                       (np.zeros((2, 2)), GL2)):
        broken = mats.copy()
        broken[2] = bad
        with pytest.raises(GroupInvariantError):
            groups._elements(broken, group)
    with pytest.raises(GroupInvariantError):
        GroupElement(mats, SO2)


# --- the stacked logarithm ----------------------------------------------------

def log_stack(rng, group, m, dists):
    """m group matrices g with ||g - I||_F about each of dists in turn:
    rotations exp(a) on SO, I + noise on GL."""
    k = group.k
    out = []
    for i in range(m):
        d = dists[i % len(dists)]
        if group.orthogonal:
            a = rng.normal(size=(k, k))
            a = a - a.T
            # ||exp(a) - I||_F is about ||a||_F for small a
            out.append(group_exp(AlgebraElement(a * d / frobenius(a), group)).matrix)
        else:
            e = rng.normal(size=(k, k))
            out.append(np.eye(k) + e * d / frobenius(e))
    return np.stack(out)


@seed(20261024)
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([SO2, SO3, GL2]),
    st.integers(1, 12),
    st.lists(st.sampled_from([1e-6, 0.01, 0.2, 0.3, 0.6, 0.95]), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_log_of_each_matrix_is_its_own(group, m, dists, rng_seed):
    """_logm(S)[i] equals _logm(S[i:i+1])[0] bit for bit: each matrix
    takes its own count of square roots (past 0.25) and of series terms,
    whatever the rest of the stack needs."""
    stack = log_stack(np.random.default_rng(rng_seed), group, m, dists)
    got = groups._logm(stack)
    for i in range(m):
        assert np.array_equal(got[i], groups._logm(stack[i : i + 1])[0])


def test_stacked_log_takes_square_roots_where_needed():
    """Past ||g - I||_F = 0.25 a matrix takes Denman-Beavers square roots:
    its log still inverts group_exp within 1e-12, on SO(2), SO(3) and
    GL(2), through group_log, a stack of one."""
    rng = np.random.default_rng(41)
    for group in (SO2, SO3, GL2):
        stack = log_stack(rng, group, 6, [0.05, 0.4, 0.9])
        assert (np.linalg.norm(stack - np.eye(group.k), axis=(1, 2)) > 0.25).sum() >= 2
        for g in stack:
            back = group_exp(group_log(GroupElement(g, group))).matrix
            assert frobenius(back - g) <= 1e-12


def test_stacked_algebra_check_catches_any_non_skew_member():
    """_algebra_checked checks a stack as one: a stack whose members are
    all skew passes, and one non-skew member raises the AlgebraElement
    error on SO; GL has no skew condition."""
    mats = np.stack([0.1 * J, 0.2 * J, 0.3 * J])
    assert groups._algebra_checked(mats, SO2) is mats
    broken = mats.copy()
    broken[1, 0, 0] = 1e-6
    with pytest.raises(GroupInvariantError, match="not skew-symmetric"):
        groups._algebra_checked(broken, SO2)
    assert groups._algebra_checked(broken, GL2) is broken


# --- the per-element checks and frobenius ----------------------------------------

def random_rotation(rng, k):
    """A k x k rotation from the QR factors of a normal matrix, its det
    made +1 by a column flip."""
    q, r = np.linalg.qr(rng.normal(size=(k, k)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.mark.parametrize("k", [2, 3, 4])
def test_reflections_fail_the_det_check_and_rotations_pass(k):
    """diag(1, ..., -1), and every rotation times it, is orthogonal with
    det -1: GroupElement refuses it on SO(k), through the cofactor sign for
    k = 2 and 3 and np.linalg.det for k = 4.  The rotations pass."""
    group = StructureGroup("SO", k)
    reflection = np.diag([1.0] * (k - 1) + [-1.0])
    with pytest.raises(GroupInvariantError, match="needs det > 0"):
        GroupElement(reflection, group)
    rng = np.random.default_rng(190 + k)
    for _ in range(50):
        r = random_rotation(rng, k)
        GroupElement(r, group)
        with pytest.raises(GroupInvariantError, match="needs det > 0"):
            GroupElement(r @ reflection, group)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_orthogonality_defect_just_over_the_tolerance_raises(k):
    """c r with ||(c r)^T (c r) - I||_F = (c^2 - 1) sqrt(k) just under 1e-9
    passes, and just over it raises, before any det is read."""
    group = StructureGroup("SO", k)
    r = random_rotation(np.random.default_rng(k), k)
    GroupElement(np.sqrt(1.0 + 0.9e-9 / np.sqrt(k)) * r, group)
    with pytest.raises(GroupInvariantError, match="not orthogonal"):
        GroupElement(np.sqrt(1.0 + 1.1e-9 / np.sqrt(k)) * r, group)


def test_singular_gl_matrices_raise():
    """Rank-deficient GL(2) and GL(3) matrices that are not zero raise."""
    for m in ([[1.0, 2.0], [2.0, 4.0]], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]):
        with pytest.raises(GroupInvariantError, match="numerically singular"):
            GroupElement(m, StructureGroup("GL", len(m)))


@seed(20261019)
@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from(["C", "F"]),
    st.integers(-8, 8),
    st.integers(0, 2**32 - 1),
)
def test_frobenius_is_norm_bit_for_bit(k, j, order, exponent, rng_seed):
    """frobenius(m) is float(np.linalg.norm(m, "fro")) bit for bit on k x j
    matrices in C and F order, on their transposes and on strided views."""
    rng = np.random.default_rng(rng_seed)
    big = np.array(rng.normal(size=(2 * k, 3 * j)) * 10.0**exponent, order=order)
    m = np.array(big[:k, :j], order=order)
    for view in (m, m.T, big[::2, ::3], big[1::2, ::-3], big.T[::3, ::2]):
        assert frobenius(view).hex() == float(np.linalg.norm(view, "fro")).hex()


def test_frobenius_refuses_what_norm_refuses():
    """1-D and 3-D input raise ValueError, as np.linalg.norm(m, "fro")
    does."""
    for bad in (np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(ValueError):
            np.linalg.norm(bad, "fro")
        with pytest.raises(ValueError):
            frobenius(bad)


# --- non-finite input ---------------------------------------------------------

NONFINITE_GROUPS = (SO2, SO3, StructureGroup("SO", 4), StructureGroup("U1", 2), GL2)


def good_matrix(rng, group):
    """A group matrix: a random rotation on SO/U1, I plus small noise
    (det near 1) on GL."""
    if group.orthogonal:
        return random_rotation(rng, group.k)
    return np.eye(group.k) + 0.1 * rng.normal(size=(group.k, group.k))


@seed(20261025)
@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(NONFINITE_GROUPS),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_a_nonfinite_entry_fails_every_check(group, bad, m, rng_seed, data):
    """One NaN or +-inf entry anywhere fails every membership and branch
    check with its typed error, and no numpy warning (the suite turns a
    RuntimeWarning into a failure): GroupElement, _elements with the bad
    matrix among good ones, AlgebraElement, _check_branch and
    project_to_group."""
    rng = np.random.default_rng(rng_seed)
    k = group.k
    i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
    g = good_matrix(rng, group)
    g[i, j] = bad
    with pytest.raises(GroupInvariantError, match="NaN or inf|not orthogonal"):
        GroupElement(g, group)
    stack = np.stack([good_matrix(rng, group) for _ in range(m)])
    stack[data.draw(st.integers(0, m - 1))] = g
    with pytest.raises(GroupInvariantError, match="NaN or inf"):
        groups._elements(stack, group)
    a = random_skew(rng, k) if group.orthogonal else rng.normal(size=(k, k))
    a[i, j] = bad
    with pytest.raises(GroupInvariantError, match="NaN or inf"):
        AlgebraElement(a, group)
    with pytest.raises(GroupInvariantError, match="NaN or inf"):
        groups._algebra_checked(np.stack([a, a]), group)
    with pytest.raises(OutOfBranchError):
        groups._check_branch(g)
    with pytest.raises(SingularInputError, match="NaN or inf"):
        project_to_group(g, group)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_nonfinite_entry_beside_zeros_raises_before_numpy_reads_it(k, bad):
    """On I with one NaN or +-inf entry, m^T m would form inf * 0 (numpy's
    3x3 matmul warns on it): GroupElement raises its typed error for the
    non-finite entry before it forms m^T m."""
    g = np.eye(k)
    g[0, 1] = bad
    with pytest.raises(GroupInvariantError, match="NaN or inf"):
        GroupElement(g, StructureGroup("SO", k))


def test_project_to_gl_checks_the_det_and_keeps_the_matrix():
    """On GL the projection is the identity operation after a det check: a
    nonsingular matrix comes back as itself, a singular one raises."""
    m = np.array([[2.0, 1.0], [0.5, 3.0]])
    g = project_to_group(m, GL2)
    assert g.group == GL2 and g.matrix.tobytes() == m.tobytes()
    with pytest.raises(SingularInputError, match="numerically singular"):
        project_to_group([[1.0, 2.0], [2.0, 4.0]], GL2)
