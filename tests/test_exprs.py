"""Expression DSL: parsing, evaluation, exact gradients, round trips."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from holonome import exprs
from holonome.errors import (
    ArityError,
    DimensionError,
    DomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
)

from oracles import central_gradient, walk_dual_many, walk_many


def test_parse_zero_literal():
    e = exprs.parse("0", 2)
    assert e.ast == ("num", 0.0)
    assert exprs.evaluate(e, (3.0, 4.0)) == 0.0


def test_parse_mixed_tree_evaluates():
    e = exprs.parse("x1*x2 + sin(x1)", 2)
    assert exprs.evaluate(e, (1.0, 0.0)) == pytest.approx(math.sin(1.0), abs=1e-15)
    assert exprs.evaluate(e, (2.0, 3.0)) == pytest.approx(6.0 + math.sin(2.0), abs=1e-14)


def test_parse_variable_out_of_range():
    with pytest.raises(DimensionError):
        exprs.parse("x3", 2)


def test_eval_examples():
    assert exprs.evaluate(exprs.parse("x1+x2", 2), (2.0, 3.0)) == 5.0
    assert exprs.evaluate(exprs.parse("cos(x1)", 1), (0.0,)) == 1.0
    with pytest.raises(DomainError):
        exprs.evaluate(exprs.parse("x1/x2", 2), (1.0, 0.0))


def test_eval_dual_examples():
    d = exprs.evaluate_dual(exprs.parse("x1*x1", 1), (3.0,))
    assert d.value == 9.0
    assert d.deriv == pytest.approx([6.0])

    d = exprs.evaluate_dual(exprs.parse("sin(x1)*x2", 2), (0.0, 5.0))
    assert d.value == 0.0
    assert np.allclose(d.deriv, [5.0, 0.0], atol=1e-12)

    d = exprs.evaluate_dual(exprs.parse("7", 3), (1.0, 1.0, 1.0))
    assert d.value == 7.0
    assert np.array_equal(d.deriv, np.zeros(3))


def test_precedence_and_power():
    # pow binds tighter than unary minus: -x1^2 == -(x1^2)
    assert exprs.evaluate(exprs.parse("-x1^2", 1), (3.0,)) == -9.0
    assert exprs.evaluate(exprs.parse("2 + 3*4", 1), (0.0,)) == 14.0
    assert exprs.evaluate(exprs.parse("2*3^2", 1), (0.0,)) == 18.0
    assert exprs.evaluate(exprs.parse("(2+3)*4", 1), (0.0,)) == 20.0
    assert exprs.evaluate(exprs.parse("2 - 3 - 4", 1), (0.0,)) == -5.0


def test_atan2_two_arguments():
    e = exprs.parse("atan2(x2, x1)", 2)
    assert exprs.evaluate(e, (1.0, 1.0)) == pytest.approx(math.pi / 4)


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as err:
        exprs.parse("x1 + * 2", 1)
    assert err.value.offset == 5


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        exprs.parse("x1 + y", 1)
    with pytest.raises(UnknownIdentifierError):
        exprs.parse("tan(x1)", 1)


def test_arity_errors():
    with pytest.raises(ArityError):
        exprs.parse("sin(x1, x2)", 2)
    with pytest.raises(ArityError):
        exprs.parse("atan2(x1)", 1)


def test_domain_errors_eager():
    with pytest.raises(DomainError):
        exprs.evaluate(exprs.parse("log(x1)", 1), (-1.0,))
    with pytest.raises(DomainError):
        exprs.evaluate(exprs.parse("sqrt(x1)", 1), (-0.5,))
    with pytest.raises(DomainError):
        exprs.evaluate(exprs.parse("exp(x1)", 1), (1e4,))  # overflow reported


def test_trailing_input_rejected():
    with pytest.raises(ExprSyntaxError):
        exprs.parse("x1 2", 1)
    with pytest.raises(ExprSyntaxError):
        exprs.parse("2^3^2", 1)  # chained pow is not in the grammar


# --- randomized sweeps ------------------------------------------------------

_FUNCS = ["sin", "cos", "exp", "log", "sqrt"]


def _random_ast(rng, dim, depth):
    """Random grammar-conformant source text (total over safe inputs)."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return f"{rng.uniform(0.1, 2.0):.6f}"
        return f"x{rng.integers(1, dim + 1)}"
    choice = rng.random()
    a = _random_ast(rng, dim, depth - 1)
    b = _random_ast(rng, dim, depth - 1)
    if choice < 0.2:
        return f"({a} + {b})"
    if choice < 0.4:
        return f"({a} - {b})"
    if choice < 0.6:
        return f"({a}*{b})"
    if choice < 0.7:
        # keep denominators away from zero
        return f"({a}/(1.5 + cos({b})^2))"
    if choice < 0.8:
        return f"({a})^{rng.integers(0, 4)}"
    if choice < 0.9:
        f = _FUNCS[rng.integers(0, 3)]  # sin, cos, exp only: total everywhere
        return f"{f}({a})"
    return f"-({a})"


def test_random_gradients_match_central_differences():
    """200 random expressions, gradient vs central differences:
    |dual - fd| <= 1e-6 * (1 + |dual|) componentwise."""
    rng = np.random.default_rng(12345)
    checked = 0
    while checked < 200:
        dim = int(rng.integers(1, 4))
        src = _random_ast(rng, dim, int(rng.integers(1, 7)))
        e = exprs.parse(src, dim)
        x = rng.uniform(-1.2, 1.2, dim)
        try:
            d = exprs.evaluate_dual(e, x)
        except DomainError:
            continue
        if abs(d.value) > 1e6 or np.max(np.abs(d.deriv)) > 1e6:
            continue  # steep exp nests make fd meaningless
        fd = central_gradient(lambda y: exprs.evaluate(e, y), x)
        assert np.all(np.abs(d.deriv - fd) <= 1e-6 * (1.0 + np.abs(d.deriv))), src
        checked += 1


def test_random_parse_pretty_roundtrip():
    rng = np.random.default_rng(999)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        src = _random_ast(rng, dim, int(rng.integers(1, 7)))
        e = exprs.parse(src, dim)
        again = exprs.parse(exprs.pretty(e), dim)
        assert again.ast == e.ast


def test_evaluation_is_deterministic():
    e = exprs.parse("sin(x1)*exp(x2) - x1/(2 + x2^2)", 2)
    x = (0.37, -1.21)
    vals = {exprs.evaluate(e, x) for _ in range(50)}
    assert len(vals) == 1


# --- hypothesis: algebraic constructors mirror parsing -----------------------

_scalars = st.floats(min_value=-5, max_value=5, allow_nan=False, width=32)


@settings(max_examples=200, deadline=None)
@given(_scalars, _scalars, _scalars)
def test_operator_overloads_match_parser(a, b, c):
    built = (exprs.lit(a) + exprs.var(0, 2) * exprs.lit(b)) - exprs.sin(
        exprs.var(1, 2)
    ) * exprs.lit(c)
    x = (0.3, -0.8)
    expected = (a + 0.3 * b) - math.sin(-0.8) * c
    assert exprs.evaluate(built, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=6), _scalars)
def test_integer_power_matches_repeated_multiplication(k, base):
    e = exprs.var(0, 1) ** k
    got = exprs.evaluate(e, (base,))
    assert got == pytest.approx(float(base) ** k, rel=1e-12, abs=1e-12)


# --- compiled programs against the reference tree walkers ---------------------

_x1, _x2 = exprs.var(0, 2), exprs.var(1, 2)
_leaves = st.one_of(
    st.sampled_from([_x1, _x2]),
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(0.1, 2.0), st.floats(-2.0, -0.1)
    ).map(exprs.lit),
)


def _grow(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        children.map(lambda a: -a),
        st.tuples(children, st.integers(0, 3)).map(lambda t: t[0] ** t[1]),
        pairs.map(lambda t: t[0] + t[1]),
        pairs.map(lambda t: t[0] - t[1]),
        pairs.map(lambda t: t[0] * t[1]),
        pairs.map(lambda t: t[0] / t[1]),
        pairs.map(lambda t: exprs.atan2(*t)),
        st.sampled_from([exprs.sin, exprs.cos, exprs.exp, exprs.log, exprs.sqrt]).flatmap(
            lambda f: children.map(f)
        ),
    )


_trees = st.recursive(_leaves, _grow, max_leaves=8)


@st.composite
def _shared_vectors(draw):
    """Expression vectors whose outputs share subtrees, by object and by
    structure: each output combines members of one drawn pool."""
    pool = draw(st.lists(_trees, min_size=1, max_size=4))
    pick = st.sampled_from(pool)
    combine = st.sampled_from([
        lambda a, b: a,
        lambda a, b: a + b,
        lambda a, b: a * b,
        lambda a, b: a / b,
        lambda a, b: exprs.sin(a) - exprs.log(b),
        lambda a, b: exprs.sqrt(a) * exprs.substitute(b, [_x1, _x2]),  # b rebuilt: equal, not shared
    ])
    return [draw(combine)(draw(pick), draw(pick)) for _ in range(draw(st.integers(1, 4)))]


_coordinates = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5]), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3)
)
_point_sets = st.integers(1, 4).flatmap(
    lambda m: st.lists(st.tuples(_coordinates, _coordinates), min_size=m, max_size=m)
).map(np.array)


def _outcome(f):
    """What f returns, or the message of the DomainError it raises."""
    try:
        return f()
    except DomainError as err:
        return str(err)


_shared_log = exprs.log(_x1 - _x2)  # a domain fault at x1 = x2, inside a shared subtree
_faults = [
    [_shared_log + _x1, exprs.sin(_shared_log) * _shared_log],
    [exprs.sqrt(_x1 * _x2), exprs.sqrt(_x1) / exprs.lit(2.0)],  # sqrt' at 0 where x1 x2 = 0
    [exprs.atan2(_x2, _x1) + _x1 / _x2],
]


@seed(20261018)
@settings(max_examples=400, deadline=None)
@given(_shared_vectors(), _point_sets)
@example(_faults[0], np.array([[1.0, 0.5], [0.5, 0.5]]))
@example(_faults[1], np.array([[1.0, 0.5], [0.0, 0.5]]))
@example(_faults[2], np.array([[0.0, 0.0]]))
def test_compiled_values_are_the_tree_walkers_bit_for_bit(es, X):
    """evaluate_many on random vectors with shared subtrees: the same bits
    as walking every tree, or a DomainError with the same message on the
    same points."""
    got = _outcome(lambda: exprs.evaluate_many(es, X))
    want = _outcome(lambda: walk_many(es, X))
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.tobytes() == want.tobytes()


@seed(20261018)
@settings(max_examples=400, deadline=None)
@given(_shared_vectors(), _point_sets)
@example(_faults[0], np.array([[1.0, 0.5], [0.5, 0.5]]))
@example(_faults[1], np.array([[1.0, 0.5], [0.0, 0.5]]))
@example(_faults[2], np.array([[0.0, 0.0]]))
def test_compiled_gradients_match_dual_numbers(es, X):
    """evaluate_dual_many, built on diff: the values bit for bit and the
    gradients within 1e-12 relative of forward-mode dual numbers, or a
    DomainError with the same message on the same points (sqrt' at 0
    included)."""
    got = _outcome(lambda: exprs.evaluate_dual_many(es, X))
    want = _outcome(lambda: walk_dual_many(es, X))
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got[0].tobytes() == want[0].tobytes()
        np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0.0)


# --- the run's block: one row per live value ---------------------------------


def _max_live(program):
    """The most values alive at once over the program's instruction list,
    walked on its own: each row operand stands for the value that the
    last instruction writing that row computed, and a value is alive from
    its instruction through the last one that reads it, both included."""
    writer, made, last = {}, [], {}
    for i, (fn, a, b, dst, writes) in enumerate(program._code):
        for x in (a, b):
            if x is not None and x >= len(program._leaves):
                assert x in writer, f"instruction {i} reads row {x} before any write"
                last[writer[x]] = i
        writer[dst] = len(made)
        made.append(i)
        last[len(made) - 1] = i
    return max((sum(made[v] <= i <= last[v] for v in last) for i in range(len(made))), default=0)


def test_a_chain_of_dependent_ops_runs_in_two_rows():
    """40 instructions, each reading the one before it, need at most two
    rows, and give the tree walker's bits."""
    e = _x1
    steps = [exprs.sin, exprs.cos, lambda a: a * _x2, lambda a: a + exprs.lit(0.25)]
    for i in range(40):
        e = steps[i % 4](e)
    program = exprs.Program([e])
    assert len(program._code) == 40
    assert program.width <= 2
    X = np.array([[0.3, -1.2], [1.5, 0.7], [-0.4, 0.0]])
    assert exprs.evaluate_many(program, X).tobytes() == walk_many([e], X).tobytes()


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(_shared_vectors(), st.integers(0, 2))
def test_block_width_never_exceeds_the_live_values(es, grad_axes):
    program = exprs.Program(es, grad_axes)
    assert program.width <= _max_live(program)


@pytest.mark.parametrize("source, grad_axes, point, message", [
    ("x1/x2", 0, (1.0, 0.0), "division by zero"),
    ("log(x1)", 0, (0.0, 1.0), "log of a non-positive value"),
    ("sqrt(x1)", 0, (-1.0, 1.0), "sqrt of a negative value"),
    ("sqrt(x1)", 2, (0.0, 1.0), "sqrt derivative needs a positive argument"),
    ("atan2(x1, x2)", 0, (0.0, 0.0), "atan2"),
    ("atan2(x1, x2)", 2, (0.0, 0.0), "atan2"),
])
def test_domain_checked_ops_raise_through_run(source, grad_axes, point, message):
    """Each checked op raises in Program.run itself, before it writes its
    row, at a fault among good points."""
    program = exprs.Program([exprs.parse(source, 2)], grad_axes)
    cols = [np.array([0.5, p, 0.7]) for p in point]
    out = np.empty((program.size * (1 + grad_axes), 3))
    with pytest.raises(DomainError, match=message):
        program.run(cols, out)


def test_concurrent_runs_of_one_program_give_the_serial_bits():
    """Threads that run one compiled Program at the same time, each on its
    own points, get the bits a serial run gets: a run shares no buffer
    with another.  Long columns make numpy release the interpreter lock
    inside the ops, so runs interleave."""
    x1, x2 = exprs.var(0, 2), exprs.var(1, 2)
    es = [exprs.sin(x1 * x2) / (exprs.lit(2.0) + exprs.cos(x1)), exprs.exp(-(x1 * x1)) - x2 ** 3]
    program = exprs.Program(es, 2)
    rng = np.random.default_rng(19)
    inputs = [rng.uniform(-2.0, 2.0, (2**15, 2)) for _ in range(4)]
    serial = [exprs.evaluate_dual_many(program, X) for X in inputs]
    barrier = threading.Barrier(len(inputs))
    mismatches = []

    def work(k):
        barrier.wait(timeout=30)
        for _ in range(20):
            got = exprs.evaluate_dual_many(program, inputs[k])
            if any(g.tobytes() != s.tobytes() for g, s in zip(got, serial[k])):
                mismatches.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_sqrt_derivative_needs_a_positive_argument():
    e = exprs.sqrt(exprs.var(0, 1))
    assert exprs.evaluate(e, (0.0,)) == 0.0
    with pytest.raises(DomainError, match="sqrt derivative needs a positive argument"):
        exprs.evaluate_dual(e, (0.0,))


def test_diff_folds_only_exact_identities():
    x1, x2 = exprs.var(0, 2), exprs.var(1, 2)
    assert exprs.diff(x1 * x2, 0).ast == x2.ast  # 0*x1 + 1*x2 folded
    assert exprs.diff(exprs.lit(3.0) + x2, 0).ast == ("num", 0.0)
    assert exprs.diff(exprs.sin(x1), 0).ast == ("call", "cos", (x1.ast,))
    assert exprs.diff(x1 / x2, 1).ast == (
        "div", ("sub", ("num", 0.0), x1.ast), ("pow", x2.ast, 2)
    )
    # the derivative is an ordinary expression: it prints and parses back
    d = exprs.diff(exprs.atan2(x2, x1 * x1) * exprs.sqrt(x2), 0)
    assert exprs.parse(exprs.pretty(d), 2).ast == d.ast


# --- printing: negative literals reparse to the same value --------------------

def test_negative_literals_print_in_parentheses():
    """A negative literal, -0.0 included, prints in parentheses, so it
    reparses as the negation of its magnitude and binds as an atom."""
    x1 = exprs.var(0, 1)
    assert exprs.pretty(exprs.lit(-2.0) ** 2) == "(-2.0)^2"
    assert exprs.evaluate(exprs.parse(exprs.pretty(exprs.lit(-2.0) ** 2), 1), (0.0,)) == 4.0
    assert exprs.pretty(-exprs.lit(-1.0)) == "-(-1.0)"
    assert exprs.parse("-(-1.0)", 1).ast == ("neg", ("neg", ("num", 1.0)))
    assert exprs.pretty(exprs.lit(-0.0)) == "(-0.0)"
    assert exprs.pretty(x1 - exprs.lit(-3.5)) == "x1 - (-3.5)"
    assert exprs.pretty(exprs.lit(0.0) + x1) == "0.0 + x1"


@seed(20261026)
@settings(max_examples=400, deadline=None)
@given(_trees, _point_sets)
def test_printed_expressions_reparse_to_the_same_values(e, X):
    """parse(pretty(e)) has e's value at every point, bit for bit (or the
    same DomainError), on random trees with negative and -0.0 literals."""
    again = exprs.parse(exprs.pretty(e), 2)
    got = _outcome(lambda: exprs.evaluate_many((again,), X))
    want = _outcome(lambda: exprs.evaluate_many((e,), X))
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.tobytes() == want.tobytes()
