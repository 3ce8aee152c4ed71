"""Small closed expression DSL over chart coordinates x1..x9.

Grammar (whitespace-insensitive, precedence pow > unary minus > * / > + -):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')? atom ('^' INT)?
    atom   := NUMBER | VAR | FUNC '(' expr (',' expr)? ')' | '(' expr ')'
    VAR    := 'x' [1-9]
    FUNC   in {sin, cos, exp, log, sqrt, atan2}

Expressions are immutable after parsing; evaluation is pure and safe to
call concurrently.  First derivatives are exact: diff differentiates an
expression symbolically, by source transformation rather than operator
overloading (Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM
2008).  Evaluation is compiled and vectorized: a Program turns a vector of
expressions (a coordinate map, the entries of a matrix), and optionally
their gradients, into one flat, hash-consed list of numpy calls on whole
arrays of sample points, so a subtree shared between outputs is evaluated
once.  A run evaluates into one block of rows that it allocates once, each
call writing its result into a row through the ufunc's out argument, and
keeps nothing after it returns.  evaluate_many / evaluate_dual_many take
such a vector, or a Program that an object evaluated again and again
compiled once, and fill one (m, len(es)) value array and one
(m, len(es), n) gradient array.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArityError,
    DimensionError,
    DomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
)

__all__ = [
    "Expr",
    "Dual",
    "parse",
    "evaluate",
    "evaluate_dual",
    "evaluate_many",
    "evaluate_dual_many",
    "diff",
    "Program",
    "pretty",
    "substitute",
    "lit",
    "var",
    "sin",
    "cos",
    "exp",
    "log",
    "sqrt",
    "atan2",
]

_UNARY_FUNCS = ("sin", "cos", "exp", "log", "sqrt")
_FUNCS = _UNARY_FUNCS + ("atan2",)

# AST nodes are plain tuples:
#   ("num", float) | ("var", axis) | ("neg", a) | ("pow", a, int)
#   ("add"|"sub"|"mul"|"div", a, b) | ("call", name, (args...))


@dataclass(frozen=True)
class Expr:
    """Parsed expression over variables x1..x<dim>."""

    ast: tuple
    dim: int

    # Operator overloads build new expressions programmatically (used by
    # path and connection factories); dims unify to the larger one.
    def __add__(self, other):
        other = _as_expr(other)
        return Expr(("add", self.ast, other.ast), max(self.dim, other.dim))

    def __radd__(self, other):
        return _as_expr(other).__add__(self)

    def __sub__(self, other):
        other = _as_expr(other)
        return Expr(("sub", self.ast, other.ast), max(self.dim, other.dim))

    def __rsub__(self, other):
        return _as_expr(other).__sub__(self)

    def __mul__(self, other):
        other = _as_expr(other)
        return Expr(("mul", self.ast, other.ast), max(self.dim, other.dim))

    def __rmul__(self, other):
        return _as_expr(other).__mul__(self)

    def __truediv__(self, other):
        other = _as_expr(other)
        return Expr(("div", self.ast, other.ast), max(self.dim, other.dim))

    def __rtruediv__(self, other):
        return _as_expr(other).__truediv__(self)

    def __neg__(self):
        return Expr(("neg", self.ast), self.dim)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative int")
        return Expr(("pow", self.ast, k), self.dim)

    def with_dim(self, dim):
        """Retag the ambient dimension (checks every variable index)."""
        _check_var_indices(self.ast, dim)
        return Expr(self.ast, dim)

    def __call__(self, x):
        return evaluate(self, x)

    def __str__(self):
        return pretty(self)


@dataclass(frozen=True)
class Dual:
    """Value plus exact gradient with respect to x1..xn."""

    value: float
    deriv: np.ndarray = field(compare=False)


def _as_expr(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return lit(float(v))
    raise TypeError(f"cannot treat {v!r} as an expression")


def lit(value):
    """Constant expression (dimension-agnostic until combined)."""
    return Expr(("num", float(value)), 0)


def var(axis, dim=None):
    """Coordinate expression x<axis+1>; axis is 0-based."""
    if dim is None:
        dim = axis + 1
    if axis >= dim:
        raise DimensionError(f"variable x{axis + 1} exceeds dimension {dim}", 0)
    return Expr(("var", axis), dim)


def _call1(name, e):
    e = _as_expr(e)
    return Expr(("call", name, (e.ast,)), e.dim)


def sin(e):
    return _call1("sin", e)


def cos(e):
    return _call1("cos", e)


def exp(e):
    return _call1("exp", e)


def log(e):
    return _call1("log", e)


def sqrt(e):
    return _call1("sqrt", e)


def atan2(y, x):
    y, x = _as_expr(y), _as_expr(x)
    return Expr(("call", "atan2", (y.ast, x.ast)), max(y.dim, x.dim))


# --- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r")"
)


def _tokenize(source):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == m.start():
            # skip leading whitespace already handled by \s*; a failed match
            # means an illegal character
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            offset = n - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", offset)
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append((kind, text, m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, dim):
        self.tokens = tokens
        self.i = 0
        self.dim = dim

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}, found {text or 'end of input'!r}", offset)
        return self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.parse_term()
                node = ("add" if text == "+" else "sub", node, rhs)
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.parse_factor()
                node = ("mul" if text == "*" else "div", node, rhs)
            else:
                return node

    def parse_factor(self):
        kind, text, _ = self.peek()
        negate = False
        if kind == "op" and text == "-":
            self.advance()
            negate = True
        node = self.parse_atom()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            kind, text, offset = self.peek()
            if kind != "num" or not re.fullmatch(r"\d+", text):
                raise ExprSyntaxError("integer exponent expected after '^'", offset)
            self.advance()
            node = ("pow", node, int(text))
        if negate:
            node = ("neg", node)
        return node

    def parse_atom(self):
        kind, text, offset = self.advance()
        if kind == "num":
            return ("num", float(text))
        if kind == "name":
            return self.parse_name(text, offset)
        if kind == "op" and text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected {text or 'end of input'!r}", offset)

    def parse_name(self, text, offset):
        m = re.fullmatch(r"x([1-9])", text)
        if m:
            axis = int(m.group(1)) - 1
            if axis >= self.dim:
                raise DimensionError(
                    f"variable {text} exceeds declared dimension {self.dim}", offset
                )
            return ("var", axis)
        if text in _FUNCS:
            self.expect_op("(")
            args = [self.parse_expr()]
            kind, tok, _ = self.peek()
            if kind == "op" and tok == ",":
                self.advance()
                args.append(self.parse_expr())
            self.expect_op(")")
            want = 2 if text == "atan2" else 1
            if len(args) != want:
                raise ArityError(f"{text} takes {want} argument(s), got {len(args)}", offset)
            return ("call", text, tuple(args))
        raise UnknownIdentifierError(f"unknown identifier {text!r}", offset)


def parse(source, dim):
    """Parse ``source`` into an Expr over x1..x<dim>."""
    if not 1 <= dim <= 9:
        raise DimensionError(f"dimension must be in 1..9, got {dim}", 0)
    tokens = _tokenize(source)
    p = _Parser(tokens, dim)
    ast = p.parse_expr()
    kind, text, offset = p.peek()
    if kind != "eof":
        raise ExprSyntaxError(f"trailing input {text!r}", offset)
    return Expr(ast, dim)


def _check_var_indices(ast, dim):
    op = ast[0]
    if op == "var":
        if ast[1] >= dim:
            raise DimensionError(f"variable x{ast[1] + 1} exceeds dimension {dim}", 0)
    elif op in ("neg",):
        _check_var_indices(ast[1], dim)
    elif op == "pow":
        _check_var_indices(ast[1], dim)
    elif op in ("add", "sub", "mul", "div"):
        _check_var_indices(ast[1], dim)
        _check_var_indices(ast[2], dim)
    elif op == "call":
        for a in ast[2]:
            _check_var_indices(a, dim)


# --- symbolic differentiation ---------------------------------------------------

_ZERO = ("num", 0.0)
_ONE = ("num", 1.0)


def _times(a, b):
    """a*b with 0*a, a*0, 1*a and a*1 folded (a literal -0.0 is a 0 too)."""
    if a == _ZERO or b == _ZERO:
        return _ZERO
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    return ("mul", a, b)


def _plus(a, b):
    if a == _ZERO:
        return b
    if b == _ZERO:
        return a
    return ("add", a, b)


def _minus(a, b):
    return a if b == _ZERO else ("sub", a, b)


def _d(ast, axis, memo):
    """d ast / d x<axis+1> as an AST, each rule written in the order of
    operations forward-mode dual numbers use.  memo maps the id() of every
    subtree of ast already differentiated, so a subtree shared by object is
    differentiated once."""
    op = ast[0]
    if op == "num":
        return _ZERO
    if op == "var":
        return _ONE if ast[1] == axis else _ZERO
    done = memo.get(id(ast))
    if done is not None:
        return done
    if op == "neg":
        da = _d(ast[1], axis, memo)
        out = _ZERO if da == _ZERO else ("neg", da)
    elif op == "pow":
        a, k = ast[1], ast[2]
        if k == 0:
            out = _ZERO
        else:
            out = _times(_times(("num", float(k)), ("pow", a, k - 1)), _d(a, axis, memo))
    elif op in ("add", "sub"):
        da, db = _d(ast[1], axis, memo), _d(ast[2], axis, memo)
        out = _plus(da, db) if op == "add" else _minus(da, db)
    elif op == "mul":
        a, b = ast[1], ast[2]
        out = _plus(_times(a, _d(b, axis, memo)), _times(b, _d(a, axis, memo)))
    elif op == "div":
        a, b = ast[1], ast[2]
        top = _minus(_times(_d(a, axis, memo), b), _times(a, _d(b, axis, memo)))
        out = ("div", top, ("pow", b, 2))
    elif op == "call" and ast[1] == "atan2":
        y, x = ast[2]
        top = _minus(_times(x, _d(y, axis, memo)), _times(y, _d(x, axis, memo)))
        out = ("div", top, ("add", ("pow", x, 2), ("pow", y, 2)))
    elif op == "call":
        name, a = ast[1], ast[2][0]
        da = _d(a, axis, memo)
        if name == "log":
            out = ("div", da, a)
        elif name == "sqrt":
            out = ("div", da, _times(("num", 2.0), ast))
        elif name == "sin":
            out = _times(("call", "cos", (a,)), da)
        elif name == "cos":
            out = _times(("neg", ("call", "sin", (a,))), da)
        else:  # exp
            out = _times(ast, da)
    else:
        raise AssertionError(f"corrupt ast node {ast!r}")
    memo[id(ast)] = out
    return out


def diff(e, axis):
    """The exact partial derivative d e / d x<axis+1> (axis 0-based), as an
    expression.  Only exact identities are folded: 0*a, 1*a, a + 0 and
    a - 0, so constants differentiate to nothing."""
    return Expr(_d(e.ast, axis, {}), e.dim)


# --- compiled evaluation ----------------------------------------------------------

def _div(a, b, out):
    if np.any(b == 0.0):
        raise DomainError("division by zero")
    return np.divide(a, b, out)


def _log(a, out):
    if np.any(a <= 0.0):
        raise DomainError("log of a non-positive value")
    return np.log(a, out)


def _sqrt(a, out):
    if np.any(a < 0.0):
        raise DomainError("sqrt of a negative value")
    return np.sqrt(a, out)


def _sqrt_differentiable(a, out):
    # the derivative 1/(2 sqrt a) blows up at 0, so gradients need a > 0
    if np.any(a <= 0.0):
        raise DomainError("sqrt derivative needs a positive argument")
    return np.sqrt(a, out)


def _pow(a, k, out):
    # ndarray power in place takes the path np.asarray(a) ** k takes
    # (square for k = 2), for a constant base too, as points do
    if out is not a:
        np.copyto(out, a)
    out **= int(k)
    return out


def _atan2(y, x, out):
    if np.any((y == 0.0) & (x == 0.0)):
        raise DomainError("atan2(0, 0) is undefined")
    return np.arctan2(y, x, out)


def _atan2_differentiable(y, x, out):
    # the derivative divides by x^2 + y^2
    if np.any(x**2 + y**2 == 0.0):
        raise DomainError("atan2(0, 0) is undefined")
    return np.arctan2(y, x, out)


_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": _div}
_DERIVATIVE_BINARY = dict(_BINARY, div=np.divide)
_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": _log, "sqrt": _sqrt, "atan2": _atan2}
_DIFFERENTIABLE_CALLS = dict(_CALLS, sqrt=_sqrt_differentiable, atan2=_atan2_differentiable)


class Program:
    """A vector of expressions compiled into one flat list of prebound
    numpy calls.

    The outputs are the values of es and, with grad_axes = n, the
    derivatives diff(es[i], d) for every i and every d < n, in that order.
    Nodes are hash-consed on (op, operands, constant), so each distinct
    subtree of all the outputs is evaluated once per run.  A run evaluates
    into one (width, m) block that it allocates once and drops on return:
    each call writes its result, through the ufunc's out argument, into a
    row that liveness gave it at compile time.  A row is free again after
    the last call that reads it, and since every op is elementwise, an
    operand read for the last time may hand its row to the result.  Every
    node of the values keeps its domain check; with gradients, sqrt needs
    a positive argument and atan2 a nonzero x^2 + y^2, as their derivatives
    do.  A Program is immutable, keeps no buffer between runs, and belongs
    to whoever compiled it: an object that is evaluated again and again
    compiles its own once.
    """

    def __init__(self, es, grad_axes=0):
        roots = []
        self.dim = 0
        for e in es:
            roots.append(e.ast)
            self.dim = max(self.dim, e.dim)
        self.size = size = len(roots)
        self.grad_axes = grad_axes
        if grad_axes:
            memos = [{} for _ in range(grad_axes)]
            roots += [_d(a, d, memos[d]) for a in roots[:size] for d in range(grad_axes)]
        calls = _DIFFERENTIABLE_CALLS if grad_axes else _CALLS
        binary = _BINARY
        leaves = []  # leaf values: constants, else None for an input
        keys = {}  # node key -> operand: a leaf's index, or ~i for instruction i
        seen = {}  # id(ast) -> operand, for inner nodes of roots shared by object
        inputs = []  # (leaf, axis)
        code = []  # (fn, operand a, operand b or None)
        last = []  # instruction -> the last instruction that reads its result
        copysign = math.copysign

        def visit(ast):
            op = ast[0]
            if op == "num" or op == "var":
                # a leaf is keyed by its value, the sign of a zero included
                key = (ast[1], copysign(1.0, ast[1])) if op == "num" else ast
                r = keys.get(key)
                if r is None:
                    r = keys[key] = len(leaves)
                    if op == "num":
                        leaves.append(np.float64(ast[1]))  # numpy's arithmetic, as points get
                    else:
                        leaves.append(None)
                        inputs.append((r, ast[1]))
                return r
            r = seen.get(id(ast))
            if r is not None:
                return r
            fn = binary.get(op)
            if fn is not None:
                a, b = visit(ast[1]), visit(ast[2])
            elif op == "call":
                op = ast[1]
                fn, a = calls[op], visit(ast[2][0])
                b = visit(ast[2][1]) if op == "atan2" else None
            elif op == "neg":
                fn, a, b = np.negative, visit(ast[1]), None
            else:  # pow
                fn, a, b = _pow, visit(ast[1]), visit(("num", float(ast[2])))
            key = (op, a, b)
            r = keys.get(key)
            if r is None:
                i = len(code)
                r = keys[key] = ~i
                last.append(i)
                for x in (a, b):
                    if x is not None and x < 0:
                        last[~x] = i
                code.append((fn, a, b))
            seen[id(ast)] = r
            return r

        outs = list(map(visit, roots[:size]))
        # a quotient that only a derivative has divides unchecked, as dual
        # numbers did: an infinite derivative fails the final finite check
        binary = _DERIVATIVE_BINARY
        outs += map(visit, roots[size:])
        del visit  # it refers to itself: a cycle only the garbage collector would free
        writes = [()] * len(code)  # instruction -> outputs it writes
        self._direct = []  # (output, leaf) for outputs that are an input or a constant
        for i, r in enumerate(outs):
            if r < 0:
                writes[~r] += (i,)
            else:
                self._direct.append((i, r))
        # a run's values are the leaves, then the rows of its block: each
        # operand becomes the index of its value
        slot, free = [], []  # instruction -> its result's value index; free ones
        self.width = 0
        for i, (fn, a, b) in enumerate(code):
            for x in (a,) if b == a else (a, b):
                if x is not None and x < 0 and last[~x] == i:
                    free.append(slot[~x])
            if not free:
                free.append(len(leaves) + self.width)
                self.width += 1
            slot.append(free.pop())
            if last[i] == i:  # an output that nothing reads
                free.append(slot[i])
            a, b = (x if x is None or x >= 0 else slot[~x] for x in (a, b))
            code[i] = (fn, a, b, slot[i], writes[i])
        self._leaves = leaves
        self._inputs = inputs
        self._code = code

    def run(self, cols, out):
        """Evaluate at the m >= 1 points whose coordinate x<d+1> is the (m,)
        array cols[d], writing output i into out[i]."""
        vals = self._leaves.copy()
        for r, axis in self._inputs:
            vals[r] = cols[axis]
        if self._code:  # then out[0] is an (m,) output
            vals.extend(np.empty((self.width, len(out[0]))))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for fn, a, b, dst, writes in self._code:
                value = vals[dst]
                fn(vals[a], value) if b is None else fn(vals[a], vals[b], value)
                for i in writes:
                    out[i][...] = value
        for i, r in self._direct:
            out[i][...] = vals[r]


def _as_points(dim, x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise DimensionError("points must be a vector or an (m, n) array", 0)
    if x.shape[1] < dim:
        raise DimensionError(
            f"expression needs {dim} coordinates, got {x.shape[1]}", 0
        )
    return x


def _columns(X):
    return list(X.T)


def _finite_or_raise(a):
    if not np.isfinite(a).all():
        raise DomainError("evaluation overflowed to inf/nan")
    return a


def evaluate_many(es, X):
    """Evaluate a sequence of expressions, or a Program compiled from one
    without gradients, at an (m, n) array of points.

    Returns values of shape (m, len(es)): column i holds es[i]."""
    program = es if isinstance(es, Program) else Program(es)
    if program.grad_axes:
        raise DimensionError("a program with gradients is evaluated by evaluate_dual_many", 0)
    X = _as_points(program.dim, X)
    out = np.empty((X.shape[0], program.size))
    if len(X):
        program.run(_columns(X), out.T)
    return _finite_or_raise(out)


def evaluate(e, x):
    """IEEE double evaluation at a single point."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 and not (x.ndim == 0 and e.dim <= 1):
        raise DimensionError("evaluate expects a coordinate vector", 0)
    if x.ndim == 0:
        x = x[None]
    if len(x) != max(e.dim, 1):
        raise DimensionError(f"expression needs {e.dim} coordinates, got {len(x)}", 0)
    return float(evaluate_many((e,), x[None, :])[0, 0])


def evaluate_dual_many(es, X):
    """Values and exact gradients of a sequence of expressions, or of a
    Program compiled from one with gradients in every coordinate of X, at
    an (m, n) array of points.

    Returns (values (m, len(es)), grads (m, len(es), n)): grads[:, i] is
    the gradient of es[i] with respect to x1..xn."""
    if isinstance(es, Program):
        program, X = es, _as_points(es.dim, X)
    else:
        X = _as_points(max((e.dim for e in es), default=0), X)
        program = Program(es, X.shape[1])
    m, n = X.shape
    if program.grad_axes != n:
        raise DimensionError(
            f"program has gradients in {program.grad_axes} coordinates, points have {n}", 0
        )
    vals = np.empty((m, program.size))
    grads = np.empty((m, program.size, n))
    if m:
        program.run(_columns(X), [*vals.T, *grads.reshape(m, -1).T])
    return _finite_or_raise(vals), _finite_or_raise(grads)


def evaluate_dual(e, x):
    """Value and exact gradient at a single point."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x[None]
    if len(x) != max(e.dim, 1):
        raise DimensionError(f"expression needs {e.dim} coordinates, got {len(x)}", 0)
    v, g = evaluate_dual_many((e,), x[None, :])
    return Dual(float(v[0, 0]), g[0, 0])


# --- pretty printing ----------------------------------------------------------

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def _pp(ast, parent_prec):
    op = ast[0]
    if op == "num":
        # a negative literal (-0.0 included) is parenthesized, so that it
        # binds as an atom: it reparses as the negation of its magnitude
        s = repr(ast[1])
        return f"({s})" if math.copysign(1.0, ast[1]) < 0 else s
    if op == "var":
        return f"x{ast[1] + 1}"
    if op == "call":
        return f"{ast[1]}(" + ", ".join(_pp(a, 0) for a in ast[2]) + ")"
    if op == "neg":
        s = "-" + _pp(ast[1], 4)
        return f"({s})" if parent_prec > 3 else s
    if op == "pow":
        s = _pp(ast[1], 5) + f"^{ast[2]}"
        return f"({s})" if parent_prec > 4 else s
    left_prec = _PREC[op]
    right_prec = left_prec + 1  # left-associative
    a = _pp(ast[1], left_prec)
    b = _pp(ast[2], right_prec)
    sym = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[op]
    s = a + sym + b
    return f"({s})" if parent_prec > left_prec else s


def pretty(e):
    """Render an Expr to source that reparses to an expression with the same
    value at every point.  Parsed expressions come back as the identical
    AST; a negative literal comes back as the negation of its magnitude."""
    return _pp(e.ast, 0)


# --- substitution -------------------------------------------------------------

def _subst(ast, repl_asts):
    op = ast[0]
    if op == "num":
        return ast
    if op == "var":
        return repl_asts[ast[1]]
    if op == "neg":
        return ("neg", _subst(ast[1], repl_asts))
    if op == "pow":
        return ("pow", _subst(ast[1], repl_asts), ast[2])
    if op in ("add", "sub", "mul", "div"):
        return (op, _subst(ast[1], repl_asts), _subst(ast[2], repl_asts))
    if op == "call":
        return ("call", ast[1], tuple(_subst(a, repl_asts) for a in ast[2]))
    raise AssertionError(f"corrupt ast node {ast!r}")


def substitute(e, replacements):
    """Replace x1..xn in e by the given expressions (function composition).

    ``replacements`` must supply one Expr per variable of e; the result's
    dimension is the maximum dimension of the replacements.
    """
    repl = [_as_expr(r) for r in replacements]
    if len(repl) < e.dim:
        raise DimensionError(
            f"need {e.dim} replacement expressions, got {len(repl)}", 0
        )
    new_dim = max([r.dim for r in repl], default=1)
    return Expr(_subst(e.ast, [r.ast for r in repl]), max(new_dim, 1))
