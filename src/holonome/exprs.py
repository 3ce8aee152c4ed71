"""Small closed expression DSL over chart coordinates x1..x9.

Grammar (whitespace-insensitive, precedence pow > unary minus > * / > + -):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')? atom ('^' INT)?
    atom   := NUMBER | VAR | FUNC '(' expr (',' expr)? ')' | '(' expr ')'
    VAR    := 'x' [1-9]
    FUNC   in {sin, cos, exp, log, sqrt, atan2}

Expressions are immutable after parsing; evaluation is pure and safe to
call concurrently.  First derivatives are exact, propagated forward with
dual numbers.  Evaluation is vectorized: every node operates on numpy
arrays of sample points in one pass, and evaluate_many /
evaluate_dual_many take a whole vector of expressions (a coordinate map,
the entries of a matrix) and fill one (m, len(es)) value array and one
(m, len(es), n) gradient array.
"""

from __future__ import annotations

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


# --- evaluation ---------------------------------------------------------------

def _eval(ast, X):
    """Evaluate ast on points X of shape (m, n); returns shape (m,)."""
    op = ast[0]
    if op == "num":
        return np.full(X.shape[0], ast[1])
    if op == "var":
        return X[:, ast[1]].copy()
    if op == "neg":
        return -_eval(ast[1], X)
    if op == "pow":
        return _eval(ast[1], X) ** ast[2]
    if op == "add":
        return _eval(ast[1], X) + _eval(ast[2], X)
    if op == "sub":
        return _eval(ast[1], X) - _eval(ast[2], X)
    if op == "mul":
        return _eval(ast[1], X) * _eval(ast[2], X)
    if op == "div":
        num = _eval(ast[1], X)
        den = _eval(ast[2], X)
        if np.any(den == 0.0):
            raise DomainError("division by zero")
        return num / den
    if op == "call":
        name = ast[1]
        if name == "atan2":
            y = _eval(ast[2][0], X)
            x = _eval(ast[2][1], X)
            if np.any((y == 0.0) & (x == 0.0)):
                raise DomainError("atan2(0, 0) is undefined")
            return np.arctan2(y, x)
        a = _eval(ast[2][0], X)
        if name == "sin":
            return np.sin(a)
        if name == "cos":
            return np.cos(a)
        if name == "exp":
            return np.exp(a)
        if name == "log":
            if np.any(a <= 0.0):
                raise DomainError("log of a non-positive value")
            return np.log(a)
        if name == "sqrt":
            if np.any(a < 0.0):
                raise DomainError("sqrt of a negative value")
            return np.sqrt(a)
    raise AssertionError(f"corrupt ast node {ast!r}")


def _eval_dual(ast, X):
    """Evaluate ast with forward-mode duals.

    Returns (values (m,), grads (m, n)).
    """
    m, n = X.shape
    op = ast[0]
    if op == "num":
        return np.full(m, ast[1]), np.zeros((m, n))
    if op == "var":
        g = np.zeros((m, n))
        g[:, ast[1]] = 1.0
        return X[:, ast[1]].copy(), g
    if op == "neg":
        v, g = _eval_dual(ast[1], X)
        return -v, -g
    if op == "pow":
        v, g = _eval_dual(ast[1], X)
        k = ast[2]
        if k == 0:
            return np.ones(m), np.zeros((m, n))
        return v**k, (k * v ** (k - 1))[:, None] * g
    if op in ("add", "sub"):
        va, ga = _eval_dual(ast[1], X)
        vb, gb = _eval_dual(ast[2], X)
        if op == "add":
            return va + vb, ga + gb
        return va - vb, ga - gb
    if op == "mul":
        va, ga = _eval_dual(ast[1], X)
        vb, gb = _eval_dual(ast[2], X)
        return va * vb, va[:, None] * gb + vb[:, None] * ga
    if op == "div":
        va, ga = _eval_dual(ast[1], X)
        vb, gb = _eval_dual(ast[2], X)
        if np.any(vb == 0.0):
            raise DomainError("division by zero")
        return va / vb, (ga * vb[:, None] - va[:, None] * gb) / (vb**2)[:, None]
    if op == "call":
        name = ast[1]
        if name == "atan2":
            vy, gy = _eval_dual(ast[2][0], X)
            vx, gx = _eval_dual(ast[2][1], X)
            r2 = vx**2 + vy**2
            if np.any(r2 == 0.0):
                raise DomainError("atan2(0, 0) is undefined")
            return np.arctan2(vy, vx), (vx[:, None] * gy - vy[:, None] * gx) / r2[:, None]
        v, g = _eval_dual(ast[2][0], X)
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
        if name == "sqrt":
            # derivative 1/(2 sqrt v) blows up at 0, so dual mode needs v > 0
            if np.any(v <= 0.0):
                raise DomainError("sqrt derivative needs a positive argument")
            sv = np.sqrt(v)
            return sv, g / (2.0 * sv)[:, None]
    raise AssertionError(f"corrupt ast node {ast!r}")


def _as_points(es, x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise DimensionError("points must be a vector or an (m, n) array", 0)
    need = max((e.dim for e in es), default=0)
    if x.shape[1] < need:
        raise DimensionError(
            f"expression needs {need} coordinates, got {x.shape[1]}", 0
        )
    return x


def _finite_or_raise(a):
    if not np.all(np.isfinite(a)):
        raise DomainError("evaluation overflowed to inf/nan")
    return a


def evaluate_many(es, X):
    """Evaluate a sequence of expressions at an (m, n) array of points.

    Returns values of shape (m, len(es)): column i holds es[i]."""
    X = _as_points(es, X)
    out = np.empty((X.shape[0], len(es)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, e in enumerate(es):
            out[:, i] = _eval(e.ast, X)
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
    """Dual evaluation of a sequence of expressions at an (m, n) array of
    points.

    Returns (values (m, len(es)), grads (m, len(es), n)): grads[:, i] is
    the gradient of es[i] with respect to x1..xn."""
    X = _as_points(es, X)
    m, n = X.shape
    vals = np.empty((m, len(es)))
    grads = np.empty((m, len(es), n))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, e in enumerate(es):
            vals[:, i], grads[:, i] = _eval_dual(e.ast, X)
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
        return repr(ast[1])
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
    """Render an Expr to source that reparses to the identical AST."""
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
