"""Small arithmetic expression language for scalar metric ingredients.

Grammar (whitespace-insensitive):

    expr    :=  term  (('+' | '-') term)*
    term    :=  unary (('*' | '/') unary)*
    unary   :=  '-' unary | power
    power   :=  atom ('^' unary)?            # right-associative
    atom    :=  NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Identifiers are restricted to the variables t, x1, x2, the constants pi and e,
and the functions exp, sin, cos, tanh, sqrt (unary) and min, max (binary).
Evaluation is IEEE double (numpy arrays pass through); division by zero and
domain violations raise instead of propagating NaN.

A tree is compiled once (``compile_expression``) into nested closures, and
evaluated separably on a lattice slice: a subtree that reads t alone runs
once on one element when every t of the batch is equal, and a subtree that
reads x alone runs once on a fixed grid and is read back.  Both shortcuts
are bit-exact against evaluating every point.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError

VARIABLES = ("t", "x1", "x2")
CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = {
    "exp": (1, np.exp),
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "tanh": (1, np.tanh),
    "sqrt": (1, None),  # domain-checked
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # only '-'
    arg: "Expression"


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


Expression = Num | Var | Const | Unary | Bin | Call


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if stripped >= len(text):
                break
            raise ExprSyntaxError(f"unexpected character {text[stripped]!r}", stripped)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def cur(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.cur
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        return self.advance()

    def parse(self) -> Expression:
        node = self.expr()
        kind, val, off = self.cur
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {val!r}", off)
        return node

    def expr(self) -> Expression:
        node = self.term()
        while self.cur[0] == "op" and self.cur[1] in "+-":
            op = self.advance()[1]
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Expression:
        node = self.unary()
        while self.cur[0] == "op" and self.cur[1] in "*/":
            op = self.advance()[1]
            node = Bin(op, node, self.unary())
        return node

    def unary(self) -> Expression:
        if self.cur[0] == "op" and self.cur[1] == "-":
            self.advance()
            return Unary("-", self.unary())
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        if self.cur[0] == "op" and self.cur[1] == "^":
            self.advance()
            return Bin("^", base, self.unary())
        return base

    def atom(self) -> Expression:
        kind, val, off = self.cur
        if kind == "num":
            self.advance()
            return Num(float(val))
        if kind == "ident":
            self.advance()
            if self.cur[0] == "op" and self.cur[1] == "(":
                if val not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {val!r}", off)
                arity = FUNCTIONS[val][0]
                self.advance()
                args = [self.expr()]
                while self.cur[0] == "op" and self.cur[1] == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect_op(")")
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"{val} takes {arity} argument(s), got {len(args)}", off
                    )
                return Call(val, tuple(args))
            if val in VARIABLES:
                return Var(val)
            if val in CONSTANTS:
                return Const(val)
            raise ExprSyntaxError(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"expected a value, got {val!r}" if val else "unexpected end of input", off
        )


def parse_expression(text: str) -> Expression:
    """Parse source text into an expression tree."""
    return _Parser(text).parse()


def free_variables(e: Expression) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unary):
        return free_variables(e.arg)
    if isinstance(e, Bin):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, Call):
        out: set[str] = set()
        for a in e.args:
            out |= free_variables(a)
        return out
    return set()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PREC = 3


def serialize_expression(e: Expression) -> str:
    """Render a tree to text that reparses to an equal tree."""

    def render(node, parent_prec: int) -> str:
        if isinstance(node, Num):
            s = repr(node.value)
            return s
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Const):
            return node.name
        if isinstance(node, Unary):
            inner = render(node.arg, _UNARY_PREC)
            s = f"-{inner}"
            return f"({s})" if parent_prec > _UNARY_PREC else s
        if isinstance(node, Call):
            args = ", ".join(render(a, 0) for a in node.args)
            return f"{node.name}({args})"
        if isinstance(node, Bin):
            prec = _PREC[node.op]
            if node.op == "^":
                # right-associative; base binds atoms only
                left = render(node.left, prec + 1)
                right = render(node.right, _UNARY_PREC)
                s = f"{left}^{right}"
            else:
                left = render(node.left, prec)
                right = render(node.right, prec + 1)
                s = f"{left} {node.op} {right}"
            if parent_prec > prec:
                return f"({s})"
            return s
        raise TypeError(f"not an expression node: {node!r}")

    return render(e, 0)


def _loc(node: Expression) -> str:
    return serialize_expression(node)


_SPATIAL = frozenset(VARIABLES) - {"t"}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def compile_expression(e: Expression, grid: dict | None = None):
    """Compile a tree once into ``run(bindings, on_grid=False)``.

    ``run`` performs the NumPy operations of a direct tree walk, in the same
    order and with the same ``ExprEvalError`` checks; the bindings are
    scalars or numpy arrays.  Two separable shortcuts keep it bit-exact:

    - When t is a 1-D batch whose entries are all equal and every spatial
      variable the tree reads is bound to an array of t's shape, each
      maximal subtree that reads t and no spatial variable runs once on
      ``t[:1]`` and broadcasts.  The operands of a ``^`` that reads a
      spatial variable are left whole: NumPy takes a different power
      kernel for a one-element exponent.
    - ``grid`` binds the spatial variables on a fixed point set.  Each
      maximal subtree that reads a spatial variable and not t is then
      evaluated there once, on first use, kept read-only, and read back by
      every call with ``on_grid=True`` (the caller's spatial bindings equal
      ``grid``'s).
    """

    def build(node, parent_free: frozenset, narrow: bool = True):
        """The closure ``fn(b, bt, on_grid)`` of a node below a parent reading
        ``parent_free``; ``bt`` is ``b`` with t narrowed to one element on a
        one-time batch, else ``b`` itself."""
        free = frozenset(free_variables(node))
        fn = closure(node, free)
        if isinstance(node, Var):
            return fn
        if narrow and free == {"t"} and parent_free & _SPATIAL:
            return lambda b, bt, g: fn(bt, bt, g)
        if grid is not None and "t" in parent_free and free & _SPATIAL and "t" not in free:
            return grid_cached(fn)
        return fn

    def grid_cached(fn):
        box = []

        def cached(b, bt, g):
            if not g:
                return fn(b, bt, g)
            if not box:
                v = np.array(fn(grid, grid, False))
                v.setflags(write=False)
                box.append(v)
            return box[0]

        return cached

    def closure(node, free):
        if isinstance(node, (Num, Const)):
            value = node.value if isinstance(node, Num) else CONSTANTS[node.name]
            return lambda b, bt, g: value
        if isinstance(node, Var):
            name = node.name

            def var(b, bt, g):
                if name not in b:
                    raise ExprEvalError(f"missing binding for variable {name!r}")
                return b[name]

            return var
        if isinstance(node, Unary):
            f = build(node.arg, free)
            return lambda b, bt, g: -f(b, bt, g)
        if isinstance(node, Call):
            fs = [build(a, free) for a in node.args]
            if node.name == "sqrt":
                (f,) = fs

                def sqrt(b, bt, g):
                    a = f(b, bt, g)
                    if np.any(np.asarray(a) < 0):
                        raise ExprEvalError(f"sqrt of negative value in {_loc(node)!r}")
                    return np.sqrt(a)

                return sqrt
            ufunc = FUNCTIONS[node.name][1]
            if len(fs) == 1:
                (f,) = fs
                return lambda b, bt, g: ufunc(f(b, bt, g))
            return lambda b, bt, g: ufunc(*[f(b, bt, g) for f in fs])
        if isinstance(node, Bin):
            narrow = node.op != "^" or not free & _SPATIAL
            lf = build(node.left, free, narrow)
            rf = build(node.right, free, narrow)
            if node.op in _ARITH:
                op = _ARITH[node.op]
                return lambda b, bt, g: op(lf(b, bt, g), rf(b, bt, g))
            if node.op == "/":

                def div(b, bt, g):
                    lv = lf(b, bt, g)
                    rv = rf(b, bt, g)
                    if np.any(np.asarray(rv) == 0):
                        raise ExprEvalError(f"division by zero in {_loc(node)!r}")
                    return lv / rv

                return div
            if node.op == "^":

                def power(b, bt, g):
                    lva = np.asarray(lf(b, bt, g), dtype=float)
                    rva = np.asarray(rf(b, bt, g), dtype=float)
                    if np.any((lva == 0) & (rva < 0)):
                        raise ExprEvalError(f"zero raised to negative power in {_loc(node)!r}")
                    if np.any((lva < 0) & (rva != np.floor(rva))):
                        raise ExprEvalError(
                            f"negative base with non-integer exponent in {_loc(node)!r}"
                        )
                    out = np.power(lva, rva)
                    return float(out) if out.ndim == 0 else out

                return power
        raise TypeError(f"not an expression node: {node!r}")

    free = frozenset(free_variables(e))
    root = build(e, frozenset(VARIABLES))
    narrowed_root = free == {"t"} and not isinstance(e, Var)
    spatial = sorted(free & _SPATIAL)
    narrows = "t" in free

    def run(bindings: dict, on_grid: bool = False):
        bt = bindings
        t = bindings.get("t")
        if (narrows and isinstance(t, np.ndarray) and t.ndim == 1 and t.size > 1
                and all(np.shape(bindings.get(v)) == t.shape for v in spatial)
                and (t == t[0]).all()):
            bt = dict(bindings, t=t[:1])
        out = root(bindings, bt, on_grid)
        if narrowed_root and bt is not bindings:
            out = np.repeat(out, t.size)
        return out

    return run


def eval_expression(e: Expression, bindings: dict):
    """Evaluate with the given variable bindings (scalars or numpy arrays)."""
    return compile_expression(e)(bindings)
