"""Arithmetic expression compiler for problem config files.

Supports exactly: + - * / ^ (right associative), unary minus, parentheses,
float literals, variables x1..xd (plain x is accepted for one-dimensional
problems), and the functions exp, abs, norm (norm is n-ary Euclidean).
Expressions compile to vectorized closures over an (n, d) point array; no
eval, no attribute access, nothing dynamic.

Constants are folded at compile time: a literal is a float64 scalar, a
subexpression of constants is evaluated once, and a constant operand
broadcasts.  The basic operations, exp and abs give the same bits on a
scalar as on a full array, so folding changes no value.  A constant
exponent 2 compiles to a square, and numpy takes its sqrt and reciprocal
paths for the constant exponents 0.5 and -1, so ^2, ^0.5 and ^-1 are
correctly rounded; any other exponent goes through pow.  Number literals
that overflow to inf are refused.  Evaluation silences floating-point
errors; callers check the images for finiteness.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import ConfigError

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_FUNCTIONS = {"exp", "abs", "norm"}


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ConfigError(f"bad character in expression at offset {pos}: {text[pos:pos + 10]!r}")
        if m.lastgroup == "num":
            v = float(m.group("num"))
            if not math.isfinite(v):
                raise ConfigError(f"number literal out of range at offset {m.start('num')}: "
                                  f"{m.group('num')!r}")
            out.append(("num", v))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    out.append(("end", None))
    return out


# A compiled node is either a float64 constant or a closure over the points;
# _un and _bin apply f to nodes, folding when every operand is a constant.
# A closure other than a variable returns a new array that only its parent
# reads, so the parent writes its result over it, as NumPy does for the
# temporaries of an operator expression: an elementwise ufunc gives the
# same bits into any output, and a scan touches less memory.
def _owned(node):
    return not isinstance(node, np.float64) and not getattr(node, "is_view", False)


def _into(f, *operands, dest):
    return f(*operands, out=operands[dest])


def _un(node, f):
    if isinstance(node, np.float64):
        with np.errstate(all="ignore"):
            return np.float64(f(node))
    if _owned(node):
        return lambda p: _into(f, node(p), dest=0)
    return lambda p: f(node(p))


def _bin(a, b, f):
    const_a, const_b = isinstance(a, np.float64), isinstance(b, np.float64)
    if const_a and const_b:
        with np.errstate(all="ignore"):
            return np.float64(f(a, b))
    ea = (lambda p: a) if const_a else a
    eb = (lambda p: b) if const_b else b
    if _owned(a) or _owned(b):
        dest = 0 if _owned(a) else 1
        return lambda p: _into(f, ea(p), eb(p), dest=dest)
    return lambda p: f(ea(p), eb(p))


def _column(j):
    def column(p):
        return p[:, j]

    column.is_view = True  # a view of the points: never written over
    return column


class _Parser:
    def __init__(self, tokens, decision_dim):
        self.tokens = tokens
        self.pos = 0
        self.dim = decision_dim

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ConfigError(f"expected {op!r}, found {val!r}")

    def parse(self):
        node = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise ConfigError(f"trailing input in expression near {val!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            node = _bin(node, self.term(), np.add if op == "+" else np.subtract)
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            node = _bin(node, self.unary(), np.multiply if op == "*" else np.divide)
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return _un(self.unary(), np.negative)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            exponent = self.unary()
            if isinstance(exponent, np.float64) and exponent == 2.0:
                return _un(base, np.square)
            return _bin(base, exponent, np.power)
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return np.float64(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            if self.peek() == ("op", "("):
                return self.call(val)
            return self.variable(val)
        raise ConfigError(f"unexpected token {val!r}")

    def call(self, name):
        if name not in _FUNCTIONS:
            raise ConfigError(f"unknown function {name!r} (allowed: exp, abs, norm)")
        self.expect_op("(")
        args = [self.expr()]
        while self.peek() == ("op", ","):
            self.take()
            args.append(self.expr())
        self.expect_op(")")
        if name in ("exp", "abs") and len(args) != 1:
            raise ConfigError(f"{name} takes exactly one argument")
        if name == "exp":
            return _un(args[0], np.exp)
        if name == "abs":
            return _un(args[0], np.abs)
        total = _un(args[0], np.square)
        for a in args[1:]:
            total = _bin(total, _un(a, np.square), np.add)
        return _un(total, np.sqrt)

    def variable(self, name):
        if name == "x" and self.dim == 1:
            return _column(0)
        m = re.fullmatch(r"x([1-9]\d*)", name)
        if m is None:
            raise ConfigError(f"unknown name {name!r} (variables are x1..x{self.dim})")
        j = int(m.group(1))
        if not 1 <= j <= self.dim:
            raise ConfigError(f"variable {name!r} out of range for decision_dim {self.dim}")
        return _column(j - 1)


def parse_expression(text, decision_dim):
    """Compile one expression to a closure mapping (n, d) arrays to (n,)."""
    if not isinstance(text, str) or not text.strip():
        raise ConfigError("expression must be a nonempty string")
    if decision_dim < 1:
        raise ConfigError("decision_dim must be >= 1")
    node = _Parser(_tokenize(text), decision_dim).parse()
    if isinstance(node, np.float64):
        return lambda p: np.full(p.shape[0], node)

    def ev(points):
        with np.errstate(all="ignore"):
            return node(np.asarray(points, dtype=float))

    return ev


def compile_objectives(texts, decision_dim):
    """Compile a list of coordinate expressions to one (n,d)->(n,m) evaluator."""
    if not texts:
        raise ConfigError("objective expression list is empty")
    parts = [parse_expression(t, decision_dim) for t in texts]

    def ev(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.stack([part(pts) for part in parts], axis=1)

    return ev
