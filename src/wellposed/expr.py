"""Arithmetic expression compiler for problem config files.

Supports exactly: + - * / ^ (right associative), unary minus, parentheses,
float literals, variables x1..xd (plain x is accepted for one-dimensional
problems), and the functions exp, abs, norm (norm is n-ary Euclidean).
Python's parser reads the tokens back as source (^ as **) and any node
outside that language is refused, as is one nested deeper than MAX_DEPTH.
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

import ast
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

MAX_DEPTH = 900  # closures nest one frame a level: 100 of Python's default 1000 stay free


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ConfigError(f"bad character in expression at offset {pos}: {text[pos:pos + 10]!r}")
        kind = m.lastgroup
        value = float(m.group(kind)) if kind == "num" else m.group(kind)
        if kind == "num" and not math.isfinite(value):
            raise ConfigError(f"number literal out of range at offset {m.start(kind)}: "
                              f"{m.group(kind)!r}")
        out.append((kind, value))
        pos = m.end()
    return out


# A compiled node is either a float64 constant or a closure over the points;
# _un and _bin apply f to nodes, folding when every operand is a constant.
# A closure other than a variable (depth 1, a view of the points) returns a
# new array that only its parent reads, so the parent writes its result over
# it, as NumPy does for the temporaries of an operator expression: an
# elementwise ufunc gives the same bits into any output, and a scan touches
# less memory.  A closure's depth is the frames evaluating it takes.
def _owned(node):
    return getattr(node, "depth", 0) > 1


def _into(f, *operands, dest):
    return f(*operands, out=operands[dest])


def _nested(closure, *operands):
    closure.depth = 1 + max(getattr(node, "depth", 0) for node in operands)
    if closure.depth > MAX_DEPTH:
        raise ConfigError(f"expression nested deeper than {MAX_DEPTH} operations")
    return closure


def _un(node, f):
    if isinstance(node, np.float64):
        with np.errstate(all="ignore"):
            return np.float64(f(node))
    if _owned(node):
        return _nested(lambda p: _into(f, node(p), dest=0), node)
    return _nested(lambda p: f(node(p)), node)


def _bin(a, b, f):
    const_a, const_b = isinstance(a, np.float64), isinstance(b, np.float64)
    if const_a and const_b:
        with np.errstate(all="ignore"):
            return np.float64(f(a, b))
    ea = (lambda p: a) if const_a else a
    eb = (lambda p: b) if const_b else b
    if _owned(a) or _owned(b):
        dest = 0 if _owned(a) else 1
        return _nested(lambda p: _into(f, ea(p), eb(p), dest=dest), a, b)
    return _nested(lambda p: f(ea(p), eb(p)), a, b)


def _column(j):
    def column(p):
        return p[:, j]

    column.depth = 1
    return column


def _parse(text):
    """Python's parse tree of the tokens of text: numbers as their repr, ^ as **."""
    source = " ".join(repr(v) if kind == "num" else "**" if v == "^" else v
                      for kind, v in _tokenize(text))
    if ", )" in source:  # Python takes a trailing comma in a call; the language does not
        raise ConfigError("trailing comma in a function call")
    try:
        return ast.parse(source, mode="eval").body
    except (SyntaxError, RecursionError, MemoryError) as exc:  # the last two: too deep
        reason = exc.msg if isinstance(exc, SyntaxError) else "nested too deeply"
        raise ConfigError(f"malformed expression: {reason}") from None


_ARITHMETIC = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
               ast.Div: np.divide, ast.Pow: np.power}


def _node(node, dim):
    """Compile one parse-tree node, refusing any outside the language: a
    generator that yields each operand, left to right, and is sent it compiled."""
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return np.float64(node.value)
    if isinstance(node, ast.Name):
        digits = node.id[1:] if re.fullmatch(r"x[1-9]\d*", node.id) else "0"
        j = 1 if node.id == "x" and dim == 1 else int(digits)
        if not 1 <= j <= dim:
            raise ConfigError(f"unknown name {node.id!r} (variables are x1..x{dim})")
        return _column(j - 1)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _un((yield node.operand), np.negative)
    if isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
        a, b = (yield node.left), (yield node.right)
        if isinstance(node.op, ast.Pow) and isinstance(b, np.float64) and b == 2.0:
            return _un(a, np.square)
        return _bin(a, b, _ARITHMETIC[type(node.op)])
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords
            and node.func.col_offset == node.col_offset):  # exp(x), not (exp)(x)
        name = node.func.id
        if name not in _FUNCTIONS:
            raise ConfigError(f"unknown function {name!r} (allowed: exp, abs, norm)")
        if len(node.args) != 1 and not (name == "norm" and node.args):
            many = "at least" if name == "norm" else "exactly"
            raise ConfigError(f"{name} takes {many} one argument")
        if name != "norm":
            return _un((yield node.args[0]), np.exp if name == "exp" else np.abs)
        total = _un((yield node.args[0]), np.square)
        for arg in node.args[1:]:
            total = _bin(total, _un((yield arg), np.square), np.add)
        return _un(total, np.sqrt)
    raise ConfigError(f"unsupported syntax in expression: {type(node).__name__}")


def _compile(tree, dim):
    """Compile a parse tree without recursion, as a sum of n terms is a tree n
    deep: a stack of _node generators, each sent its operands' compiled forms."""
    stack, value = [_node(tree, dim)], None
    while stack:
        try:
            stack.append(_node(stack[-1].send(value), dim))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


def parse_expression(text, decision_dim):
    """Compile one expression to a closure mapping (n, d) arrays to (n,)."""
    if not isinstance(text, str) or not text.strip():
        raise ConfigError("expression must be a nonempty string")
    if decision_dim < 1:
        raise ConfigError("decision_dim must be >= 1")
    node = _compile(_parse(text), decision_dim)
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
