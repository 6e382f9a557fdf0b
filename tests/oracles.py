"""Independent reference computations the tests freeze expectations against.

Everything here is deliberately written from scratch (closed forms, dense
scans, plain loops) rather than imported from the package, so a test
failure localizes to either the library or the oracle but never to shared
code.  Two exceptions: DescentParser, which checks only the parse, shares
the package's lexer and node builders, so equal parses give equal
closures and bit-identical images; and scalarized_dh_by_tykhonov is
dh_via_scalarization's former route, the package's own scalarization and
Tykhonov diagnostic composed, which the pruned route must reproduce.
"""

import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np
from scipy.optimize import linprog
from scipy.spatial.distance import cdist

from wellposed.diagnostics import tykhonov_diagnostic
from wellposed.errors import ConfigError
from wellposed.expr import _bin, _column, _tokenize, _un
from wellposed.problem import scalarize_oriented


def orthant_distance(y):
    """Oriented distance of y to -R^m_+ in closed form."""
    y = np.asarray(y, dtype=float)
    pos = np.maximum(y, 0.0)
    if (y > 0).any():
        return float(np.sqrt((pos * pos).sum()))
    return float(y.max())


def rotated_orthant_distance(rot, y):
    # distance is rotation invariant; undo the rotation first
    return orthant_distance(rot.T @ np.asarray(y, dtype=float))


def arc_distance_2d(dual_normals, y, n=400001):
    """Dense max of <xi, y> over the unit arc of a two-facet dual cone."""
    n1, n2 = np.asarray(dual_normals, dtype=float)
    t1 = np.arctan2(n1[1], n1[0])
    t2 = np.arctan2(n2[1], n2[0])
    delta = (t2 - t1 + np.pi) % (2 * np.pi) - np.pi
    theta = t1 + delta * np.linspace(0.0, 1.0, n)
    xi = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return float((xi @ np.asarray(y, dtype=float)).max())


def dual_projection_kkt(duals, gens, y, q):
    """KKT residuals of q as the projection of y onto C* = cone(duals).

    C* = {xi : <xi, g> >= 0 for every primal generator g}, so q is the
    projection exactly when y - q lies in -C, q lies in C* and
    <q, y - q> = 0.  Returns max <xi, y - q> over the dual generators xi,
    -min <g/||g||, q> over the primal generators g and |<q, y - q>|: none is
    positive at the exact projection.
    """
    duals, gens = np.asarray(duals, dtype=float), np.asarray(gens, dtype=float)
    y, q = np.asarray(y, dtype=float), np.asarray(q, dtype=float)
    unit = gens / np.linalg.norm(gens, axis=1)[:, None]
    return float((duals @ (y - q)).max()), float(-(unit @ q).min()), float(abs(q @ (y - q)))


def dense_neg_cone(generators, reach=6.0, steps=121):
    """Point cloud filling -cone(generators) out to a given coefficient reach."""
    gens = np.asarray(generators, dtype=float)
    axes = [np.linspace(0.0, reach, steps)] * gens.shape[0]
    coeff = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, gens.shape[0])
    return -(coeff @ gens)


def orthant_weak_witness(values, f_bar, tol):
    """Index of a lattice point strictly below f_bar in every coordinate."""
    strict = np.all(f_bar[None, :] - values > tol, axis=1)
    idx = np.flatnonzero(strict)
    return int(idx[0]) if idx.size else None


def orthant_dom_witness(values, f_bar, hard_tol, size_tol):
    """Index of a point dominating f_bar: below in order, distinct in norm."""
    below = np.all(values <= f_bar[None, :] + hard_tol, axis=1)
    apart = np.linalg.norm(values - f_bar[None, :], axis=1) > size_tol
    idx = np.flatnonzero(below & apart)
    return int(idx[0]) if idx.size else None


def metric_series(diff_sup_per_ball):
    """Plain-loop evaluation of sum 2^-i u_i/(1+u_i)."""
    total = 0.0
    for i, u in enumerate(diff_sup_per_ball, start=1):
        total += 2.0 ** -i * u / (1.0 + u)
    return total


def game_value(matrix):
    """Exact value of the simplex-vs-simplex matrix game by one LP."""
    a = np.asarray(matrix, dtype=float)
    kz, kw = a.shape
    # min t : A w <= t 1, w in simplex
    c = np.zeros(kw + 1)
    c[-1] = 1.0
    a_ub = np.hstack([a, -np.ones((kz, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(kz),
                  A_eq=np.concatenate([np.ones(kw), [0.0]])[None, :],
                  b_eq=[1.0], bounds=[(0, None)] * kw + [(None, None)],
                  method="highs")
    assert res.success, res.message
    return float(res.x[-1])



def cone_is_pointed(generators):
    """Pointedness of cone(generators) by one LP on the unit-normalized
    generators: the cone contains a line iff a convex combination of
    generators is the negative of a nonnegative combination of them."""
    g = np.asarray(generators, dtype=float)
    u = g / np.linalg.norm(g, axis=1)[:, None]
    n, m = u.shape
    a_eq = np.vstack([np.hstack([u.T, u.T]), np.concatenate([np.ones(n), np.zeros(n)])])
    b_eq = np.concatenate([np.zeros(m), [1.0]])
    res = linprog(np.zeros(2 * n), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return not res.success


def _int_det(rows):
    """Determinant of a square integer matrix by cofactor expansion, exactly."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * _int_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def integer_facet_normals(generators):
    """Unit facet normals of a solid cone with integer generators, in exact
    integer arithmetic: the generalized cross product of every m-1 of them,
    kept in each orientation that is nonnegative on every generator."""
    g = [[int(v) for v in row] for row in generators]
    m = len(g[0])
    found = set()
    for rows in combinations(g, m - 1):
        normal = [(-1) ** j * _int_det([r[:j] + r[j + 1:] for r in rows]) for j in range(m)]
        if not any(normal):
            continue
        step = gcd(*normal)
        for sign in (step, -step):
            n = tuple(c // sign for c in normal)
            if all(sum(a * b for a, b in zip(n, r)) >= 0 for r in g):
                found.add(n)
    normals = np.array(sorted(found), dtype=float).reshape(-1, m)
    return normals / np.linalg.norm(normals, axis=1)[:, None]


def evp_violations(values, points, x_hat, x_start, epsilon, r, spacing):
    """Counts of lattice points violating each Ekeland conclusion.

    (1) x_hat minimizes v(x) + eps*||x - x_hat|| over the whole lattice,
    (2) ||x_hat - x_start|| < r + spacing,
    (3) v(x_hat) <= v(x_start) - eps*||x_hat - x_start||, all exact.
    """
    values = np.asarray(values, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x_hat = np.asarray(x_hat, dtype=float).reshape(-1)
    x_start = np.asarray(x_start, dtype=float).reshape(-1)
    k_hat = int(np.argmin(np.linalg.norm(points - x_hat[None, :], axis=1)))
    k0 = int(np.argmin(np.linalg.norm(points - x_start[None, :], axis=1)))
    shifted = values + epsilon * np.linalg.norm(points - x_hat[None, :], axis=1)
    n_min = int((shifted < shifted[k_hat] - 1e-12).sum())
    n_rad = 0 if np.linalg.norm(x_hat - x_start) < r + spacing + 1e-12 else 1
    drop = values[k0] - epsilon * np.linalg.norm(x_hat - x_start)
    n_desc = 0 if values[k_hat] <= drop + 1e-12 else 1
    return n_min, n_rad, n_desc


def correctly_rounded_power(x, k):
    """x**k for an integer k, rounded once: Fraction is exact and its
    conversion to float rounds to nearest."""
    return float(Fraction(float(x)) ** int(k))


def span_coords(points):
    """The coordinates diameter measures in above its direct-route size:
    about the mean, in the SVD basis of the affine span (the same steps as
    problem.diameter)."""
    centered = points - points.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > max(s[0], 1.0) * 1e-12))
    return centered @ vt[:rank].T


def full_svd_basis(points):
    """The centred rows of an (n, d) array and the singular values and right
    singular vectors of their thin SVD, its U factor formed: the basis
    problem.diameter took above its direct-route size before it factored R."""
    centered = points - points.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    return centered, s, vt


def unravel_lattice_points(box, resolution, flat_indices):
    """Lattice points of flat indices as Box.lattice_points_at gathered them
    before it divided by the resolution: np.unravel_index of the indices, one
    gather per linspace axis, stacked."""
    axes = [np.linspace(box.lower[j], box.upper[j], resolution) for j in range(box.dim)]
    multi = np.unravel_index(np.asarray(flat_indices, dtype=np.int64), (resolution,) * box.dim)
    return np.stack([axes[j][multi[j]] for j in range(box.dim)], axis=1)


def rank_one_extent(points):
    """problem.diameter's former rank-1 route above its direct-route size:
    the extent (max - min, which is pdist's maximum in one coordinate) of
    the projections of every row onto the first direction of the SVD basis."""
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    line = centered @ vt[:1].T
    return float(line.max() - line.min())


def brute_max_distance(points):
    """pdist(points).max() in blocks: cdist and pdist share one distance kernel."""
    return max(float(cdist(points[s:s + 512], points).max()) for s in range(0, len(points), 512))


def weakly_efficient_by_distance_image(distances, tol):
    """Weak efficiency read off the whole oriented-distance image
    D(f(x) - f(x_bar)) of a lattice: x_bar itself attains 0, and it is weakly
    efficient iff the minimum is >= -tol."""
    return bool(min(0.0, float(np.min(distances))) >= -tol)


def dominated_on_lattice(images, f_bar, dual_generators, hard_tol, tol):
    """Whether some image dominates f_bar under the cone whose unit facet
    normals of -C are dual_generators: every margin of f_bar - image is
    >= -hard_tol and the images lie more than tol apart, or every margin
    exceeds tol (the general-cone orthant_dom_witness and
    orthant_weak_witness)."""
    images, f_bar = np.asarray(images, dtype=float), np.asarray(f_bar, dtype=float)
    margins = ((f_bar[None, :] - images) @ np.asarray(dual_generators, dtype=float).T).min(axis=1)
    sizes = np.linalg.norm(images - f_bar[None, :], axis=1)
    return bool(np.any((margins >= -hard_tol) & (sizes > tol)) or np.any(margins > tol))


def stored_level_members(prods, bounds):
    """Member row indices of each bound row, every level tested on every
    row of the whole stored product array: np.all(prods <= bound, axis=1),
    as dh_diagnostic's store walked levels before it was screened."""
    return [np.flatnonzero(np.all(prods <= bound, axis=1)) for bound in bounds]


def scalarized_dh_by_tykhonov(problem, x_bar, schedule, resolution):
    """dh_via_scalarization's former route: the Tykhonov diagnostic of the
    oriented-distance scalarization at x_bar, every lattice row projected,
    relabelled as a dh report."""
    x_bar = np.asarray(x_bar, dtype=float).reshape(-1)
    base = tykhonov_diagnostic(scalarize_oriented(problem, x_bar), level_schedule=schedule,
                               grid_resolution=resolution)
    return replace(base, kind="dh-scalarized", label=problem.label, point=x_bar,
                   details={**base.details, "route": "oriented-distance-scalarization"})


def exact_level_members(images, levels, dual_generators, tol, band=1e-12):
    """Level-set membership f(x) <=_C y in exact Fraction arithmetic on the
    float images, levels and dual generators: the image of row i lies in the
    level y when min over g of <g, y> - <g, f(x_i)> >= -tol exactly.

    Returns (members, undecided), (L, n) bool arrays.  A row is undecided at
    a level when that exact margin lies within band * (|y|_1 + |f(x_i)|_1 +
    tol) of -tol, where rounding the products may decide it either way.
    """
    images = np.asarray(images, dtype=float)
    levels = np.atleast_2d(np.asarray(levels, dtype=float))
    gens = [[Fraction(v) for v in g] for g in np.asarray(dual_generators, dtype=float)]

    def products(rows):
        return [[sum(a * Fraction(v) for a, v in zip(g, row)) for g in gens] for row in rows]

    prods, bounds, floor = products(images), products(levels), -Fraction(tol)
    # every value is a dyadic rational, so over the largest denominator each
    # comparison is one between integers
    den = max(q.denominator for row in prods + bounds for q in row + [floor])

    def numerators(row):
        return [q.numerator * (den // q.denominator) for q in row]

    prods, bounds = [numerators(row) for row in prods], [numerators(row) for row in bounds]
    floor = floor.numerator * (den // floor.denominator)
    members = np.zeros((len(levels), len(images)), dtype=bool)
    gaps = np.zeros(members.shape)
    for k, bound in enumerate(bounds):
        for i, prod in enumerate(prods):
            margin = min(b - q for b, q in zip(bound, prod))
            members[k, i] = margin >= floor
            gaps[k, i] = abs(margin - floor) / den  # int / int rounds once
    widths = band * (np.abs(levels).sum(axis=1)[:, None] + np.abs(images).sum(axis=1) + tol)
    return members, gaps <= widths


def ekeland_on_the_whole_lattice(sp, x_start, epsilon, r, resolution, values=None,
                                 tol=1e-9):
    """The discrete Ekeland descent with the lattice held in memory: the
    (N, d) point array, built without a size cap, and the full weights
    values + eps*||x - x_cur|| recomputed at every step and once more at
    the fixed point.  Ties go to the first flat index.  Returns the fields
    of an EkelandResult as a dict; the hypothesis on the start is the
    caller's to meet."""
    box = sp.domain
    total = resolution ** box.dim
    points = box.lattice_points_at(resolution, np.arange(total))
    if values is None:
        with np.errstate(over="ignore", invalid="ignore"):
            values = sp.evaluate(points)
    x0, cur = box.nearest_lattice_point(resolution, x_start)
    flat0, iterations = cur, 0
    while True:
        nxt = int(np.argmin(values + epsilon * np.linalg.norm(points - points[cur], axis=1)))
        if nxt == cur:
            break
        cur, iterations = nxt, iterations + 1
    x_hat = points[cur]
    dist_start = float(np.linalg.norm(x_hat - x0))
    final = values + epsilon * np.linalg.norm(points - x_hat, axis=1) - values[cur]
    final[cur] = np.inf
    min_margin = float(final.min()) if total > 1 else np.inf
    slack = float(values[flat0] - epsilon * dist_start - values[cur])
    return dict(
        x_hat=x_hat, x_start=x0, value=float(values[cur]), epsilon=float(epsilon),
        r=float(r), iterations=iterations, distance_to_start=dist_start,
        within_radius=bool(dist_start < r + box.lattice_spacing(resolution)),
        descent_holds=bool(slack >= -tol), descent_slack=slack, min_margin=min_margin,
        unique_minimizer=bool(min_margin > tol), grid_resolution=resolution)


class DescentParser:
    """The recursive-descent parser the expression compiler used before it
    read Python's parse tree: one method per precedence level (expr: + -,
    term: * /, unary: -, power: ^ right associative, atom), each building
    its node with the package's builders in the order it reads the
    operands, so its closures are the compiler's and their images can be
    compared bit for bit."""

    def __init__(self, tokens, decision_dim):
        self.tokens = tokens + [("end", None)]
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
        if name not in ("exp", "abs", "norm"):
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


def descent_expression(text, decision_dim):
    """parse_expression with DescentParser in place of Python's parse tree."""
    node = DescentParser(_tokenize(text), decision_dim).parse()
    if isinstance(node, np.float64):
        return lambda p: np.full(p.shape[0], node)

    def ev(points):
        with np.errstate(all="ignore"):
            return node(np.asarray(points, dtype=float))

    return ev
