"""Oriented distance to the negative cone.

The signed quantity computed here is d(y, -C) - d(y, complement of -C):
positive outside -C, negative inside, zero on the boundary.  Outside, the
value is ||P_{C*}(y)|| (Moreau decomposition y = P_{-C}(y) + P_{C*}(y)),
computed by one exact route at a tolerance relative to each row
(_dual_projections); a row the route cannot certify raises
NumericalFailure.  Inside, the distance to the complement is the smallest
facet-hyperplane distance, so the value is the largest facet margin.
Outside too the largest facet margin bounds the value from below:
y - P_{C*}(y) = P_{-C}(y) lies in -C, so <xi, y> <= <xi, P_{C*}(y)> <=
||P_{C*}(y)|| for every unit dual generator xi, up to a certificate
tolerance (_beyond).  One routine, _oriented_distance_upto, gives the
values up to a level and projects only the rows whose margin can reach
it.  The batch is its level = +inf case; the strict-efficiency scan reads
it up to a small positive level, and the weak-efficiency scan up to a
negative one, -tol, which no row outside -C can reach unless ||y||
exceeds about 5e8 * tol, so that scan projects no row of a moderate
image.  The scalarized DH diagnostic prunes by _beyond at its top level
and takes the other rows' values from the batch.  A single point runs
the same products and projection on its one row, so one row alone, any
subset of a batch and the whole batch give the same bits.  A sampled max
over dual directions provides an always-below cross-check of the same
quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rows import row_all_le, row_max, row_min, row_norm
from .cone import OrderingCone
from .errors import InputError, NumericalFailure


@dataclass(frozen=True)
class OrientedDistanceResult:
    """Value plus certificates for one evaluation.

    nearest_point is the projection onto -C when the value is positive and
    y itself otherwise; active_facet is the index of the facet of -C
    realizing the distance to the complement when y lies inside.
    """

    value: float
    nearest_point: np.ndarray
    active_facet: int | None


def _one_point(cone: OrderingCone, y):
    """(y flattened, P_{C*}(y) as a (1, m) row or None for y in -C, the (1, f)
    facet products of y) for one finite point: the bits of y's batch row."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape != (cone.ambient_dim,) or not np.isfinite(y).all():
        raise InputError(f"expected a finite vector of length {cone.ambient_dim}")
    prods = _many_row_product(y[None, :], cone.dual_generators.T)
    if not row_max(prods)[0] > cone.tol:
        return y, None, prods  # y in -C, the polar cone of C*
    proj = next(proj for rows, proj in _dual_projections(cone, y[None, :]) if rows.size)
    return y, proj, prods


def project_dual_cone(cone: OrderingCone, y):
    """Exact projection of y onto the dual cone C*."""
    _, proj, _ = _one_point(cone, y)
    return np.zeros(cone.ambient_dim) if proj is None else proj[0]


def project_neg_cone(cone: OrderingCone, y):
    """Euclidean projection of y onto -C via the Moreau decomposition."""
    y = np.asarray(y, dtype=float).reshape(-1)
    return y - project_dual_cone(cone, y)


def oriented_distance(cone: OrderingCone, y) -> OrientedDistanceResult:
    """Oriented distance of a single point to -C with certificates."""
    y, proj, prods = _one_point(cone, y)
    if proj is not None:
        return OrientedDistanceResult(float(row_norm(proj)[0]), y - proj[0], None)
    # inside (or on the boundary of) -C: distance to the complement is the
    # nearest facet hyperplane; ties resolve to the smallest facet index
    return OrientedDistanceResult(float(row_max(prods)[0]), y.copy(), int(np.argmax(prods[0])))


def _many_row_product(a, b):
    """a @ b by the many-row BLAS kernel even for one row: numpy's one-row
    kernel rounds differently, and no projection should depend on its batch."""
    return (a[[0, 0]] @ b)[:1] if len(a) == 1 else a @ b


def _dual_projections(cone: OrderingCone, points):
    """Yield (row indices, P_{C*} of those rows) for (n, m) points outside -C.

    Each row is certified once, at the tolerance cone.tol * max(1, ||y||).
    Rows in C* (<g/||g||, y> >= -tol for every primal generator g) project
    to themselves.  Any other projection lies on the boundary of C*: a
    basic nonnegative combination of at most m-1 dual
    generators of one proper face.  Each such support (cone.dual_faces)
    is tried in turn with its pseudo-inverse and a KKT test.  A row no
    support certifies raises NumericalFailure.
    """
    low = row_min(_many_row_product(points, cone.unit_generators.T))
    in_dual = low >= -cone.tol
    # only the rows outside C* at the base tolerance need their norms
    rest = np.flatnonzero(~in_dual)
    tol = cone.tol * np.maximum(1.0, row_norm(points[rest]))
    in_dual[rest] = low[rest] >= -tol
    yield np.flatnonzero(in_dual), points[in_dual]
    rest, tol = rest[~in_dual[rest]], tol[~in_dual[rest]]

    for _, pinv, face, others in cone.dual_faces:
        if not rest.size:
            return
        rows = points[rest]
        lam = _many_row_product(rows, pinv.T)  # (k, size)
        ok = row_all_le(-lam, tol[:, None])  # lam >= -tol: negation is exact
        if not ok.any():
            continue
        proj = _many_row_product(lam, face)  # (k, m)
        resid = rows - proj
        ok &= row_all_le(_many_row_product(resid, others), tol[:, None])
        # KKT needs <p, y - p> = 0; the normal equations give it, but
        # rank-deficient subsets can slip through, so re-check cheaply
        ok &= np.abs(np.einsum("ij,ij->i", proj, resid)) <= 1e-7 * (1.0 + np.einsum("ij,ij->i", proj, proj))
        yield rest[ok], proj[ok]
        rest, tol = rest[~ok], tol[~ok]
    if rest.size:
        raise NumericalFailure(f"no certified dual-cone projection for {rest.size} point(s)")


def oriented_distance_batch(cone: OrderingCone, points):
    """(n,) oriented-distance values for an (n, m) array of points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != cone.ambient_dim:
        raise InputError(f"expected points of length {cone.ambient_dim}")
    return _oriented_distance_upto(cone, pts, np.inf)


def _facet_top(cone: OrderingCone, points):
    """(n,) largest facet product <g, y> over the dual generators g of each
    row y of an (n, m) float array, by the many-row kernel."""
    return row_max(_many_row_product(points, cone.dual_generators.T))


def _beyond(cone: OrderingCone, points, top, level):
    """(n,) bool: the rows of points, with largest facet products top,
    whose oriented distance is certainly above level.

    The value of a row y is at least its largest facet margin less the
    certificate tolerance tol = cone.tol * max(1, ||y||) of
    _dual_projections: inside -C the value is that margin, a row in C*
    gets ||y||, which bounds every <xi, y> for unit xi, and a certified
    projection p has <xi, y - p> <= tol for the dual generators outside
    its support and a residual orthogonal to those inside it, so <xi, y>
    <= ||p|| + tol.  A row whose margin exceeds level + 2 * tol therefore
    has a value above level; the second tol absorbs rounding.  A NaN row
    is never beyond.
    """
    tol = cone.tol * np.maximum(1.0, row_norm(points))
    return top > level + 2.0 * tol


def _oriented_distance_upto(cone: OrderingCone, points, level, top=None):
    """(n,) oriented-distance values of an (n, m) float array: the largest
    facet margin inside -C and ||P_{C*}(y)|| outside, on every row whose
    value can be at most level, and +inf, unprojected, on the rows
    _beyond it.  top is _facet_top(cone, points) when the caller has
    formed it, and is not written to.
    """
    values = _facet_top(cone, points) if top is None else top.copy()
    outside = values > cone.tol
    if level < np.inf:
        far = _beyond(cone, points, values, level)  # a NaN row keeps its NaN value
        outside &= ~far
        values[far] = np.inf
    norms = values[outside]
    for rows, proj in _dual_projections(cone, points[outside]):
        norms[rows] = row_norm(proj)
    values[outside] = norms
    return values


def oriented_distance_sampled(cone: OrderingCone, y, directions):
    """Max of <xi, y> over supplied unit dual directions; a lower bound of
    the exact value that is tight as the sample set fills C* near the
    maximizer."""
    y = np.asarray(y, dtype=float).reshape(-1)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.shape[0] == 0:
        raise InputError("directions must be nonempty")
    if dirs.shape[1] != y.shape[0]:
        raise InputError("direction/vector dimension mismatch")
    return float((dirs @ y).max())
