"""Oriented distance to the negative cone.

The signed quantity computed here is d(y, -C) - d(y, complement of -C):
positive outside -C, negative inside, zero on the boundary.  Outside, the
value is the norm of the dual-cone component of y (Moreau decomposition
y = P_{-C}(y) + P_{C*}(y)).  For a single point P_{C*} is an exact
active-set nonnegative least squares solve over the dual generators.  For a
batch it is exact in three stages: y in C* projects to itself, tested
against the primal generators; every other row is certified by a shared
pseudo-inverse over the supports of at most m-1 dual generators that lie in
a proper face of C*; rows no support certifies fall back to the NNLS solve.
Inside, the distance to the complement is the smallest facet-hyperplane
distance, so the value is the largest facet margin.  A sampled max over
dual directions provides an always-below cross-check of the same quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def project_dual_cone(cone: OrderingCone, y):
    """Exact projection of y onto the dual cone C* (nonnegative least squares)."""
    from scipy.optimize import nnls

    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape != (cone.ambient_dim,):
        raise InputError(f"expected vector of length {cone.ambient_dim}")
    try:
        lam, _ = nnls(cone.dual_generators.T, y)
    except RuntimeError as exc:  # iteration cap inside Lawson-Hanson
        raise NumericalFailure(f"dual-cone projection did not converge: {exc}") from exc
    return cone.dual_generators.T @ lam


def project_neg_cone(cone: OrderingCone, y):
    """Euclidean projection of y onto -C via the Moreau decomposition."""
    y = np.asarray(y, dtype=float).reshape(-1)
    return y - project_dual_cone(cone, y)


def oriented_distance(cone: OrderingCone, y) -> OrientedDistanceResult:
    """Oriented distance of a single point to -C with certificates."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape != (cone.ambient_dim,):
        raise InputError(f"expected vector of length {cone.ambient_dim}")
    prods = cone.dual_generators @ y
    top = prods.max()
    if top > cone.tol:
        q = project_dual_cone(cone, y)
        nearest = y - q
        return OrientedDistanceResult(float(np.linalg.norm(q)), nearest, None)
    # inside (or on the boundary of) -C: distance to the complement is the
    # nearest facet hyperplane; ties resolve to the smallest facet index
    facet = int(np.argmax(prods))
    return OrientedDistanceResult(float(top), y.copy(), facet)


def _dual_projection_norms(cone: OrderingCone, points):
    """Norms ||P_{C*}(y)|| for many y at once, in three exact stages.

    1. y in -C (every facet margin <= tol): the projection is 0.
    2. y in C* (<g/||g||, y> >= -tol for every primal generator g, since
       C* = {xi : <xi, g> >= 0 for all g}): the projection is y.
    3. Otherwise P_{C*}(y) lies on the boundary of C*, so it is a basic
       nonnegative combination of at most m-1 dual generators of one proper
       face.  Each such support (cone.dual_face_supports) is tried with one
       shared pseudo-inverse and a KKT certificate.  A support outside every
       proper face could only certify rows of C*, which stage 2 took.
    Rows no support certifies fall back to per-row NNLS.
    """
    duals = cone.dual_generators  # (f, m)
    f = duals.shape[0]
    out = np.full(points.shape[0], np.nan)
    tol = max(cone.tol, 1e-10)

    in_neg = np.all(points @ duals.T <= cone.tol, axis=1)
    out[in_neg] = 0.0
    unit = cone.generators / np.linalg.norm(cone.generators, axis=1)[:, None]
    in_dual = ~in_neg & np.all(points @ unit.T >= -tol, axis=1)
    out[in_dual] = np.linalg.norm(points[in_dual], axis=1)
    unresolved = ~(in_neg | in_dual)

    for subset in cone.dual_face_supports:
        if not unresolved.any():
            break
        d_s = duals[list(subset)].T  # (m, size)
        pinv = np.linalg.pinv(d_s)
        idx = np.flatnonzero(unresolved)
        lam = points[idx] @ pinv.T  # (k, size)
        proj = lam @ d_s.T  # (k, m)
        resid = points[idx] - proj
        ok = np.all(lam >= -tol, axis=1)
        others = [j for j in range(f) if j not in subset]
        if others:
            ok &= np.all(resid @ duals[others].T <= tol, axis=1)
        # KKT needs <p, y - p> = 0; the normal equations give it, but
        # rank-deficient subsets can slip through, so re-check cheaply
        ok &= np.abs(np.einsum("ij,ij->i", proj, resid)) <= 1e-7 * (1.0 + np.einsum("ij,ij->i", proj, proj))
        hit = idx[ok]
        out[hit] = np.linalg.norm(proj[ok], axis=1)
        unresolved[hit] = False

    for i in np.flatnonzero(unresolved):
        out[i] = np.linalg.norm(project_dual_cone(cone, points[i]))
    return out


def oriented_distance_batch(cone: OrderingCone, points):
    """(n,) oriented-distance values for an (n, m) array of points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != cone.ambient_dim:
        raise InputError(f"expected points of length {cone.ambient_dim}")
    margins = pts @ cone.dual_generators.T
    top = margins.max(axis=1)
    values = np.where(top > cone.tol, np.nan, top)
    outside = top > cone.tol
    if outside.any():
        values[outside] = _dual_projection_norms(cone, pts[outside])
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
