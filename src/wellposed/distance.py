"""Oriented distance to the negative cone.

The signed quantity computed here is d(y, -C) - d(y, complement of -C):
positive outside -C, negative inside, zero on the boundary.  Outside, the
value is the norm of the dual-cone component of y (Moreau decomposition
y = P_{-C}(y) + P_{C*}(y), with P_{C*} an exact active-set nonnegative
least squares solve over the dual generators).  Inside, the distance to
the complement is the smallest facet-hyperplane distance, so the value is
the largest facet margin.  A sampled max over dual directions provides an
always-below cross-check of the same quantity.
"""

from __future__ import annotations

import itertools
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
    """Squared-free norms ||P_{C*}(y)|| for many y at once.

    The projection support has at most m generators (a basic solution), so
    all supports of size <= m are enumerated with one shared pseudo-inverse
    each; rows not certified by any support fall back to per-row NNLS.
    """
    duals = cone.dual_generators  # (f, m)
    f, m = duals.shape
    n = points.shape[0]
    out = np.full(n, np.nan)
    unresolved = np.ones(n, dtype=bool)

    # empty support: projection 0 exactly when y is polar to C*, i.e. in -C
    margins_all = points @ duals.T
    in_neg = np.all(margins_all <= cone.tol, axis=1)
    out[in_neg] = 0.0
    unresolved &= ~in_neg

    tol = max(cone.tol, 1e-10)
    for size in range(1, min(f, m) + 1):
        if not unresolved.any():
            break
        for subset in itertools.combinations(range(f), size):
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
