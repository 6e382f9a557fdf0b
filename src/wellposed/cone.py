"""Polyhedral ordering cones and their dual descriptions.

An ordering cone is kept in a doubled representation: primal generators
(vectors whose conic hull is the cone) and dual generators (unit outward
facet normals of -C, equivalently the extreme rays of the dual cone C*).
Membership tests run against the dual description, everything that needs
rays runs against the primal one.  In every dimension one facet enumeration
on the unit generators, which no rescaling changes, decides pointedness and
checks the dual description, supplied or enumerated; its subsets, and the
dual faces' supports, are refused above CONE_SUBSET_BUDGET.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from ._rows import row_min
from .errors import ConeValidationError, InputError, NotInteriorPoint

TOL_MEMBERSHIP = 1e-9

# Most generator subsets a facet enumeration, or face supports dual_faces, may
# take: on one Xeon core 98,280 subsets in R^6 took 1.8 s (90 MB peak), 11,440 in R^10 0.5 s.
# It also bounds sample_dual_sphere's rows and the simplex lattice it builds,
# both counted before any is built.
CONE_SUBSET_BUDGET = 100_000

# Margin every unit generator must clear along the normalized generator sum
# for pointedness to be certified without the rank test.  The rank test is
# not run on cones this thin: the enumeration's 1e-9 dedupe would merge the
# two facet normals of a 1e-10-wide cone.
POINTED_CERT_MARGIN = 1e-6

# Slack for dual generators: how far below zero <g, xi> may fall (g a raw or
# unit generator) and how far a unit-generator facet normal may sit from a
# kept dual.  The face test of dual_faces uses it for orthogonality.
DUAL_VALIDITY_TOL = 1e-7


def _as_matrix(vectors, ambient_dim, what):
    # a C-ordered copy: the cone freezes its arrays, never the caller's
    arr = np.atleast_2d(np.array(vectors, dtype=float, order="C"))
    if arr.ndim != 2 or arr.shape[1] != ambient_dim:
        raise InputError(f"{what}: expected vectors of length {ambient_dim}, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise InputError(f"{what}: empty list")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what}: non-finite entries")
    return arr


def _dedupe_unit_rows(rows, tol):
    kept = []
    for r in rows:
        if not any(np.linalg.norm(r - k) <= tol for k in kept):
            kept.append(r)
    return np.array(kept)


def _fresh_rows(units, taken):
    """The rows of units that are neither in taken nor equal to an earlier
    row, in order; their tuples are added to taken."""
    keep = []
    for i, key in enumerate(map(tuple, units.tolist())):
        if key not in taken:
            taken.add(key)
            keep.append(i)
    return units[keep]


def _enumerate_facet_normals(generators, tol):
    """Outward facet normals of -C (unit extreme rays of C*) by subset enumeration.

    Every facet of a solid pointed polyhedral cone is spanned by m-1 linearly
    independent generators, so scanning all (m-1)-subsets finds all facets.
    A normal is kept in an orientation only if the whole generator list is on
    its nonnegative side; keeping both orientations when both are valid is
    what lets the solidity check below catch flat cones.
    """
    m = generators.shape[1]
    if (n := math.comb(generators.shape[0], m - 1)) > CONE_SUBSET_BUDGET:
        raise InputError(
            f"facet enumeration needs {n} generator subsets; the budget is {CONE_SUBSET_BUDGET}")
    subsets = list(itertools.combinations(range(generators.shape[0]), m - 1))
    # nullspaces of the subsets, in one SVD call over their stack (each matrix
    # gets the bits of a call of its own); facet normals have a 1-dim nullspace
    stack = generators[np.array(subsets, dtype=np.intp).reshape(len(subsets), m - 1)]
    _, s, vt = np.linalg.svd(stack, full_matrices=True)
    rank = np.sum(s > np.maximum(s[:, :1], 1.0) * 1e-12, axis=1)
    candidates = []
    for normal in vt[rank == m - 1, -1]:
        normal = normal / np.linalg.norm(normal)
        prods = generators @ normal
        if np.all(prods >= -tol):
            candidates.append(normal)
        if np.all(-prods >= -tol):
            candidates.append(-normal)
    return _dedupe_unit_rows(candidates, 1e-9).reshape(-1, m)


def _dual_cone_generators(units, tol):
    """Generators of C* from unit generators: the facet normals of C inside
    its span V, enumerated in coordinates of V, and both directions of each
    axis of V's orthogonal complement (C* is C_V* + V^perp)."""
    _, sv, vt = np.linalg.svd(units)
    k = int(np.sum(sv > sv[0] * 1e-12))
    inner = _enumerate_facet_normals(units @ vt[:k].T, tol) @ vt[:k]
    return np.vstack([inner, vt[k:], -vt[k:]])


def simplex_lattice(dim, subdivisions):
    """All points of the probability simplex with coordinates k/subdivisions,
    in lexicographic order of their stars-and-bars positions."""
    pts = []
    for bars in itertools.combinations(range(subdivisions + dim - 1), dim - 1):
        prev, counts = -1, []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(subdivisions + dim - 2 - prev)
        pts.append(counts)
    return np.array(pts, dtype=float) / subdivisions


@dataclass(frozen=True)
class OrderingCone:
    """Closed convex pointed solid polyhedral cone with a chosen interior point.

    Attributes:
        ambient_dim: dimension m of the image space.
        generators: (n, m) array; conic hull is the cone.
        dual_generators: (f, m) array of unit outward facet normals of -C,
            enumerated on the raw generators when not supplied.  Either way
            each must lie in C* and, in every dimension, every facet normal
            of the unit generators must be among them, so a list that misses
            a facet (and would describe a larger cone) is refused.
        k0: unit-scale interior direction used to build the dual base.
        tol: membership tolerance TOL_MEMBERSHIP (a class constant); ties
            resolve toward non-strict membership.
    """

    ambient_dim: int
    generators: np.ndarray
    dual_generators: np.ndarray = field(default=None)
    k0: np.ndarray = field(default=None)
    tol: ClassVar[float] = TOL_MEMBERSHIP

    def __post_init__(self):
        m = int(self.ambient_dim)
        if m < 1:
            raise InputError("ambient_dim must be >= 1")
        gens = _as_matrix(self.generators, m, "generators")
        if np.any(np.linalg.norm(gens, axis=1) <= self.tol):
            raise InputError("generators must be nonzero")
        object.__setattr__(self, "generators", gens)
        units = self.unit_generators

        if self.dual_generators is not None:
            duals = _as_matrix(self.dual_generators, m, "dual_generators")
            dnorms = np.linalg.norm(duals, axis=1)
            if np.any(dnorms <= self.tol):
                raise InputError("dual_generators must be nonzero")
            duals = duals / dnorms[:, None]
        facets = _dual_cone_generators(units, self.tol)

        s = units.sum(axis=0)
        sn = np.linalg.norm(s)
        # C is pointed iff C* is solid (Boyd and Vandenberghe, 2.6.1), i.e. iff
        # generators of C* span R^m; Gordan's alternative, a functional
        # positive on every generator, proves it without them.
        certified = sn > 0 and np.min(units @ (s / sn)) > POINTED_CERT_MARGIN
        if not certified and np.linalg.matrix_rank(facets) < m:
            raise ConeValidationError("cone is not pointed (contains a line)")

        if self.dual_generators is None:
            duals = _enumerate_facet_normals(gens, self.tol)
            if duals.shape[0] == 0:
                raise ConeValidationError("facet enumeration found no valid facet normals")
        if np.any(np.vstack([gens, units]) @ duals.T < -DUAL_VALIDITY_TOL):
            raise ConeValidationError("dual generators are not valid for the generators")

        if self.k0 is None:
            if sn <= self.tol:
                raise ConeValidationError("generator sum vanished; cone cannot be solid")
            k0 = s / sn
        else:
            k0 = np.array(self.k0, dtype=float).reshape(-1)
            if k0.shape != (m,):
                raise InputError(f"k0 must have length {m}")
            if not np.all(np.isfinite(k0)):
                raise InputError("k0 must be finite")
        if np.any(duals @ k0 <= self.tol):
            raise NotInteriorPoint(
                "k0 is not strictly interior (cone may not be solid, or k0 badly chosen)"
            )

        gaps = np.linalg.norm(facets[:, None, :] - duals[None, :, :], axis=2)
        if np.any(gaps.min(axis=1) > DUAL_VALIDITY_TOL):
            raise ConeValidationError("dual generators miss a facet normal of the cone")

        for name, arr in (("generators", gens), ("dual_generators", duals), ("k0", k0)):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "ambient_dim", m)

    # -- membership -----------------------------------------------------

    def contains(self, y, strict=False):
        """Cone membership of a single vector, resolved via facet margins."""
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape != (self.ambient_dim,):
            raise InputError(f"expected vector of length {self.ambient_dim}")
        prods = self.dual_generators @ y
        if strict:
            return bool(np.all(prods > self.tol))
        return bool(np.all(prods >= -self.tol))

    def margins(self, points):
        """(n,) array of min-facet margins; >= -tol means membership."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.ambient_dim:
            raise InputError(f"expected points of length {self.ambient_dim}")
        return row_min(pts @ self.dual_generators.T)

    # -- dual objects ----------------------------------------------------

    @cached_property
    def unit_generators(self):
        """The generators scaled to unit length, read-only."""
        unit = self.generators / np.linalg.norm(self.generators, axis=1)[:, None]
        unit.setflags(write=False)
        return unit

    @cached_property
    def dual_faces(self):
        """(support, pinv, face, others) for each index tuple of at most m-1
        dual generators lying in a proper face of C*: the pseudo-inverse of
        the face's generator matrix, the face's dual generators as rows and
        the other dual generators as columns.

        The faces of C* are C* ∩ g^⊥ for g in C, and a conic combination of
        primal generators is orthogonal to a dual generator only if each
        generator it uses is, so a set of dual generators lies in a proper
        face exactly when one primal generator is orthogonal to all of them.
        Sorted by size, then lexicographically.
        """
        duals = self.dual_generators
        orthogonal = np.abs(self.unit_generators @ duals.T) <= DUAL_VALIDITY_TOL
        # at most this many supports, one pinv each: counted before any is built
        n = sum(math.comb(k, s) for k in orthogonal.sum(axis=1).tolist()
                for s in range(1, min(k, self.ambient_dim - 1) + 1))
        if n > CONE_SUBSET_BUDGET:
            raise InputError(
                f"dual_faces needs {n} face supports; the budget is {CONE_SUBSET_BUDGET}")
        supports = set()
        for row in orthogonal:
            members = np.flatnonzero(row).tolist()
            for size in range(1, min(len(members), self.ambient_dim - 1) + 1):
                supports.update(itertools.combinations(members, size))
        faces = []
        for support in sorted(supports, key=lambda t: (len(t), t)):
            face = duals[list(support)]
            others = [j for j in range(duals.shape[0]) if j not in support]
            faces.append((support, np.linalg.pinv(face.T), face, duals[others].T))
        return faces

    def dual_cone(self):
        """The dual cone, generated by this cone's facet normals.

        Self-inverse up to generator scaling: the dual's dual generators are
        this cone's generators, normalized.
        """
        return OrderingCone(
            ambient_dim=self.ambient_dim,
            generators=np.array(self.dual_generators),
            dual_generators=self.unit_generators,
        )

    def base_polytope(self):
        """Vertices of {xi in C* : <xi, k0> = 1}, the compact dual base: the
        dual generators rescaled onto the slice (k0 is strictly interior, so
        every <g, k0> is positive)."""
        return self.dual_generators / (self.dual_generators @ self.k0)[:, None]

    def sample_dual_sphere(self, n):
        """Unit vectors in C* intersected with the unit sphere; no randomness.

        Always contains every normalized dual generator (so the result has
        max(n, #dual generators) rows). The remaining budget is stratified:
        half walks each generator pair's arc on an even grid, the rest are
        the normalized combinations lambda @ G for weights lambda on the
        simplex lattice with the least step 1/k that has room beyond its f
        vertices (which would repeat the generators). The weights are taken
        at evenly spaced positions of the lattice's lexicographic order,
        which lists the face lambda_0 = 0 first, so a prefix would miss the
        rest of C*. An arc row or combination equal to a row already taken
        or to an earlier combination is dropped before the pick (for f = 2
        an odd arc grid and an even k both hold the weight (1/2, 1/2); for
        f > m arcs of different pairs can meet, and different weights can
        give the same unit vector), and k is raised until enough
        combinations clear the norm tolerance and that test. A support
        functional maximized on a proper face of C* picks up a linear penalty the
        moment a sample leaves that face, so the arcs need their own dense
        coverage; interior maxima are flat to first order and tolerate
        coarser spacing.  An n above CONE_SUBSET_BUDGET, or a simplex lattice
        of more rows, is refused with InputError before it is built.
        """
        if n < 1:
            raise InputError("n must be >= 1")
        if n > CONE_SUBSET_BUDGET:
            raise InputError(f"sampling {n} dual directions exceeds the budget of {CONE_SUBSET_BUDGET}")
        gens = self.dual_generators
        f = gens.shape[0]
        if f == 1:  # a ray: C* meets the sphere in one point
            return np.repeat(gens, n, axis=0)
        rows = [g for g in gens]
        taken = {tuple(g) for g in gens.tolist()}
        pairs = list(itertools.combinations(range(f), 2))
        if n > f:
            per = (n - len(rows)) // (2 * len(pairs))
            t = (np.arange(per) + 0.5)[:, None] / per if per else None
            for a, b in pairs:
                if not per:
                    break
                combos = t * gens[a] + (1.0 - t) * gens[b]
                norms = np.linalg.norm(combos, axis=1)
                ok = norms > self.tol
                rows.extend(_fresh_rows(combos[ok] / norms[ok, None], taken))
        want = n - len(rows)
        if want > 0:
            k = 1
            while math.comb(k + f - 1, f - 1) < want + f:
                k += 1
            while True:
                if (size := math.comb(k + f - 1, f - 1)) > CONE_SUBSET_BUDGET:
                    raise InputError(f"sampling {n} dual directions needs a simplex lattice "
                                     f"of {size} rows; the budget is {CONE_SUBSET_BUDGET}")
                lam = simplex_lattice(f, k)
                combos = lam[lam.max(axis=1) < 1.0] @ gens
                norms = np.linalg.norm(combos, axis=1)
                ok = norms > self.tol
                units = _fresh_rows(combos[ok] / norms[ok, None], set(taken))
                if units.shape[0] >= want:
                    break
                k += 1
            rows.extend(units[np.linspace(0, units.shape[0] - 1, want).round().astype(int)])
        return np.array(rows)

    def interior_direction_battery(self):
        """Strictly interior unit directions: k0 plus each generator mixed
        into the normalized generator sum (0.9/0.1), deduplicated."""
        s = self.unit_generators.sum(axis=0)
        s = s / np.linalg.norm(s)
        mixed = 0.9 * s[None, :] + 0.1 * self.unit_generators
        mixed = mixed / np.linalg.norm(mixed, axis=1)[:, None]
        return _dedupe_unit_rows(np.vstack([self.k0[None, :], mixed]), 1e-9)


def orthant(m):
    """The nonnegative orthant of R^m (self-dual; k0 defaults to the diagonal)."""
    eye = np.eye(m)
    return OrderingCone(ambient_dim=m, generators=eye, dual_generators=eye)
