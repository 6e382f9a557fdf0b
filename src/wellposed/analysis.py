"""Structural screens: cone-convexity, dual quasiconvexity, boundedness,
and the bilinear minimax gap.

Every verdict here is a tri-state backed by sampling evidence, never a
proof: "evidence_holds" means no violation was found at the stated sample
count, "counterexample_found" carries a re-checkable witness, and
boundedness adds "inconclusive" for scans that neither stabilize nor
clearly diverge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._rows import row_max, row_min
from .cone import simplex_lattice
from .diagnostics import INCONCLUSIVE
from .errors import InputError, NumericalFailure
from .problem import Box, VectorProblem, dual_vector, finite_values

EVIDENCE = "evidence_holds"
COUNTEREXAMPLE = "counterexample_found"

# sampled screens: random triples per screen, dual directions for
# quasiconvexity, and the violation threshold relative to the image scale
SCREEN_SAMPLES = 512
SCREEN_DIRECTIONS = 8
SCREEN_TOL = 1e-7

# bounded-below scans: expansion factors of the box, lattice resolution on
# each copy, and the last-doubling drop that reads as stable or divergent
BOX_SCHEDULE = (1.0, 2.0, 4.0, 8.0)
BOUND_RESOLUTION = 65
STABILIZE_TOL = 1e-6
DIVERGE_SLOPE = 1.0

# seeded random base points tried after the deterministic candidates
BOUNDING_RANDOM = 16


@dataclass(frozen=True)
class StructuralVerdict:
    """Outcome of one structural screen."""

    prop: str
    verdict: str
    witness: dict | None
    samples_used: int
    detail: dict

    @property
    def holds(self):
        return self.verdict == EVIDENCE


def _sample_pairs(problem: VectorProblem, seed):
    """SCREEN_SAMPLES seeded triples (x, z, t) in the box and f at x, at z
    and at their combination t*x + (1-t)*z, refused if not finite."""
    box, rng = problem.domain, np.random.default_rng(seed)
    x = box.lower + (box.upper - box.lower) * rng.random((SCREEN_SAMPLES, box.dim))
    z = box.lower + (box.upper - box.lower) * rng.random((SCREEN_SAMPLES, box.dim))
    t = rng.random(SCREEN_SAMPLES)
    fx, fz, fmid = (finite_values(problem.evaluate(pts), "the screens' sample points")
                    for pts in (x, z, x + (1.0 - t)[:, None] * (z - x)))
    return x, z, t, fx, fz, fmid


def is_C_convex(problem: VectorProblem, seed=0) -> StructuralVerdict:
    """Cone-convexity screen with two independent routes that must agree.

    Route A tests membership of the convex-combination gap in the cone on
    random triples; route B tests per-dual-generator second differences
    along uniform segment grids.  Either route's violation wins.
    """
    cone = problem.cone
    x, z, t, fx, fz, fmid = _sample_pairs(problem, seed)
    gap = t[:, None] * fx + (1.0 - t)[:, None] * fz - fmid
    scale = 1.0 + np.abs(np.concatenate([fx, fz, fmid])).max()
    margins = cone.margins(gap)
    worst_a = int(np.argmin(margins))
    viol_a = margins[worst_a] < -SCREEN_TOL * scale

    # route B: discrete second differences of <g, f> along segments
    grid = np.linspace(0.0, 1.0, 9)
    seg = x[:, None, :] + grid[None, :, None] * (z - x)[:, None, :]
    vals = problem.evaluate(seg.reshape(-1, problem.decision_dim))
    vals = vals.reshape(SCREEN_SAMPLES, grid.size, problem.objective_dim)
    d2 = vals[:, :-2, :] - 2.0 * vals[:, 1:-1, :] + vals[:, 2:, :]
    d2g = d2 @ cone.dual_generators.T  # (n, grid-2, f)
    flat = int(np.argmin(d2g))
    bi, bs, bg = np.unravel_index(flat, d2g.shape)
    viol_b = d2g[bi, bs, bg] < -SCREEN_TOL * scale

    witness = None
    if viol_a:
        witness = {
            "route": "combination-gap",
            "x": x[worst_a],
            "z": z[worst_a],
            "t": float(t[worst_a]),
            "margin": float(margins[worst_a]),
        }
    elif viol_b:
        witness = {
            "route": "second-difference",
            "x": x[bi],
            "z": z[bi],
            "segment_offset": float(grid[bs + 1]),
            "dual_index": int(bg),
            "margin": float(d2g[bi, bs, bg]),
        }
    detail = {
        "route_combination": COUNTEREXAMPLE if viol_a else EVIDENCE,
        "route_second_difference": COUNTEREXAMPLE if viol_b else EVIDENCE,
        "worst_combination_margin": float(margins[worst_a]),
        "worst_second_difference": float(d2g[bi, bs, bg]),
    }
    verdict = COUNTEREXAMPLE if (viol_a or viol_b) else EVIDENCE
    return StructuralVerdict("cone-convexity", verdict, witness, SCREEN_SAMPLES, detail)


def is_star_quasiconvex(problem: VectorProblem, seed=0) -> StructuralVerdict:
    """Quasiconvexity of every sampled dual scalarization <xi, f>."""
    dirs = problem.cone.sample_dual_sphere(SCREEN_DIRECTIONS)
    x, z, t, fx, fz, fmid = _sample_pairs(problem, seed)
    witness = None
    worst = -np.inf
    for xi in dirs:
        hx, hz, hm = fx @ xi, fz @ xi, fmid @ xi
        scale = 1.0 + max(np.abs(hx).max(), np.abs(hz).max(), np.abs(hm).max())
        excess = hm - np.maximum(hx, hz)
        k = int(np.argmax(excess))
        if excess[k] > worst:
            worst = excess[k]
        if excess[k] > SCREEN_TOL * scale and witness is None:
            witness = {
                "xi": xi,
                "x": x[k],
                "z": z[k],
                "t": float(t[k]),
                "excess": float(excess[k]),
            }
    verdict = COUNTEREXAMPLE if witness is not None else EVIDENCE
    detail = {"directions": dirs, "worst_excess": float(worst)}
    return StructuralVerdict("star-quasiconvexity", verdict, witness,
                             SCREEN_SAMPLES * dirs.shape[0], detail)


def is_C_bounded_below(problem: VectorProblem, xi) -> StructuralVerdict:
    """Bounded-below screen for <xi, f> on expanding copies of the box.

    Evidence when the expanding-box minima stabilize, counterexample when
    the last doubling still drops the minimum by more than the slope
    threshold (or hits -inf), inconclusive otherwise.  The first box is the
    domain, where a non-finite value raises InputError; on the larger boxes,
    outside the domain, NaN reads as +inf.
    """
    xi = dual_vector(problem, xi)
    minima, argmins = [], []
    for factor in BOX_SCHEDULE:
        big = problem.domain.scaled(factor)
        vals = big.map_lattice(BOUND_RESOLUTION, lambda pts: problem.evaluate(pts) @ xi)
        if factor == 1.0:  # the domain itself
            finite_values(vals)
        vals = np.where(np.isnan(vals), np.inf, vals)
        k = int(np.argmin(vals))
        minima.append(float(vals[k]))
        # no argmin when every value is +inf or NaN
        attained = vals[k] < np.inf
        argmins.append(big.lattice_points_at(BOUND_RESOLUTION, [k])[0] if attained else None)
    drop = minima[-1] - minima[-2]
    detail = {"minima": minima, "box_schedule": BOX_SCHEDULE, "xi": xi}
    if not np.isfinite(minima[-1]) or drop < -DIVERGE_SLOPE:
        witness = {"minima": minima, "argmins": argmins, "final_drop": float(drop)}
        return StructuralVerdict("bounded-below", COUNTEREXAMPLE, witness,
                                 len(BOX_SCHEDULE), detail)
    if abs(drop) <= STABILIZE_TOL:
        return StructuralVerdict("bounded-below", EVIDENCE, None, len(BOX_SCHEDULE), detail)
    return StructuralVerdict("bounded-below", INCONCLUSIVE, None, len(BOX_SCHEDULE), detail)


@dataclass(frozen=True)
class BoundingSearch:
    """Result of the bounding-functional scan; xi is None when nothing held."""

    xi: np.ndarray | None
    scanned: tuple


def find_bounding_functional(problem: VectorProblem, seed=0) -> BoundingSearch:
    """First dual-base candidate whose scalarization is bounded below.

    Scans the base polytope vertices, then deterministic mixtures (centroid
    and pairwise midpoints), then seeded random base points.
    """
    verts = problem.cone.base_polytope()
    candidates = [v for v in verts]
    if verts.shape[0] > 1:
        candidates.append(verts.mean(axis=0))
        for i, j in itertools.combinations(range(verts.shape[0]), 2):
            candidates.append(0.5 * (verts[i] + verts[j]))
    rng = np.random.default_rng(seed)
    for _ in range(BOUNDING_RANDOM):
        w = rng.random(verts.shape[0])
        candidates.append((w / w.sum()) @ verts)

    seen, scanned = [], []
    for xi in candidates:
        if any(np.linalg.norm(xi - s) <= 1e-12 for s in seen):
            continue
        seen.append(xi)
        verdict = is_C_bounded_below(problem, xi)
        scanned.append((xi, verdict.verdict))
        if verdict.holds:
            return BoundingSearch(xi, tuple(scanned))
    return BoundingSearch(None, tuple(scanned))


# ---------------------------------------------------------------------------
# bilinear minimax


def _lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    from scipy.optimize import linprog

    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if not res.success:
        raise NumericalFailure(f"LP cross-check failed: {res.message}")
    return res


@dataclass(frozen=True)
class SionGap:
    """sup-inf / inf-sup pair with LP cross-checks; unpacks as the pair."""

    sup_inf: float
    inf_sup: float
    sup_inf_exact: float
    inf_sup_exact: float
    lattice_error: float

    def __iter__(self):
        return iter((self.sup_inf, self.inf_sup))


def sion_gap(matrix, w_domain, z_subdivisions=64, w_resolution=33) -> SionGap:
    """Both curvatures of the bilinear saddle z^T A w, z over the simplex.

    w_domain is either a Box or the string "simplex".  Inner problems are
    exact (corner/vertex arguments of a linear function); outer problems
    are solved on fine lattices and cross-checked by exact LPs.
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    kz, kw = a.shape
    if kz < 1 or kw < 1 or not np.all(np.isfinite(a)):
        raise InputError("matrix must be a finite 2-d array")

    if isinstance(w_domain, str):
        if w_domain != "simplex":
            raise InputError("w_domain must be a Box or 'simplex'")
        corners = np.eye(kw)
        w_lattice = simplex_lattice(kw, z_subdivisions)
        w_is_simplex = True
        mesh_w = kw / z_subdivisions
    else:
        if not isinstance(w_domain, Box) or w_domain.dim != kw:
            raise InputError(f"w_domain must be a Box of dimension {kw}")
        corners = w_domain.corners()
        w_lattice = w_domain.lattice(w_resolution)
        w_is_simplex = False
        mesh_w = w_domain.lattice_spacing(w_resolution)

    # sup over z-lattice of (exact) inf over w
    z_lattice = simplex_lattice(kz, z_subdivisions)
    inner = z_lattice @ (a @ corners.T)  # (nz, ncorners)
    phi = row_min(inner)
    sup_inf = float(phi.max())

    # inf over w-lattice of (exact) sup over z: max coordinate of A w
    psi = row_max(w_lattice @ a.T)
    inf_sup = float(psi.min())

    # exact LP values for both orders
    # max t s.t. t <= z^T A c for all corners c, z in simplex
    n = kz + 1
    a_ub = np.hstack([-(a @ corners.T).T, np.ones((corners.shape[0], 1))])
    b_ub = np.zeros(corners.shape[0])
    a_eq = np.concatenate([np.ones(kz), [0.0]])[None, :]
    c = np.zeros(n)
    c[-1] = -1.0
    res = _lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=np.array([1.0]),
              bounds=[(0, None)] * kz + [(None, None)])
    sup_inf_exact = float(res.x[-1])

    # min t s.t. A w <= t, w in domain
    n = kw + 1
    a_ub = np.hstack([a, -np.ones((kz, 1))])
    b_ub = np.zeros(kz)
    c = np.zeros(n)
    c[-1] = 1.0
    if w_is_simplex:
        a_eq = np.concatenate([np.ones(kw), [0.0]])[None, :]
        res = _lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=np.array([1.0]),
                  bounds=[(0, None)] * kw + [(None, None)])
    else:
        bounds = [(lo, hi) for lo, hi in zip(w_domain.lower, w_domain.upper)] + [(None, None)]
        res = _lp(c, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
    inf_sup_exact = float(res.x[-1])

    lip_phi = float(np.linalg.norm(a @ corners.T, axis=0).max()) if corners.size else 0.0
    lip_psi = float(np.linalg.norm(a, axis=1).max())
    err = max(lip_phi * kz / z_subdivisions, lip_psi * mesh_w)
    return SionGap(sup_inf, inf_sup, sup_inf_exact, inf_sup_exact, float(err))
