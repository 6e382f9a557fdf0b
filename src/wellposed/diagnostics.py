"""Efficiency classification and well-posedness diagnostics on lattices.

Verdicts are tri-states: "no" always carries a re-checkable witness, "yes"
is evidence at the stated resolution and tolerance, "inconclusive" marks
searches that ended without either.  The tolerance is two lattice cell
diagonals, so verdicts are meaningful at the chosen resolution.  The
curve thresholds TOL_ABS and DECAY_RATIO and the strict-efficiency
thresholds STRICT_EPS and STRICT_DELTA are fixed module constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._rows import row_norm, row_sub
from .distance import _oriented_distance_upto
from .errors import HypothesisNotMet, InputError, WellposedError
from .problem import (
    LATTICE_CAP,
    ScalarProblem,
    VectorProblem,
    _level_members,
    _nested_members,
    diameter,
    finite_image,
    lattice_image,
    lattice_values,
    level_set,
    scalarize_oriented,
)

YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"

WELL_POSED = "well_posed_evidence"
NOT_WELL_POSED = "not_well_posed_evidence"

TOL_ABS = 1e-3
DECAY_RATIO = 0.1


def geometric_schedule(stop_power):
    """Decreasing powers of two: 1 down to 2^-stop_power."""
    if stop_power < 0:
        raise InputError("stop_power must be >= 0")
    return 2.0 ** (-np.arange(stop_power + 1, dtype=float))


DEFAULT_ALPHA_SCHEDULE = geometric_schedule(10)
# the strict-efficiency containment: {D <= STRICT_DELTA} must lie within
# STRICT_EPS of x_bar (see classify_point)
STRICT_EPS = 2.0 ** -6
STRICT_DELTA = 2.0 ** -20


def _validate_schedule(schedule, what):
    # a fresh array, the defaults for None: a report's schedule must not alias them
    s = np.array(DEFAULT_ALPHA_SCHEDULE if schedule is None else schedule, dtype=float).ravel()
    if s.size == 0 or not np.isfinite(s).all() or np.any(s <= 0) or np.any(np.diff(s) >= 0):
        raise InputError(f"{what} must be a finite decreasing positive schedule")
    return s


# ---------------------------------------------------------------------------
# efficiency classification


def _domination(cone, diff, rtol):
    """(margins, sizes, dom, weak) for the rows of diff = f(x) - f(x_bar).

    margins are the membership margins of f(x_bar) - f(x) and sizes the
    norms of diff.  x is a domination witness (dom) when f(x) lies below
    f(x_bar) in the cone order, at the cone's own tolerance, and apart from
    it by more than rtol; a weak witness (weak) has every facet margin
    above rtol.  x_bar is efficient unless some row is either.
    """
    margins = cone.margins(-diff)
    sizes = row_norm(diff)
    return margins, sizes, (margins >= -cone.tol) & (sizes > rtol), margins > rtol


@dataclass(frozen=True)
class EfficiencyVerdict:
    """Tri-state classification of one candidate point."""

    point: np.ndarray
    efficient: str
    weakly_efficient: str
    strictly_efficient: str
    witnesses: dict
    grid_resolution: int
    tol: float


def classify_point(problem: VectorProblem, x_bar, grid_resolution=201) -> EfficiencyVerdict:
    """Classify x_bar as efficient / weakly / strictly efficient by lattice scan.

    A domination witness is a lattice point whose image sits below f(x_bar)
    in the cone order (membership at the cone's own tolerance) and differs
    by more than tol, two lattice cell diagonals, in norm; a weak witness
    needs every facet margin above tol (_domination).  Strict efficiency is
    the epsilon-delta containment of the oriented-distance sublevel sets
    {D <= delta} in the epsilon-ball about x_bar.  Those sets shrink with
    delta, so only the smallest epsilon and delta can decide it: "no" with
    a witness when a point of {D <= cone.tol} lies farther than STRICT_EPS,
    else "inconclusive" when a point of {D <= STRICT_DELTA} does, else
    "yes".  D is at least the largest facet margin of f(x) - f(x_bar) less
    a certificate tolerance, so only the points whose margin can reach
    STRICT_DELTA are projected (distance._oriented_distance_upto), and a
    NumericalFailure can come only from those points.
    A non-finite lattice image raises InputError.
    """
    x_bar, f_bar = finite_image(problem, x_bar)
    rtol = 2.0 * problem.domain.lattice_spacing(grid_resolution)
    cone = problem.cone

    witnesses = {}
    efficient, weakly = YES, YES
    hard_tol = cone.tol

    # max distance to x_bar over {D <= STRICT_DELTA}, and over the hard
    # level-zero set
    delta_maxdist = 0.0
    zero_maxdist = 0.0
    zero_far_witness = None

    # streamed, not mapped: storing the per-point arrays below would cost
    # over 100 MB on a lattice at the store cap
    for pts, _ in problem.domain.iter_lattice(grid_resolution):
        with np.errstate(over="ignore", invalid="ignore"):
            vals = lattice_image(problem, pts)
            diff = row_sub(vals, f_bar)
            margins, sizes, dom, weak = _domination(cone, diff, rtol)
            # exact where D <= STRICT_DELTA can hold, +inf elsewhere: the
            # only values the containment tests below read
            dvals = _oriented_distance_upto(cone, diff, STRICT_DELTA)
        dists = row_norm(row_sub(pts, x_bar))

        if dom.any() and "efficient" not in witnesses:
            k = int(np.flatnonzero(dom)[0])
            witnesses["efficient"] = {"x": pts[k], "f": vals[k],
                                      "margin": float(margins[k]), "size": float(sizes[k])}
            efficient = NO
        if weak.any() and "weakly_efficient" not in witnesses:
            k = int(np.flatnonzero(weak)[0])
            witnesses["weakly_efficient"] = {"x": pts[k], "f": vals[k],
                                             "margin": float(margins[k])}
            weakly = NO

        with np.errstate(invalid="ignore"):
            near_zero = dvals <= hard_tol
        if near_zero.any():
            far = float(dists[near_zero].max())
            if far > zero_maxdist:
                zero_maxdist = far
                k = int(np.flatnonzero(near_zero)[int(np.argmax(dists[near_zero]))])
                zero_far_witness = {"x": pts[k], "distance": far, "value": float(dvals[k])}
        sel = dvals <= STRICT_DELTA
        if sel.any():
            delta_maxdist = max(delta_maxdist, float(dists[sel].max()))

    if zero_maxdist > STRICT_EPS:
        strict = NO
        witnesses["strictly_efficient"] = zero_far_witness
    elif delta_maxdist > STRICT_EPS:
        strict = INCONCLUSIVE
    else:
        strict = YES

    # order relations: strict implies efficient implies weak
    if weakly == NO:
        efficient = NO
        witnesses.setdefault("efficient", witnesses.get("weakly_efficient"))
    if efficient == NO and strict != NO:
        strict = NO
        witnesses.setdefault("strictly_efficient", witnesses.get("efficient"))

    return EfficiencyVerdict(x_bar, efficient, weakly, strict, witnesses,
                             grid_resolution, rtol)


def weff_via_distance(problem: VectorProblem, x_bar, grid_resolution=201) -> bool:
    """Weak efficiency through the oriented-distance scalarization: x_bar is
    weakly efficient iff the lattice minimum of D(f(x) - f(x_bar)) is >= -tol,
    with tol two lattice cell diagonals (x_bar itself attains 0).

    Only a value at or below -tol can decide it, so each chunk's values come
    from distance._oriented_distance_upto at level -tol: exact where they
    are at most -tol, +inf or exact elsewhere.  A row is projected only if
    its largest facet margin can reach -tol; a row inside -C needs no
    projection, so on lattices of moderate images none is projected.  The
    verdict is read off the D minimum, not off classify_point's facet
    margins.  Every chunk is scanned, so a non-finite lattice image
    anywhere raises InputError.
    """
    x_bar, f_bar = finite_image(problem, x_bar)
    rtol = 2.0 * problem.domain.lattice_spacing(grid_resolution)
    best = 0.0  # x_bar itself attains 0
    for pts, _ in problem.domain.iter_lattice(grid_resolution):
        with np.errstate(over="ignore", invalid="ignore"):
            diff = row_sub(lattice_image(problem, pts), f_bar)
            best = min(best, float(_oriented_distance_upto(problem.cone, diff, -rtol).min()))
    return bool(best >= -rtol)


def _dominated(problem: VectorProblem, f_bar, grid_resolution) -> bool:
    """Whether some lattice point dominates f_bar by classify_point's rule
    (_domination), without the rest of a classification.  Every chunk is
    scanned, so a non-finite lattice image anywhere raises InputError."""
    rtol = 2.0 * problem.domain.lattice_spacing(grid_resolution)
    dominated = False
    for pts, _ in problem.domain.iter_lattice(grid_resolution):
        with np.errstate(over="ignore", invalid="ignore"):
            diff = row_sub(lattice_image(problem, pts), f_bar)
            _, _, dom, weak = _domination(problem.cone, diff, rtol)
        dominated |= bool(dom.any() or weak.any())
    return dominated


# ---------------------------------------------------------------------------
# well-posedness reports


@dataclass(frozen=True)
class WellPosednessReport:
    """Diameter decay table plus verdict for one diagnostic run.

    diam_curve and counts have shape (levels, directions); scalar runs use
    a single synthetic direction column.  Curves are nonincreasing in the
    level by level-set nesting on a fixed lattice.
    """

    kind: str
    label: str
    point: np.ndarray | None
    directions: np.ndarray | None
    schedule: np.ndarray
    diam_curve: np.ndarray
    counts: np.ndarray
    verdict: str
    grid_resolution: int
    lattice_spacing: float
    tol_abs: float
    decay_ratio: float
    details: dict


def _curve_verdict(diams, spacing):
    threshold = TOL_ABS + 2.0 * spacing
    final, initial = float(diams[-1]), float(diams[0])
    if final <= threshold and (initial <= threshold or final <= DECAY_RATIO * initial):
        return WELL_POSED
    if final > threshold and final >= 0.5 * initial:
        return NOT_WELL_POSED
    return INCONCLUSIVE


def _aggregate(verdicts):
    if all(v == WELL_POSED for v in verdicts):
        return WELL_POSED
    return NOT_WELL_POSED if NOT_WELL_POSED in verdicts else INCONCLUSIVE


def _curve(box, grid_resolution, walk):
    """(diameters, counts) of the lattice points of each member flat-index
    array of a walk: one column of a report."""
    diams, counts = [], []
    for members in walk:
        counts.append(members.size)
        diams.append(diameter(box.lattice_points_at(grid_resolution, members)))
    return np.array(diams), np.array(counts)


def _report(box, grid_resolution, schedule, columns, **fields):
    """The report of one (diameters, counts) column per direction: each
    column's curve verdict, aggregated, at the lattice's spacing."""
    diams, counts = (np.column_stack(column) for column in zip(*columns))
    spacing = box.lattice_spacing(grid_resolution)
    verdict = _aggregate([_curve_verdict(diams[:, j], spacing) for j in range(len(columns))])
    return WellPosednessReport(
        schedule=schedule, diam_curve=diams, counts=counts, verdict=verdict,
        grid_resolution=grid_resolution, lattice_spacing=spacing,
        tol_abs=TOL_ABS, decay_ratio=DECAY_RATIO, **fields)


def tykhonov_diagnostic(sp: ScalarProblem, level_schedule=None,
                        grid_resolution=201) -> WellPosednessReport:
    """Level-set diameter decay above the lattice infimum (scalar problems).

    Levels are inf + offset for each schedule offset; the argmin always
    belongs to every level set, so the curve exists everywhere.  The level
    sets shrink with the offset, so each level is tested only on the
    members of the level before (see _nested_members; a bound that fails
    to shrink under rounding is tested on every point).  A non-finite
    lattice value raises InputError.
    """
    schedule = _validate_schedule(level_schedule, "level_schedule")
    values = lattice_values(sp, grid_resolution)
    inf = float(values.min())
    levels = _nested_members(values[:, None], (np.array([inf + off]) for off in schedule))
    column = _curve(sp.domain, grid_resolution, levels)
    if not column[1].all():
        raise WellposedError("internal: empty level set above the infimum")
    argmin_point = sp.domain.lattice_points_at(grid_resolution, [int(values.argmin())])[0]
    return _report(sp.domain, grid_resolution, schedule, [column],
                   kind="tykhonov", label=sp.label, point=None, directions=None,
                   details={"lattice_infimum": inf, "argmin": argmin_point})


def dh_diagnostic(problem: VectorProblem, x_bar, alpha_schedule=None,
                  grid_resolution=201, require_efficient=True) -> WellPosednessReport:
    """Vector level-set diameter decay along interior directions at x_bar.

    Checks L(f(x_bar) + alpha*c) for decreasing alpha and each direction c
    of cone.interior_direction_battery(); any two interior directions bound
    each other's level sets, so the battery stands for all of them, and
    well-posed evidence needs every direction's curve to collapse.  x_bar
    must classify efficient unless require_efficient=False: one lattice pass
    reads only classify_point's domination rule (_dominated), and
    HypothesisNotMet is raised if some lattice point dominates x_bar.

    Along each direction the levels are walked nested by level_set's rule
    on the products <g, f(x)> with the dual generators g (_level_members).
    The routes differ only in where those products come from: up to the
    store cap the whole lattice's are kept for every direction, above it one
    level_set pass per direction streams them, so both give the same
    members.  A non-finite lattice image raises InputError on both.
    """
    x_bar, f_bar = finite_image(problem, x_bar)
    schedule = _validate_schedule(alpha_schedule, "alpha_schedule")
    if require_efficient and _dominated(problem, f_bar, grid_resolution):
        raise HypothesisNotMet("x_bar classifies as not efficient: a lattice point dominates it")
    box, cone = problem.domain, problem.cone
    dirs = cone.interior_direction_battery()

    if box.lattice_size(grid_resolution) <= LATTICE_CAP:
        # <g, f(x)> per lattice point and dual generator g
        img_margins = box.map_lattice(
            grid_resolution, lambda pts: lattice_image(problem, pts) @ cone.dual_generators.T)
        columns = [_curve(box, grid_resolution, _level_members(
            cone, img_margins, (f_bar + alpha * c for alpha in schedule))) for c in dirs]
    else:
        # above the store cap, trade time for memory: one lattice pass per direction
        columns = []
        for c in dirs:
            levels = level_set(problem, f_bar + schedule[:, None] * c, grid_resolution)
            counts = np.array([len(level) for level in levels])
            # smallest level first, each freed once measured: the largest is measured alone
            diams = [diameter(levels.pop()) for _ in schedule]
            columns.append((np.array(diams[::-1]), counts))

    return _report(box, grid_resolution, schedule, columns,
                   kind="dh", label=problem.label, point=x_bar, directions=dirs,
                   details={"f_bar": f_bar})


def dh_via_scalarization(problem: VectorProblem, x_bar, level_schedule=None,
                         grid_resolution=201) -> WellPosednessReport:
    """Equivalent route: run the scalar diagnostic on the oriented-distance
    scalarization at x_bar and report it as a dh verdict."""
    x_bar = np.asarray(x_bar, dtype=float).reshape(-1)
    sp = scalarize_oriented(problem, x_bar)
    base = tykhonov_diagnostic(sp, level_schedule=level_schedule, grid_resolution=grid_resolution)
    return replace(base, kind="dh-scalarized", label=problem.label, point=x_bar,
                   details={**base.details, "route": "oriented-distance-scalarization"})

