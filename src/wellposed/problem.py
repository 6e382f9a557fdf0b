"""Vector problems on box domains, lattices, and the function metric.

A problem couples a pure vectorized evaluator with a finite box domain and
an ordering cone.  All diagnostics sample the box on uniform lattices; the
box therefore owns lattice generation (chunked above a size cap so level
sets of 10^6+ point lattices never materialize whole grids), nearest-point
snapping, and spacing in the "cell diagonal" sense used by every
diameter-flavored tolerance in the package.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._rows import row_all_eq, row_all_le, row_norm, row_sub
from .cone import OrderingCone
from .distance import oriented_distance_batch
from .errors import InputError, NotInteriorPoint

LATTICE_CAP = 2_000_000
# the most points one streamed lattice pass may visit: far above any lattice
# the package scans, far below a pass that would never end
LATTICE_BUDGET = 100_000_000
CHUNK = 262_144
_DIRECT_DIAMETER_MAX = 3000
# the radius prune's slack, relative to L + R: far above the few-ulp rounding
# of the sums and norms it compares
_PRUNE_SLACK = 1e-9
# below this a pair's squared sum may hold subnormal terms, whose rounding is
# not relative, so the sweep keeps every row
_PRUNE_FLOOR = 1e-280
BOX_SLACK = 1e-9

# function_distance is the truncated ball-sup series: the sum over
# i = 1..METRIC_TRUNCATION of 2^-i u_i/(1+u_i), with u_i the sup of ||f - g||
# over the radius-i ball about the box centre intersected with the box,
# sampled at METRIC_SAMPLES seeded points plus a deterministic battery.  A
# sup above METRIC_OVERFLOW (or non-finite) collapses the metric to 1, and
# METRIC_TAIL bounds the dropped terms.
METRIC_TRUNCATION = 20
METRIC_SAMPLES = 4096
METRIC_SEED = 0
METRIC_OVERFLOW = 1e12
METRIC_TAIL = 2.0 ** -METRIC_TRUNCATION


# ---------------------------------------------------------------------------
# domain box


def _checked_resolution(resolution):
    try:
        resolution = operator.index(resolution)
    except TypeError:
        raise InputError("grid resolution must be an integer") from None
    if resolution < 2:
        raise InputError("grid resolution must be >= 2")
    return resolution


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {x : lower <= x <= upper} with lower < upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).reshape(-1)
        hi = np.asarray(self.upper, dtype=float).reshape(-1)
        if lo.shape != hi.shape or lo.size == 0:
            raise InputError("box bounds must be nonempty vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InputError("box bounds must be finite")
        if np.any(lo >= hi):
            raise InputError("box needs lower < upper componentwise")
        for name, arr in (("lower", lo), ("upper", hi)):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self):
        return self.lower.size

    @property
    def center(self):
        return 0.5 * (self.lower + self.upper)

    def contains(self, x):
        """Box membership with a slack of BOX_SLACK on every bound."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape != self.lower.shape:
            raise InputError(f"expected point of length {self.dim}")
        return bool(np.all(x >= self.lower - BOX_SLACK) and np.all(x <= self.upper + BOX_SLACK))

    def clip(self, points):
        return np.clip(points, self.lower, self.upper)

    def corners(self):
        if self.dim > 16:
            raise InputError("corner enumeration capped at dimension 16")
        cols = np.array(list(itertools.product(*zip(self.lower, self.upper))))
        return cols

    def scaled(self, factor):
        """Box scaled about its center; factor >= used by expanding-domain scans.
        Factor 1 gives the box itself: center -+ half-width can miss a bound
        by an ulp."""
        if factor <= 0:
            raise InputError("scale factor must be positive")
        if factor == 1:
            return self
        c, h = self.center, 0.5 * (self.upper - self.lower)
        return Box(c - factor * h, c + factor * h)

    # -- lattices ----------------------------------------------------------

    def _axes(self, resolution):
        resolution = _checked_resolution(resolution)
        return [np.linspace(self.lower[j], self.upper[j], resolution) for j in range(self.dim)]

    def lattice_size(self, resolution):
        return _checked_resolution(resolution) ** self.dim

    def lattice_spacing(self, resolution):
        """Cell diagonal of the uniform lattice (the spacing used in tolerances)."""
        step = (self.upper - self.lower) / (_checked_resolution(resolution) - 1)
        return float(np.linalg.norm(step))

    def lattice(self, resolution):
        total = self.lattice_size(resolution)
        if total > LATTICE_CAP:
            raise InputError(f"lattice of {total} points exceeds cap {LATTICE_CAP}")
        return self.lattice_points_at(resolution, np.arange(total))

    def iter_lattice(self, resolution):
        """Yield (points, start_flat_index) chunks of CHUNK points in C order.

        In C order axis j's column repeats each axis value s = res^(d-1-j)
        times and cycles every res * s points.  When a cycle fits in a chunk
        the column is a slice of that cycle, tiled once per pass to a chunk
        plus a cycle or to the lattice, whichever is shorter; otherwise it is
        np.repeat of the few runs the chunk meets, the first and last clipped
        to it.  The values are copies of the linspace axes, so each chunk has
        the bits of lattice_points_at over its indices.  A lattice above
        LATTICE_BUDGET points raises InputError before the first chunk.
        """
        total = self.lattice_size(resolution)
        if total > LATTICE_BUDGET:
            raise InputError(f"lattice of {total} points exceeds the budget {LATTICE_BUDGET} "
                             "of one pass")
        axes = self._axes(resolution)
        runs = [resolution ** (self.dim - 1 - j) for j in range(self.dim)]
        tiled = [np.resize(np.repeat(axis, s), min(CHUNK + resolution * s - 1, total))
                 if resolution * s <= CHUNK else None for axis, s in zip(axes, runs)]
        for start in range(0, total, CHUNK):
            stop = min(start + CHUNK, total)
            pts = np.empty((stop - start, self.dim))
            for j, (axis, s, cycle) in enumerate(zip(axes, runs, tiled)):
                if cycle is not None:
                    off = start % (resolution * s)
                    pts[:, j] = cycle[off:off + stop - start]
                    continue
                first, last = start // s, (stop - 1) // s
                counts = np.full(last - first + 1, s)
                counts[0] -= start - first * s
                counts[-1] -= (last + 1) * s - stop
                pts[:, j] = np.repeat(axis[np.arange(first, last + 1) % resolution], counts)
            yield pts, start

    def map_lattice(self, resolution, fn):
        """fn applied to every lattice chunk, stacked in C order.

        fn maps an (n, dim) chunk to n values or n rows.  Overflow and
        invalid operations are silenced; callers check finiteness.
        """
        out = None
        with np.errstate(over="ignore", invalid="ignore"):
            for pts, start in self.iter_lattice(resolution):
                vals = np.asarray(fn(pts))
                if out is None:
                    out = np.empty((self.lattice_size(resolution),) + vals.shape[1:], vals.dtype)
                out[start:start + pts.shape[0]] = vals
        return out

    def lattice_points_at(self, resolution, flat_indices):
        """Lattice points of the given flat indices (C order) without a grid
        pass, as a C-contiguous (n, dim) array.

        Axis by axis from the last, q = idx // res picks the outer index and
        idx - q * res the column's axis value.  An index below 0 or at or
        above the lattice size raises InputError.
        """
        axes = self._axes(resolution)
        rest = np.asarray(flat_indices, dtype=np.int64)
        size = self.lattice_size(resolution)
        if rest.size and (rest.min() < 0 or rest.max() >= size):
            raise InputError(f"flat index out of range for a lattice of {size} points")
        pts = np.empty((rest.size, self.dim))
        for j in range(self.dim - 1, 0, -1):
            q = rest // resolution
            pts[:, j] = axes[j][rest - q * resolution]
            rest = q
        pts[:, 0] = axes[0][rest]
        return pts

    def nearest_lattice_point(self, resolution, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        if not self.contains(x):
            raise InputError("point lies outside the box")
        h = (self.upper - self.lower) / (_checked_resolution(resolution) - 1)
        steps = np.clip(np.rint((x - self.lower) / h).astype(np.int64), 0, resolution - 1)
        flat = int(np.ravel_multi_index(tuple(steps), (resolution,) * self.dim))
        # the lattice's own point, from the linspace axes: lower + steps * h can miss it
        return self.lattice_points_at(resolution, [flat])[0], flat


# ---------------------------------------------------------------------------
# diameters


def _sq_dists(coords, centre):
    """Squared distances of the columns of a (d, n) array to a (d,) centre,
    summed in coordinate order as the pair sweep sums them."""
    out = coords[0] - centre[0]
    np.multiply(out, out, out=out)
    sq = np.empty_like(out)
    for k in range(1, coords.shape[0]):
        np.subtract(coords[k], centre[k], out=sq)
        np.multiply(sq, sq, out=sq)
        out += sq
    return out


def _pairwise_max(points):
    """Largest distance between two rows of an (n, d) array, n >= 2, equal to
    scipy's pdist(points).max() bit for bit.

    pdist sums the squared coordinate differences of a pair in coordinate
    order and takes one correctly rounded sqrt, which is monotone, so the
    maximum of the sums in that order, square-rooted once, is its maximum.

    Rows that cannot be an end of a pair reaching a lower bound are pruned
    first (Malandain and Boissonnat's and Har-Peled's bounds).  Up to four
    double-normal steps, each to the row farthest from the last one, give a
    rounded pair sum L^2 that some pair attains.  Let c be the bounding-box
    midpoint, r_p = |p - c| and R the largest r_p.  A pair (p, q) whose
    rounded sum reaches L^2 is at least L(1 - (d + 2)u) apart (u the unit
    roundoff), and |p - q| <= r_p + r_q <= r_p + R by the triangle
    inequality, so r_p >= L - R up to a few ulps of L + R, and the same for
    q.  Only rows with r_p >= L - R - 1e-9 (L + R) are swept; the slack is
    far above that rounding, so the pair attaining the maximum sum is kept
    and the result is that of the sweep over every row.  Without a finite
    L^2 above _PRUNE_FLOOR (overflowing or subnormal sums) every row is
    swept.

    Strips of 32 kept rows are swept against blocks of at most 4096 later
    rows in two reused buffers, so beyond a transposed copy of the points,
    its pruned copy and a few n-vectors of radii and sums the memory is
    fixed at any n.
    """
    n, d = points.shape
    if d == 1:
        # rounding is monotone and sqrt(fl(x^2)) == |x| in binary64 (barring
        # over- or underflow of the square), so on finite points this equals
        # pdist(points).max() bit for bit
        return float(points.max() - points.min())
    coords = np.ascontiguousarray(points.T)
    # pdist's C loop raises no floating-point warnings, so neither does this
    with np.errstate(over="ignore", invalid="ignore"):
        radius = np.sqrt(_sq_dists(coords, 0.5 * coords.min(axis=1) + 0.5 * coords.max(axis=1)))
        i, low = int(np.argmax(radius)), 0.0
        for _ in range(4):
            sums = _sq_dists(coords, coords[:, i])
            j = int(np.argmax(sums))
            if not sums[j] > low:
                break
            i, low = j, sums[j]
        if _PRUNE_FLOOR < low < np.inf:
            bound, r_max = np.sqrt(low), radius.max()
            # compress keeps the rows contiguous; coords[:, keep] would not
            coords = np.compress(radius >= bound - r_max - _PRUNE_SLACK * (bound + r_max),
                                 coords, axis=1)
            n = coords.shape[1]
        acc = np.empty((min(n, 32), min(n, 4096)))
        sq = np.empty_like(acc)
        best = np.float64(0.0)
        for s in range(0, n, 32):
            e = min(s + 32, n)
            for c in range(s, n, 4096):
                cols = slice(c, min(c + 4096, n))
                a = acc[:e - s, :cols.stop - c]
                b = sq[:e - s, :cols.stop - c]
                np.subtract(coords[0, s:e, None], coords[0, None, cols], out=a)
                np.multiply(a, a, out=a)
                for k in range(1, d):
                    np.subtract(coords[k, s:e, None], coords[k, None, cols], out=b)
                    np.multiply(b, b, out=b)
                    a += b
                best = np.maximum(best, a.max())
    return float(np.sqrt(best))


def _off_line_ends(points):
    """Mask that drops each row lying strictly inside the segment between its
    two neighbouring rows.

    A row whose previous and next rows share its leading d-1 coordinates,
    with its last coordinate strictly between theirs, lies inside the segment
    joining them, whatever order the rows are in.  Every such row is dropped;
    the least and greatest last coordinate of each run of rows sharing the
    leading coordinates are kept, so the dropped rows lie in the convex hull
    of the kept ones.  On lattice points in flat-index order this keeps the
    two ends of each lattice line along the last axis.
    """
    keep = np.ones(points.shape[0], dtype=bool)
    if points.shape[0] < 3:
        return keep
    lead, last = points[:, :-1], points[:, -1]
    same = row_all_eq(lead[1:], lead[:-1])
    prev, mid, nxt = last[:-2], last[1:-1], last[2:]
    inside = same[:-1] & same[1:] & (np.minimum(prev, nxt) < mid) & (mid < np.maximum(prev, nxt))
    keep[1:-1] = ~inside
    return keep


def diameter(point_set):
    """Max pairwise distance of the rows of an (n, d) array; 0 for n <= 1.

    Rows that lie strictly inside the segment between their two neighbours
    are dropped first (see _off_line_ends), and the rest go to the pruned
    pair sweep _pairwise_max.  Up to _DIRECT_DIAMETER_MAX rows the sweep
    runs on the original coordinates, and the result equals scipy's
    pdist(points).max() on all rows bit for bit: a dropped row shares its
    leading coordinates with the least and greatest row of its run, so its
    rounded partial sum over them is the same, and the rounded last term
    grows with the distance along the last axis, so no dropped row is
    farther from any row than one of those two.

    Larger sets are first projected isometrically onto their affine span
    (about the mean, in the SVD basis; rank at 1e-12 of the largest singular
    value), so a degenerate set is swept in as few coordinates as it spans;
    a set of rank 1 is measured as the extent of its one coordinate.  The
    result is the pdist maximum of the projected rows.  Their rounding
    depends on the whole set (its row order and repeats too), so it can
    differ from pdist's maximum on the original rows by a few ulps (up to
    6.0e-16 relative where measured).  The basis is computed from every row
    and only the kept rows are projected, each to the bits the full
    projection gives it; at rank 1 the projected value is monotone in the
    last coordinate along each run of rows the drop acts on, so the kept
    ends hold both extremes.  The basis is the SVD of R, the triangular
    factor of the centred rows: LAPACK's dgesdd takes that route itself on
    a matrix with at least 11/6 as many rows as columns (here any set in up
    to 1,636 coordinates), so s and vt keep the bits of the thin SVD of the
    rows, and its n x d U factor is never formed.  No scipy is loaded.
    """
    pts = np.atleast_2d(np.asarray(point_set, dtype=float))
    if not np.isfinite(pts).all():
        raise InputError("diameter needs finite points")
    n = pts.shape[0]
    if n <= 1:
        return 0.0
    if n <= _DIRECT_DIAMETER_MAX:
        return _pairwise_max(pts[_off_line_ends(pts)])
    centered = row_sub(pts, pts.mean(axis=0))
    _, s, vt = np.linalg.svd(np.linalg.qr(centered, mode="r"), full_matrices=False)
    rank = int(np.sum(s > max(s[0], 1.0) * 1e-12))
    if rank == 0:
        return 0.0
    return _pairwise_max(centered[_off_line_ends(pts)] @ vt[:rank].T)


# ---------------------------------------------------------------------------
# problems


def _validated_batch(points, dim):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != dim:
        raise InputError(f"expected points of length {dim}")
    return pts


@dataclass(frozen=True)
class VectorProblem:
    """Vector objective on a box, ordered by a cone.

    The evaluator must be pure and vectorized: (n, decision_dim) ->
    (n, objective_dim).  `continuous` is an assumption flag, never tested
    numerically: tikhonov_regularize reads it to decide whether a strict
    efficiency "no" counts against the certificate.
    """

    label: str
    decision_dim: int
    objective_dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    domain: Box
    cone: OrderingCone
    continuous: bool = True

    def __post_init__(self):
        if self.domain.dim != self.decision_dim:
            raise InputError("domain dimension does not match decision_dim")
        if self.cone.ambient_dim != self.objective_dim:
            raise InputError("cone dimension does not match objective_dim")

    def evaluate(self, points):
        pts = _validated_batch(points, self.decision_dim)
        out = np.asarray(self.evaluator(pts), dtype=float)
        if out.shape != (pts.shape[0], self.objective_dim):
            raise InputError(
                f"evaluator returned shape {out.shape}, expected {(pts.shape[0], self.objective_dim)}"
            )
        return out

    def evaluate_one(self, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        return self.evaluate(x[None, :])[0]


@dataclass(frozen=True)
class ScalarProblem:
    """Scalar objective on a box; evaluator (n, decision_dim) -> (n,)."""

    label: str
    decision_dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    domain: Box

    def __post_init__(self):
        if self.domain.dim != self.decision_dim:
            raise InputError("domain dimension does not match decision_dim")

    def evaluate(self, points):
        pts = _validated_batch(points, self.decision_dim)
        out = np.asarray(self.evaluator(pts), dtype=float).reshape(-1)
        if out.shape != (pts.shape[0],):
            raise InputError("scalar evaluator must return one value per point")
        return out

    def evaluate_one(self, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        return float(self.evaluate(x[None, :])[0])


# ---------------------------------------------------------------------------
# perturbations and scalarizations


def perturb(problem: VectorProblem, amplitude, center, direction) -> VectorProblem:
    """New problem with amplitude * ||x - center|| * direction added to the
    objective.

    The direction must be strictly interior to the ordering cone, so the
    perturbation moves images up the order.  The amplitude, center and
    direction must be finite: otherwise every image, or the image at the
    center (0 * inf), is NaN or inf.
    """
    if not 0 <= amplitude < np.inf:  # NaN too
        raise InputError("amplitude must be >= 0 and finite")
    center = np.array(center, dtype=float).reshape(-1)
    direction = np.array(direction, dtype=float).reshape(-1)
    if center.shape != (problem.decision_dim,):
        raise InputError("perturbation center dimension mismatch")
    if direction.shape != (problem.objective_dim,):
        raise InputError("perturbation direction dimension mismatch")
    if not np.all(np.isfinite(center)):
        raise InputError("perturbation center must be finite")
    if not np.all(np.isfinite(direction)):
        raise InputError("perturbation direction must be finite")
    if not problem.cone.contains(direction, strict=True):
        raise NotInteriorPoint("perturbation direction must be strictly interior to the cone")
    center.setflags(write=False)
    direction.setflags(write=False)
    base = problem.evaluator
    a = float(amplitude)

    def shifted(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = row_norm(pts - center[None, :])
        return np.asarray(base(pts), dtype=float) + (a * r)[:, None] * direction[None, :]

    return replace(problem, label=problem.label + "+pert", evaluator=shifted)


def dual_vector(problem: VectorProblem, xi):
    """xi as a flat array, checked to be a nonzero dual-cone vector."""
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape != (problem.objective_dim,):
        raise InputError("xi dimension mismatch")
    if not np.all(np.isfinite(xi)):
        raise InputError("xi must be finite")
    if np.linalg.norm(xi) <= problem.cone.tol:
        raise InputError("xi must be nonzero")
    if np.any(problem.cone.generators @ xi < -problem.cone.tol):
        raise InputError("xi must lie in the dual cone")
    return xi


def finite_image(problem: VectorProblem, x_bar):
    """(x_bar, f(x_bar)) with x_bar flattened; x_bar must lie in the domain
    box and f(x_bar) must be finite, or no comparison against it is meaningful."""
    x_bar = np.asarray(x_bar, dtype=float).reshape(-1)
    if not problem.domain.contains(x_bar):
        raise InputError("x_bar must lie in the domain box")
    f_bar = problem.evaluate_one(x_bar)
    if not np.all(np.isfinite(f_bar)):
        raise InputError("f(x_bar) must be finite")
    return x_bar, f_bar


def finite_values(values, where="the lattice"):
    """values, refused with InputError if any is not finite: a NaN compares
    false everywhere, so a scan would drop its point silently."""
    if not np.isfinite(values).all():
        raise InputError(f"objective must be finite on {where}")
    return values


def lattice_image(problem: VectorProblem, points):
    """f on a batch of lattice points, refused if not finite."""
    return finite_values(problem.evaluate(points))


def lattice_values(sp: ScalarProblem, grid_resolution):
    """sp on its whole lattice in C order (Box.map_lattice), refused if not finite."""
    return finite_values(sp.domain.map_lattice(grid_resolution, sp.evaluate))


def scalarize_linear(problem: VectorProblem, xi) -> ScalarProblem:
    """Composition <xi, f(.)> for xi in the dual cone, xi != 0."""
    xi = dual_vector(problem, xi)
    base = problem.evaluator

    def ev(points):
        return np.asarray(base(np.atleast_2d(points)), dtype=float) @ xi

    return ScalarProblem(problem.label + "|lin", problem.decision_dim, ev, problem.domain)


def scalarize_oriented(problem: VectorProblem, x_bar) -> ScalarProblem:
    """Oriented-distance scalarization x -> D_{-C}(f(x) - f(x_bar)).

    Nonnegative on the domain exactly when x_bar is weakly efficient, with
    value 0 at x_bar itself.  A non-finite image raises InputError, so no
    scan over this scalarization can drop a point as NaN.
    """
    _, f_bar = finite_image(problem, x_bar)

    def ev(points):
        return oriented_distance_batch(problem.cone, row_sub(lattice_image(problem, points), f_bar))

    return ScalarProblem(problem.label + "|od", problem.decision_dim, ev, problem.domain)


# ---------------------------------------------------------------------------
# level sets


def _nested_members(rows, bounds):
    """Flat indices of the rows <= each bound row componentwise, level by level.

    A row that fails one level has a component above that level's bound, or
    a NaN; when the next bound row is componentwise <= the previous one, that
    component is above the next bound too.  Such a level is tested only on
    the members of the level before, and any other level on all rows, so
    every level's members equal np.all(rows <= bound, axis=1) by construction.
    """
    members, prev = None, None
    for bound in bounds:
        if members is None or not np.all(bound <= prev):
            members = np.flatnonzero(row_all_le(rows, bound))
        else:
            members = members[row_all_le(rows[members], bound)]
        prev = bound
        yield members


def _level_bounds(cone, levels):
    """The bound row <g, y> + tol over the dual generators g of each level y:
    f(x) <=_C y when every product <g, f(x)> is at most its bound."""
    return [cone.dual_generators @ y + cone.tol for y in levels]


def _level_members(cone, prods, levels):
    """Flat indices of the rows of prods, the products <g, f(x)> with the
    dual generators g, for which f(x) <=_C y, one array per level y: every
    <g, f(x)> <= <g, y> + tol, walked nested (_nested_members)."""
    return _nested_members(prods, _level_bounds(cone, levels))


def _screened_walks(cone, chunks, level_stacks):
    """_level_members of each stack of levels over every row of the
    (start, prods) chunks, from one pass that keeps only the rows that can
    be members: one lazy walk of member flat-index arrays per stack.

    The screen is the componentwise largest bound row of every level of
    every stack (a NaN bound holds no row and is passed over).  A row above
    it in some column is above every bound in that column, so it is in no
    level set; the rows at or below it are kept, chunk by chunk, with their
    flat indices.  Each walk tests the same rows against the same bounds as
    over all the rows: every chunk's kept rows are walked in step, and each
    level's members are mapped back through the kept indices and joined in
    flat-index order.  The rows are never joined, so at most the products
    of the whole lattice and one index per row are held.
    """
    bounds = [_level_bounds(cone, levels) for levels in level_stacks]
    screen = np.fmax.reduce(np.concatenate(bounds), axis=0)
    kept = []
    for start, prods in chunks:
        keep = np.flatnonzero(row_all_le(prods, screen))
        kept.append((prods[keep], start + keep))

    def walk(bound_rows):
        in_step = [map(flat.__getitem__, _nested_members(rows, bound_rows)) for rows, flat in kept]
        return (np.concatenate(level) for level in zip(*in_step))

    return [walk(b) for b in bounds]


def level_set(problem: VectorProblem, y, grid_resolution):
    """Lattice points x with f(x) <=_C y, as a (k, decision_dim) array in
    flat-index order, by _level_members' rule, which dh_diagnostic shares.

    y is one (m,) level vector, or an (L, m) stack of them, for which the
    list of the L level sets comes from one lattice pass: each chunk's
    products are formed once and the levels walked nested over them, so each
    set has the bits of a pass of its own.  Only member flat indices are
    kept during the pass.  A non-finite level or lattice image raises
    InputError.
    """
    levels = np.asarray(y, dtype=float)
    stack = np.atleast_2d(levels)
    if levels.ndim > 2 or stack.shape[0] == 0 or stack.shape[1] != problem.objective_dim:
        raise InputError("level_set takes an (m,) level vector or an (L, m) stack, L >= 1")
    if not np.isfinite(stack).all():
        raise InputError("level vectors must be finite")
    box, cone = problem.domain, problem.cone
    members = [[] for _ in stack]
    with np.errstate(over="ignore", invalid="ignore"):
        for pts, start in box.iter_lattice(grid_resolution):
            prods = lattice_image(problem, pts) @ cone.dual_generators.T
            for found, sel in zip(members, _level_members(cone, prods, stack)):
                found.append(start + sel)
    sets = [box.lattice_points_at(grid_resolution, np.concatenate(found)) for found in members]
    return sets if levels.ndim == 2 else sets[0]


# ---------------------------------------------------------------------------
# distance between problems


def _ball_battery(box: Box, anchor, radius):
    """Deterministic probes: anchor, axis extremes, and each box corner
    pulled onto the radius sphere along its ray from the anchor.  For
    norm-type differences centered at the anchor these attain the exact
    sup over ball-intersect-box."""
    rows = [anchor]
    d = box.dim
    for j in range(d):
        for bound in (box.lower[j], box.upper[j]):
            step = np.zeros(d)
            gap = bound - anchor[j]
            if abs(gap) > 0:
                step[j] = np.sign(gap) * min(radius, abs(gap))
                rows.append(anchor + step)
    if d <= 16:
        corners = box.corners()
        rays = corners - anchor[None, :]
        lens = np.linalg.norm(rays, axis=1)
        ok = lens > 0
        scale = np.minimum(radius / lens[ok], 1.0)
        rows.extend(anchor[None, :] + scale[:, None] * rays[ok])
    return np.array(rows)


def function_distance(p: VectorProblem, q: VectorProblem) -> float:
    """Metric between two vector problems sharing a domain box; value in [0, 1].

    The boxes' bounds must be equal, not close: the metric samples p's box.
    A non-finite image at a sample point is refused; a finite sup above
    METRIC_OVERFLOW, or one whose norm overflows, gives 1."""
    if not (np.array_equal(p.domain.lower, q.domain.lower)
            and np.array_equal(p.domain.upper, q.domain.upper)):
        raise InputError("problems must share a domain box")
    box = p.domain
    anchor = box.center

    seeds = np.random.SeedSequence(METRIC_SEED).spawn(METRIC_TRUNCATION)
    total = 0.0
    for i in range(1, METRIC_TRUNCATION + 1):
        radius = float(i)
        probes = _ball_battery(box, anchor, radius)
        rng = np.random.default_rng(seeds[i - 1])
        dirs = rng.standard_normal((METRIC_SAMPLES, box.dim))
        norms = np.linalg.norm(dirs, axis=1)
        norms[norms == 0] = 1.0
        radii = radius * rng.random(METRIC_SAMPLES) ** (1.0 / box.dim)
        samples = box.clip(anchor[None, :] + (radii / norms)[:, None] * dirs)
        pts = np.vstack([probes, samples])
        with np.errstate(over="ignore", invalid="ignore"):
            fp, fq = (finite_values(side.evaluate(pts), "the metric's sample points")
                      for side in (p, q))
            u = float(np.max(row_norm(fp - fq)))
        if not np.isfinite(u) or u > METRIC_OVERFLOW:
            return 1.0
        total += 2.0 ** (-i) * u / (1.0 + u)
    return total
