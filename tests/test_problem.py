from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from wellposed import (
    Box,
    InputError,
    NotInteriorPoint,
    VectorProblem,
    diameter,
    function_distance,
    level_set,
    load_problem,
    orthant,
    perturb,
    registry,
    scalarize_linear,
    scalarize_oriented,
)

from wellposed import problem as problem_module
from wellposed.diagnostics import DEFAULT_ALPHA_SCHEDULE
from wellposed.problem import (
    _DIRECT_DIAMETER_MAX,
    CHUNK,
    LATTICE_CAP,
    METRIC_TAIL,
    METRIC_TRUNCATION,
    _off_line_ends,
    _pairwise_max,
)

from oracles import (
    brute_max_distance,
    exact_level_members,
    metric_series,
    rank_one_extent,
    span_coords,
)


def vec_problem(fn, m, lower, upper, label="p", cone=None):
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    return VectorProblem(label=label, decision_dim=lower.size, objective_dim=m,
                         evaluator=fn, domain=Box(lower, np.atleast_1d(upper)),
                         cone=cone or orthant(m))


def quad_pair():
    return vec_problem(lambda x: np.stack([x[:, 0] ** 2, x[:, 0] ** 2], axis=1),
                       2, [-2.0], [2.0])


def test_box_lattice_geometry():
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert box.lattice_size(21) == 441
    # spacing is the cell diagonal, the worst-case snap distance
    assert box.lattice_spacing(21) == pytest.approx(0.1 * np.sqrt(2.0))
    pts = box.lattice(21)
    assert pts.shape == (441, 2)
    np.testing.assert_allclose(pts.min(axis=0), [-1.0, -1.0])
    np.testing.assert_allclose(pts.max(axis=0), [1.0, 1.0])


def test_map_lattice_across_chunks_matches_one_call():
    box = Box(np.array([-1.0, -2.0]), np.array([3.0, 1.0]))
    assert box.lattice_size(513) > CHUNK  # two chunks
    pts = box.lattice(513)

    def scalar(x):
        return x[:, 0] * x[:, 1] ** 2 - 3.0 * x[:, 0]

    def rows(x):
        return np.stack([x[:, 0] * x[:, 1], x[:, 1] ** 2, x[:, 0] - x[:, 1]], axis=1)

    got = box.map_lattice(513, scalar)
    assert got.shape == (pts.shape[0],)
    assert np.array_equal(got, scalar(pts))
    got = box.map_lattice(513, rows)
    assert got.shape == (pts.shape[0], 3)
    assert np.array_equal(got, rows(pts))


def test_lattice_pass_above_the_point_budget_is_refused_before_its_first_chunk():
    # 100,000^2 = 10^10 points: streamed in 262,144-point chunks, it would
    # never end
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    chunks = box.iter_lattice(100_000)
    with pytest.raises(InputError, match="exceeds the budget"):
        next(chunks)
    with pytest.raises(InputError, match="exceeds the budget"):
        box.map_lattice(100_000, lambda pts: pts[:, 0])


def test_nearest_lattice_point_snaps():
    box = Box(np.array([-1.0]), np.array([1.0]))
    x, flat = box.nearest_lattice_point(21, [0.13])
    np.testing.assert_allclose(x, [0.1])
    np.testing.assert_allclose(box.lattice_points_at(21, [flat])[0], x)
    with pytest.raises(InputError, match="grid resolution must be >= 2"):
        box.nearest_lattice_point(1, [0.13])  # a step of 2/0 would snap to NaN


@pytest.mark.kernel
@settings(deadline=None, max_examples=300)
@given(st.integers(1, 3), st.integers(2, 400), st.sampled_from(("upper", "lower", "inside")),
       st.data())
def test_nearest_lattice_point_is_the_lattice_point_of_its_index(d, res, where, data):
    # the snapped point must have the bits of the lattice's own point (the
    # linspace axes), not of lower + steps * h, which can miss it by an ulp
    coord = st.floats(-1e3, 1e3, allow_nan=False)
    lower = np.array(data.draw(st.lists(coord, min_size=d, max_size=d)))
    width = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d)))
    box = Box(lower, lower + width)
    if where == "inside":
        t = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
        x = box.lower + t * (box.upper - box.lower)
    else:
        x = getattr(box, where)
    point, flat = box.nearest_lattice_point(res, x)
    assert point.tobytes() == box.lattice_points_at(res, [flat])[0].tobytes()


def test_box_membership_allows_a_fixed_slack():
    box = Box(np.array([-1.0]), np.array([1.0]))
    assert box.contains([1.0 + 0.5e-9]) and box.contains([-1.0 - 0.5e-9])
    assert not box.contains([1.0 + 2e-9]) and not box.contains([-1.0 - 2e-9])


@pytest.mark.parametrize("n", [5, _DIRECT_DIAMETER_MAX + 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_diameter_refuses_non_finite_rows(n, bad):
    # the pair sweep would return nan and the projection's SVD would fail to
    # converge; both sizes refuse before either route runs
    pts = np.random.default_rng(0).normal(size=(n, 3))
    pts[n // 2, 1] = bad
    with pytest.raises(InputError, match="finite"):
        diameter(pts)
    with pytest.raises(InputError, match="finite"):
        diameter(pts[n // 2:n // 2 + 1])  # one row too


def test_diameter_fixed_values():
    assert diameter(np.array([[0.0, 0.0], [3.0, 4.0]])) == pytest.approx(5.0)
    assert diameter(np.array([[2.0, 7.0]])) == 0.0
    assert diameter(np.empty((0, 2))) == 0.0


@settings(deadline=None, max_examples=100)
@given(st.integers(-8, 8), st.integers(2, _DIRECT_DIAMETER_MAX), st.integers(0, 2**32 - 1))
def test_one_dimensional_diameter_matches_pdist_bit_for_bit(exponent, n, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** exponent
    for x in (rng.normal(size=(n, 1)) * scale + rng.normal() * scale,
              np.linspace(-scale, 3 * scale, n)[:, None],
              np.full((n, 1), rng.normal() * scale)):
        assert diameter(x) == float(pdist(x).max())
    assert diameter(np.array([[scale]])) == 0.0


def test_diameter_of_square_lattice_is_corner_pair():
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert diameter(box.lattice(21)) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)


def test_diameter_dense_cloud_matches_the_pair_maximum():
    # above the pairwise-distance cutoff the pruned sweep in the projected
    # coordinates must give the maximum over every pair
    rng = np.random.default_rng(0)
    cloud = rng.normal(size=(5000, 2))
    far = np.linalg.norm(cloud[:, None, :2] - cloud[None, :500, :2], axis=2).max()
    assert diameter(cloud) >= far - 1e-12
    assert diameter(cloud) == brute_max_distance(span_coords(cloud))


@pytest.mark.kernel
def test_projecting_only_the_kept_ends_gives_the_full_projection_bits():
    # diameter projects only the rows _off_line_ends keeps; each must get
    # the bits the projection of every row gives it
    rng = np.random.default_rng(11)
    sets = [pts for seed in range(2) for pts in lattice_subsets(seed)]
    sets += [rng.standard_normal((3100, d)) * 10.0 ** rng.uniform(-3, 3) for d in (2, 3, 4, 6)]
    for pts in sets:
        keep = _off_line_ends(pts)
        centered = pts - pts.mean(axis=0)
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        rank = int(np.sum(s > max(s[0], 1.0) * 1e-12))
        full = span_coords(pts)
        assert full.shape[1] == rank >= 2
        assert (centered[keep] @ vt[:rank].T).tobytes() == full[keep].tobytes()
        assert diameter(pts) == _pairwise_max(full[keep])


@pytest.mark.kernel
@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(_DIRECT_DIAMETER_MAX + 1, 9000), st.booleans(),
       st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_rank_one_sets_measure_as_the_projection_of_every_row(d, n, along_last, rounded,
                                                              ordered, seed):
    # rank-1 sets take the general route: only the kept line ends are
    # projected, and the extent must keep the bits of projecting every row
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
    step = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
    if along_last:  # every row shares its leading coordinates: one long run to drop
        step[:-1] = 0.0
    t = rng.uniform(-1.0, 1.0, n)
    if rounded:  # repeated, evenly spaced parameters, as on a lattice line
        t = np.round(t, 2)
    if ordered:
        t.sort()
    pts = start + t[:, None] * step
    assume(span_coords(pts).shape[1] == 1)
    assert diameter(pts) == rank_one_extent(pts)


def test_diameter_of_many_identical_rows_is_zero():
    # exactly representable rows: their mean, and so every centred row, is exact
    pts = np.tile([0.5, -0.75, 3.0], (_DIRECT_DIAMETER_MAX + 1, 1))
    assert span_coords(pts).shape[1] == 0
    assert diameter(pts) == 0.0


def test_diameter_of_many_collinear_rows_is_their_span_extent():
    t = np.linspace(-1.0, 2.5, _DIRECT_DIAMETER_MAX + 7)[:, None]
    pts = np.array([0.2, -1.0, 0.5]) + t * np.array([0.3, 1.7, -0.9])
    coords = span_coords(pts)
    assert coords.shape[1] == 1
    assert diameter(pts) == float(coords.max() - coords.min())
    assert diameter(pts) == pytest.approx(3.5 * np.linalg.norm([0.3, 1.7, -0.9]), rel=1e-14)


def assert_endpoint_reduction_exact(monkeypatch, points, brute=True):
    got = diameter(points)
    with monkeypatch.context() as m:
        m.setattr(problem_module, "_off_line_ends", lambda p: np.ones(len(p), dtype=bool))
        assert got == diameter(points)  # the unreduced route, bit for bit
    if brute:
        # every pair, in the coordinates the projected route measures in
        assert got == brute_max_distance(span_coords(points))
        # and in the original coordinates, up to the rounding of the rotation
        assert abs(got - brute_max_distance(points)) <= 1e-14 * got


def lattice_subsets(seed):
    """Lattice points inside random balls, in flat-index order."""
    rng = np.random.default_rng(seed)
    for d, res in ((2, 81), (3, 19), (4, 9)):
        box = Box(-rng.uniform(0.5, 2.0, d), rng.uniform(0.5, 2.0, d))
        lattice = box.lattice(res)
        centre = box.lower + rng.random(d) * (box.upper - box.lower)
        r = np.linalg.norm(lattice - centre, axis=1)
        yield lattice[r <= np.quantile(r, rng.uniform(0.6, 0.9))]


@pytest.mark.parametrize("seed", range(3))
def test_line_endpoint_reduction_keeps_diameter_on_lattice_subsets(monkeypatch, seed):
    rng = np.random.default_rng(100 + seed)
    for pts in lattice_subsets(seed):
        assert pts.shape[0] > _DIRECT_DIAMETER_MAX
        assert _off_line_ends(pts).sum() < pts.shape[0] // 2  # the reduction is active
        plateau = pts.copy()
        plateau[:, -1] = np.minimum(plateau[:, -1], np.median(plateau[:, -1]))
        for variant in (pts, pts[rng.permutation(len(pts))], plateau):
            assert_endpoint_reduction_exact(monkeypatch, variant)
        for doubled in (np.repeat(pts, 2, axis=0), np.tile(pts, (2, 1))):
            assert_endpoint_reduction_exact(monkeypatch, doubled, brute=False)


def test_line_endpoint_reduction_keeps_diameter_on_planes_in_r3(monkeypatch):
    u, w = np.meshgrid(np.linspace(-1, 1, 61), np.linspace(0, 2, 71), indexing="ij")
    slanted = np.stack([u.ravel(), 2 * u.ravel(), w.ravel()], axis=1)  # lines along x3 kept
    flat = np.stack([u.ravel(), w.ravel(), np.full(u.size, 0.5)], axis=1)
    for pts in (slanted, flat, slanted[np.hypot(u.ravel(), w.ravel() - 1) <= 1]):
        assert span_coords(pts).shape[1] == 2
        assert_endpoint_reduction_exact(monkeypatch, pts)
    assert _off_line_ends(slanted).sum() == 2 * 61
    assert _off_line_ends(flat).all()  # no last coordinate lies strictly between


def test_line_endpoint_reduction_keeps_hilbert_level_diameters(monkeypatch):
    sp = registry.hilbert_scalar(4)
    values = sp.domain.map_lattice(21, sp.evaluate)
    for off in DEFAULT_ALPHA_SCHEDULE:
        sel = np.flatnonzero(values <= values.min() + off)
        if sel.size > _DIRECT_DIAMETER_MAX:
            pts = sp.domain.lattice_points_at(21, sel)
            assert_endpoint_reduction_exact(monkeypatch, pts, brute=sel.size <= 6000)


def test_off_line_ends_drops_only_points_strictly_between_neighbours():
    pts = np.array([[0, 0], [0, 1], [0, 2], [0, 2], [0, 3], [1, 3], [1, 1], [1, 2],
                    [1, 0], [2, 5]], dtype=float)
    np.testing.assert_array_equal(
        _off_line_ends(pts), [1, 0, 1, 1, 1, 1, 1, 1, 1, 1])
    np.testing.assert_array_equal(_off_line_ends(pts[::-1]), [1, 1, 1, 1, 1, 1, 1, 1, 0, 1])


def test_perturbation_fixed_value():
    p = vec_problem(lambda x: np.zeros((x.shape[0], 2)), 2, [-5.0, -5.0], [5.0, 5.0])
    q = perturb(p, 1.0, np.zeros(2), np.array([1.0, 1.0]))
    np.testing.assert_allclose(q.evaluate_one([3.0, 4.0]), [5.0, 5.0], atol=1e-12)


def test_perturbation_vanishes_at_center():
    p = quad_pair()
    q = perturb(p, 0.5, np.array([0.3]), p.cone.k0)
    np.testing.assert_allclose(q.evaluate_one([0.3]), p.evaluate_one([0.3]), atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.floats(-2, 2), st.floats(0.1, 2), st.floats(0.1, 2))
def test_double_perturbation_adds(x, a1, a2):
    p = quad_pair()
    c = np.array([0.0])
    one = perturb(perturb(p, a1, c, p.cone.k0), a2, c, p.cone.k0)
    two = perturb(p, a1 + a2, c, p.cone.k0)
    np.testing.assert_allclose(one.evaluate_one([x]), two.evaluate_one([x]), atol=1e-9)


def test_perturbation_moves_along_interior():
    p = quad_pair()
    q = perturb(p, 1.0, np.array([0.0]), p.cone.k0)
    x = np.array([[1.3]])
    delta = q.evaluate(x) - p.evaluate(x)
    assert p.cone.contains(delta[0], strict=True)


@pytest.mark.parametrize("args, error, message", [
    ((-0.5, [0.0], [1.0, 1.0]), InputError, "amplitude must be >= 0"),
    ((np.nan, [0.0], [1.0, 1.0]), InputError, "amplitude must be >= 0"),
    ((0.5, [0.0, 0.0], [1.0, 1.0]), InputError, "center dimension mismatch"),
    ((0.5, [0.0], [1.0, 1.0, 1.0]), InputError, "direction dimension mismatch"),
    ((0.5, [0.0], [1.0, 0.0]), NotInteriorPoint, "strictly interior"),
    # a non-finite center makes every image NaN or inf, and a non-finite
    # amplitude or direction the image at the center (0 * inf); only a later
    # scan would fail on them
    ((1.0, [np.nan], [1.0, 1.0]), InputError, "center must be finite"),
    ((1.0, [np.inf], [1.0, 1.0]), InputError, "center must be finite"),
    ((1.0, [0.0], [np.inf, 1.0]), InputError, "direction must be finite"),
    ((np.inf, [0.0], [1.0, 1.0]), InputError, "amplitude must be >= 0 and finite"),
])
def test_perturb_refuses_bad_terms(args, error, message):
    with pytest.raises(error, match=message):
        perturb(quad_pair(), *args)


def test_perturb_keeps_its_own_center_and_direction():
    p = quad_pair()
    center, direction = np.array([0.5]), np.array([1.0, 2.0])
    q = perturb(p, 1.0, center, direction)
    center[0], direction[:] = -1.0, 5.0
    np.testing.assert_array_equal(q.evaluate_one([1.5]), p.evaluate_one([1.5]) + [1.0, 2.0])


@pytest.mark.parametrize("xi", [[np.nan, 1.0], [np.inf, 1.0]])
def test_non_finite_xi_is_refused_by_name(xi):
    # the scans once blamed the objective for a NaN xi
    with pytest.raises(InputError, match="^xi must be finite"):
        scalarize_linear(quad_pair(), xi)


def test_scalarize_linear_selects_coordinate():
    p = vec_problem(lambda x: np.stack([x[:, 0], x[:, 0] ** 2], axis=1), 2, [-2.0], [2.0])
    sp = scalarize_linear(p, [0.0, 1.0])
    xs = np.linspace(-2, 2, 11)[:, None]
    np.testing.assert_allclose(sp.evaluate(xs), xs[:, 0] ** 2, atol=1e-12)


def test_scalarize_linear_on_exponential_pair():
    p = vec_problem(lambda x: np.stack([x[:, 0], -x[:, 0] * np.exp(x[:, 0])], axis=1),
                    2, [-3.0], [3.0])
    sp = scalarize_linear(p, [1.0, 1.0])
    xs = np.linspace(-3, 3, 13)[:, None]
    np.testing.assert_allclose(sp.evaluate(xs), xs[:, 0] - xs[:, 0] * np.exp(xs[:, 0]))


def test_scalarize_linear_is_linear_in_xi():
    p = quad_pair()
    xs = np.linspace(-2, 2, 9)[:, None]
    s1 = scalarize_linear(p, [1.0, 0.0]).evaluate(xs)
    s2 = scalarize_linear(p, [0.0, 1.0]).evaluate(xs)
    s12 = scalarize_linear(p, [1.0, 1.0]).evaluate(xs)
    np.testing.assert_allclose(s12, s1 + s2, atol=1e-12)


def test_scalarize_oriented_zero_at_center_and_closed_form():
    p = quad_pair()
    sp = scalarize_oriented(p, [0.0])
    assert sp.evaluate_one([0.0]) == pytest.approx(0.0, abs=1e-12)
    xs = np.linspace(-2, 2, 41)[:, None]
    np.testing.assert_allclose(sp.evaluate(xs), xs[:, 0] ** 2 * np.sqrt(2.0), atol=1e-9)


def test_scalarize_oriented_midpoint_convex_for_cone_convex_f():
    p = quad_pair()
    sp = scalarize_oriented(p, [0.5])
    rng = np.random.default_rng(8)
    a, b = rng.uniform(-2, 2, size=(2, 200))
    va = sp.evaluate(a[:, None])
    vb = sp.evaluate(b[:, None])
    vm = sp.evaluate(((a + b) / 2)[:, None])
    assert (vm <= 0.5 * (va + vb) + 1e-9).all()


def test_level_set_quadratic_interval():
    p = vec_problem(lambda x: x[:, :1] ** 2, 1, [-2.0], [2.0], cone=orthant(1))
    pts = level_set(p, [1.0], 201)
    assert abs(pts).max() <= 1.0 + 1e-12
    assert pts.shape == (101, 1)  # lattice spacing 0.02 inside [-1, 1]


def test_level_set_of_zero_function_is_everything():
    p = vec_problem(lambda x: np.zeros((x.shape[0], 2)), 2, [-1.0], [1.0])
    assert level_set(p, [0.0, 0.0], 51).shape == (51, 1)


@pytest.mark.parametrize("alpha", [0.25, 1.0])
def test_level_set_quad_pair_square_root_window(alpha):
    pts = level_set(quad_pair(), [alpha, alpha], 201)
    assert abs(pts).max() <= np.sqrt(alpha) + 1e-12
    assert abs(pts).max() >= np.sqrt(alpha) - 0.02 - 1e-12


def test_level_set_refuses_nan_lattice_images():
    # a NaN image compares false everywhere, so unchecked its point would silently drop out
    p = vec_problem(lambda x: np.where(x[:, :1] > 0.9, np.nan, x[:, :1] ** 2) * [1.0, 1.0],
                    2, [-1.0], [1.0])
    with pytest.raises(InputError, match="objective must be finite on the lattice"):
        level_set(p, [1.0, 1.0], 201)


def test_level_set_monotone_in_cone_order():
    p = quad_pair()
    small = level_set(p, [0.3, 0.3], 101)
    large = level_set(p, [0.3 + 0.5, 0.3 + 0.7], 101)  # shift by a cone element
    small_rows = {tuple(r) for r in np.round(small, 9)}
    large_rows = {tuple(r) for r in np.round(large, 9)}
    assert small_rows <= large_rows


@pytest.mark.parametrize("y", [[np.inf, np.inf], [np.nan, 0.0], [np.inf, 0.25],
                               [[0.25, 0.25], [np.inf, 0.25]]])
def test_level_set_refuses_non_finite_levels(y):
    # every image lies below +inf: an empty answer would come from a dropped level
    with pytest.raises(InputError, match="level vectors must be finite"):
        level_set(registry.get("quad-pair").build(), y, 21)


@pytest.mark.parametrize("y", [np.empty((0, 2)), np.zeros((1, 1, 2)), [0.25],
                               [[0.25, 0.25, 0.25]]])
def test_level_set_refuses_malformed_level_stacks(y):
    with pytest.raises(InputError, match=r"an \(m,\) level vector or an \(L, m\) stack"):
        level_set(registry.get("quad-pair").build(), y, 21)


def _dh_levels(label):
    """The DH levels f(x_bar) + alpha*c of every battery direction, one stack each."""
    if label == "diagnose-3d":
        problem = load_problem(Path(__file__).resolve().parents[1] / "bench" / "diagnose3d.yaml")
        x_bar = (0.0, 0.0, 0.0)
    else:
        problem, x_bar = registry.get(label).build(), registry.get(label).designated
    f_bar = problem.evaluate_one(x_bar)
    return problem, [f_bar + DEFAULT_ALPHA_SCHEDULE[:, None] * c
                     for c in problem.cone.interior_direction_battery()]


@pytest.mark.kernel
@pytest.mark.parametrize("label", registry.labels() + ("diagnose-3d",))
def test_stacked_levels_equal_one_pass_per_level(label):
    # one lattice pass tests every level of a stack with the same membership
    # test on the same image bits as a pass of its own; reversed levels grow,
    # and two directions' stacks back to back jump up, so there the nested
    # walk has to test a level on every row
    problem, stacks = _dh_levels(label)
    for stack in stacks + [stacks[0][::-1], np.vstack(stacks[-2:])]:
        got = level_set(problem, stack, 41)
        assert len(got) == stack.shape[0]
        for pts, y in zip(got, stack):
            assert pts.tobytes() == level_set(problem, y, 41).tobytes()


@pytest.mark.kernel
@pytest.mark.parametrize("label", registry.labels() + ("diagnose-3d",))
def test_level_sets_match_the_exact_membership_oracle(label):
    # every row whose exact margin is not within rounding reach of -tol must
    # be decided as exact arithmetic on the same float images decides it
    problem, stacks = _dh_levels(label)
    resolution = 11 if problem.decision_dim >= 3 else 21
    lattice = problem.domain.lattice(resolution)
    index = {row.tobytes(): i for i, row in enumerate(lattice)}
    images, cone = problem.evaluate(lattice), problem.cone
    decided_members = 0
    for stack in stacks:
        want, undecided = exact_level_members(images, stack, cone.dual_generators, cone.tol)
        for pts, member, skip in zip(level_set(problem, stack, resolution), want, undecided):
            got = np.zeros(len(lattice), dtype=bool)
            got[[index[row.tobytes()] for row in pts]] = True
            np.testing.assert_array_equal(got[~skip], member[~skip])
            decided_members += int(np.sum(member & ~skip))
    assert decided_members > 0


@pytest.mark.kernel
def test_stacked_levels_equal_one_pass_per_level_above_the_store_cap():
    problem = registry.get("quad-pair").build()
    stack = np.array([[0.25, 0.25], [1e-4, 2e-4], [0.0, 0.0]])
    got = level_set(problem, stack, LATTICE_CAP + 1)  # several chunks
    sizes = [pts.shape[0] for pts in got]
    assert sizes == sorted(set(sizes), reverse=True) and sizes[-1] > 0  # x = 0 in every level
    for pts, y in zip(got, stack):
        assert pts.tobytes() == level_set(problem, y, LATTICE_CAP + 1).tobytes()


def test_function_distance_identical_is_zero():
    p = quad_pair()
    assert function_distance(p, p) == 0.0


def test_function_distance_constant_difference_frozen():
    p = quad_pair()
    shift = np.array([0.3, -0.4])
    q = VectorProblem(label="q", decision_dim=1, objective_dim=2,
                      evaluator=lambda x: p.evaluate(x) + shift[None, :],
                      domain=p.domain, cone=p.cone)
    # ||v||=0.5 -> 0.5/1.5 * (1 - 2^-20)
    assert function_distance(p, q) == pytest.approx(0.33333301544189453, abs=1e-9)


def test_function_distance_refuses_boxes_that_are_only_close():
    # np.allclose once accepted a box wider by 1e-5, where the metric read 0,
    # and broadcast a one-coordinate bound against a two-coordinate one
    p = registry.get("quad-pair").build()
    wider = replace(p, domain=Box(p.domain.lower, p.domain.upper + 1e-5))
    line = vec_problem(lambda x: np.zeros((x.shape[0], 2)), 2, [-1.0], [1.0])
    square = vec_problem(lambda x: np.zeros((x.shape[0], 2)), 2, [-1.0, -1.0], [1.0, 1.0])
    for a, b in ((p, wider), (line, square), (square, line)):
        with pytest.raises(InputError, match="problems must share a domain box"):
            function_distance(a, b)


def test_function_distance_refuses_nan_at_its_sample_points():
    # (sqrt(x), -x) is NaN on the left half of the shared box
    p = quad_pair()
    q = vec_problem(lambda x: np.stack([np.sqrt(x[:, 0]), -x[:, 0]], axis=1), 2, [-2.0], [2.0])
    with pytest.raises(InputError, match="objective must be finite on the metric's sample points"):
        function_distance(p, q)


def test_function_distance_norm_cone_series_frozen():
    f = vec_problem(lambda x: np.zeros((x.shape[0], 2)), 2, [-20.0], [20.0])
    g = perturb(f, 0.25, np.array([0.0]), np.array([1.0, 1.0]))
    want = metric_series([i * np.sqrt(2.0) / 4.0 for i in range(1, 21)])
    assert want == pytest.approx(0.37717069535786457, abs=1e-15)
    assert function_distance(f, g) == pytest.approx(want, abs=1e-9)


def test_function_distance_symmetric_and_triangle():
    base = quad_pair()
    rng = np.random.default_rng(11)
    probs = []
    for _ in range(3):
        shift = rng.normal(size=2)
        probs.append(VectorProblem(
            label="t", decision_dim=1, objective_dim=2,
            evaluator=(lambda s: lambda x: base.evaluate(x) + s[None, :])(shift),
            domain=base.domain, cone=base.cone))
    d01 = function_distance(probs[0], probs[1])
    assert d01 == function_distance(probs[1], probs[0])
    d12 = function_distance(probs[1], probs[2])
    d02 = function_distance(probs[0], probs[2])
    assert d02 <= d01 + d12 + 2 * METRIC_TAIL


def test_function_distance_overflow_maps_to_one():
    f = vec_problem(lambda x: np.zeros((x.shape[0], 2)), 2, [-3.0], [3.0])
    g = vec_problem(lambda x: np.full((x.shape[0], 2), 1e13), 2, [-3.0], [3.0])
    assert function_distance(f, g) == 1.0


def test_metric_tail_is_two_to_minus_truncation():
    assert METRIC_TRUNCATION == 20
    assert METRIC_TAIL == 2.0 ** -METRIC_TRUNCATION
