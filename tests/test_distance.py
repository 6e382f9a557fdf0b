from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wellposed import (
    InputError,
    OrderingCone,
    load_problem,
    oriented_distance,
    oriented_distance_batch,
    oriented_distance_sampled,
    orthant,
    project_dual_cone,
    project_neg_cone,
)

from wellposed import distance
from wellposed.distance import _oriented_distance_upto

from oracles import arc_distance_2d, dense_neg_cone, dual_projection_kkt, orthant_distance

SKEW = OrderingCone(2, [[1.0, 0.0], [1.0, 1.0]])
DIAGNOSE3D = Path(__file__).resolve().parents[1] / "bench" / "diagnose3d.yaml"


def test_projection_clips_orthant():
    c = orthant(2)
    np.testing.assert_allclose(project_neg_cone(c, [1.0, 1.0]), [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(project_neg_cone(c, [1.0, -2.0]), [0.0, -2.0], atol=1e-12)


def test_projection_optimality_against_dense_scan():
    cloud = dense_neg_cone(SKEW.generators)
    rng = np.random.default_rng(1)
    for y in rng.normal(size=(25, 2)) * 2.0:
        p = project_neg_cone(SKEW, y)
        best = np.linalg.norm(cloud - y[None, :], axis=1).min()
        assert np.linalg.norm(y - p) <= best + 1e-6


def test_oriented_distance_fixed_values():
    c = orthant(2)
    assert oriented_distance(c, [1.0, 1.0]).value == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert oriented_distance(c, [-1.0, -1.0]).value == pytest.approx(-1.0, abs=1e-12)
    assert oriented_distance(c, [3.0, -4.0]).value == pytest.approx(3.0, abs=1e-12)
    assert oriented_distance(c, [0.0, -5.0]).value == pytest.approx(0.0, abs=1e-12)


def test_interior_point_reports_active_facet():
    res = oriented_distance(orthant(2), [-2.0, -1.0])
    assert res.value == pytest.approx(-1.0)
    assert res.active_facet is not None


def test_matches_closed_form_on_random_orthant_points():
    c = orthant(3)
    ys = np.random.default_rng(0).normal(size=(400, 3)) * 3.0
    vals = oriented_distance_batch(c, ys)
    want = np.array([orthant_distance(y) for y in ys])
    np.testing.assert_allclose(vals, want, atol=1e-9)


def test_matches_arc_oracle_on_skew_cone():
    ys = np.random.default_rng(2).normal(size=(40, 2)) * 2.0
    for y in ys:
        got = oriented_distance(SKEW, y).value
        assert got == pytest.approx(arc_distance_2d(SKEW.dual_generators, y), abs=1e-7)


def test_sampled_max_is_lower_bound_and_tight():
    c = orthant(2)
    exact = oriented_distance(c, [-1.0, -1.0]).value
    assert oriented_distance_sampled(c, [-1.0, -1.0], np.eye(2)) == pytest.approx(exact)
    s = np.sqrt(0.5)
    got = oriented_distance_sampled(c, [1.0, 1.0], [[1, 0], [0, 1], [s, s]])
    assert got == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_sampled_max_close_below_exact_in_r3():
    c = orthant(3)
    dirs = c.sample_dual_sphere(10_000)
    rng = np.random.default_rng(5)
    for y in rng.normal(size=(50, 3)):
        exact = oriented_distance(c, y).value
        approx = oriented_distance_sampled(c, y, dirs)
        assert exact - 1e-2 <= approx <= exact + 1e-9


@pytest.mark.kernel
def test_batch_agrees_with_single():
    ys = np.random.default_rng(4).normal(size=(128, 2)) * 3.0
    batch = oriented_distance_batch(SKEW, ys)
    singles = np.array([oriented_distance(SKEW, y).value for y in ys])
    np.testing.assert_array_equal(batch, singles)


@pytest.mark.kernel
def test_one_row_batches_give_the_batch_values():
    # a value must not depend on the rows batched with it: the pruned strict
    # efficiency scan projects a subset of each chunk, often a single row
    problem = load_problem(DIAGNOSE3D)
    values = problem.domain.map_lattice(33, problem.evaluate)
    rng = np.random.default_rng(0)
    for x_bar in ([0.0, 0.0, 0.0], [-0.5, -0.5, 0.5]):
        f_bar = problem.evaluate(np.array([x_bar]))[0]
        diff = values - f_bar
        batch = oriented_distance_batch(problem.cone, diff)
        rows = rng.choice(len(diff), 3000, replace=False)
        ones = np.array([oriented_distance_batch(problem.cone, diff[i:i + 1])[0] for i in rows])
        singles = np.array([oriented_distance(problem.cone, diff[i]).value for i in rows])
        assert ones.tobytes() == batch[rows].tobytes()
        assert singles.tobytes() == batch[rows].tobytes()


@pytest.mark.kernel
def test_single_points_and_the_pruned_scan_project_each_row_once(monkeypatch):
    # a single point runs the batch's products and projection on its one row,
    # once for its value and nearest point; the pruned scan is the routine
    # the batch runs, not a second pass over the rows it keeps
    projected = []
    orig = distance._dual_projections

    def counted(cone, points):
        projected.append(len(points))
        return orig(cone, points)

    ys = np.random.default_rng(4).normal(size=(128, 2)) * 3.0
    full = oriented_distance_batch(SKEW, ys)
    monkeypatch.setattr(distance, "_dual_projections", counted)
    y = np.array([3.0, -4.0])  # outside -C
    res = oriented_distance(SKEW, y)
    assert projected == [1]
    assert res.value == oriented_distance_batch(SKEW, y[None, :])[0] > 0
    assert res.nearest_point.tobytes() == project_neg_cone(SKEW, y).tobytes()

    def reentered(*args):
        raise AssertionError("the pruned scan re-entered oriented_distance_batch")

    monkeypatch.setattr(distance, "oriented_distance_batch", reentered)
    assert _oriented_distance_upto(SKEW, ys, np.inf).tobytes() == full.tobytes()
    pruned = _oriented_distance_upto(SKEW, ys, 0.0)
    assert pruned[np.isfinite(pruned)].tobytes() == full[np.isfinite(pruned)].tobytes()


def test_single_points_must_be_finite():
    for bad in ([np.nan, 1.0], [np.inf, -1.0], [-np.inf, -1.0]):
        for single in (oriented_distance, project_dual_cone, project_neg_cone):
            with pytest.raises(InputError, match="finite"):
                single(SKEW, bad)


def _structured_points(cone, rng):
    """Test rows for a cone, in two groups.

    The first group holds generic points, points in -C, points in C* and
    points on every proper face of C*.  The second holds points p - t*g for
    a face support S, p in cone(S) and a primal generator g orthogonal to
    S: their projection onto C* is p, so they reach the face-support stage
    with a known answer, returned as the third item.
    """
    duals, gens = cone.dual_generators, cone.generators
    plain = [rng.normal(size=(20, cone.ambient_dim)) * 3.0,
             -rng.uniform(0.1, 2.0, size=(5, len(gens))) @ gens,
             rng.uniform(0.1, 2.0, size=(5, len(duals))) @ duals]
    outside, norms = [np.empty((0, cone.ambient_dim))], [np.empty(0)]
    for support, _, face, _ in cone.dual_faces:
        p = rng.uniform(0.1, 2.0, size=(2, len(support))) @ face
        plain.append(p)
        orthogonal = np.abs(gens @ face.T).max(axis=1) <= 1e-9 * np.linalg.norm(gens, axis=1)
        for g in gens[orthogonal]:
            outside.append(p - rng.uniform(0.1, 2.0, size=(2, 1)) * g)
            norms.append(np.linalg.norm(p, axis=1))
    return np.vstack(plain), np.vstack(outside), np.concatenate(norms)


def _random_cone(m, data):
    """A solid pointed cone in R^m from small integer generators."""
    n = data.draw(st.integers(m, 8))
    # a positive first coordinate on every generator makes the cone pointed
    first = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    rest = data.draw(st.lists(st.integers(-3, 3), min_size=n * (m - 1), max_size=n * (m - 1)))
    gens = np.column_stack([first, np.reshape(rest, (n, m - 1))]).astype(float)
    try:
        return OrderingCone(m, gens)
    except InputError:
        assume(False)  # not solid


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 4), st.data())
def test_projection_is_kkt_optimal_on_random_cones(m, data):
    cone = _random_cone(m, data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    plain, outside, norms = _structured_points(cone, rng)
    np.testing.assert_allclose(oriented_distance_batch(cone, outside), norms, rtol=0, atol=1e-12)
    for scale in (1.0, 1e8, 1e12):
        ys = np.vstack([plain, outside]) * scale
        qs = np.array([project_dual_cone(cone, y) for y in ys])
        for y, q in zip(ys, qs):
            dual, primal, slack = dual_projection_kkt(cone.dual_generators, cone.generators, y, q)
            size = 1.0 + np.linalg.norm(y)
            assert dual <= 1e-12 * size and primal <= 1e-12 * size
            assert slack <= 1e-12 * size**2
        off = (ys @ cone.dual_generators.T).max(axis=1) > cone.tol
        batch = oriented_distance_batch(cone, ys)
        np.testing.assert_array_equal(batch[off], np.linalg.norm(qs[off], axis=1))


@pytest.mark.kernel
@settings(deadline=None, max_examples=60)
@given(st.integers(2, 4), st.data())
def test_pruned_batch_is_exact_where_it_keeps_rows(m, data):
    # the value is at least the largest facet margin less the certificate
    # tolerance, so a row whose margin is above level + 2 * tolerance is
    # above level; every kept row gets the full batch's bits
    cone = _random_cone(m, data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    plain, outside, _ = _structured_points(cone, rng)
    for scale in (1.0, 1e8, 1e12):
        ys = np.vstack([plain, outside]) * scale
        full = oriented_distance_batch(cone, ys)
        margins = (ys @ cone.dual_generators.T).max(axis=1)
        slack = 2.0 * max(cone.tol, 1e-10) * np.maximum(1.0, np.linalg.norm(ys, axis=1))
        assert np.all(full >= margins - slack / 2)
        for level in (2.0 ** -20, 0.0, float(np.median(full)), float(full.min()), float(full.max())):
            for size in (1, 2, len(ys)):
                rows = np.sort(rng.choice(len(ys), size, replace=False))
                got = _oriented_distance_upto(cone, ys[rows], level)
                kept = np.isfinite(got)
                np.testing.assert_array_equal(kept, margins[rows] <= level + slack[rows])
                assert got[kept].tobytes() == full[rows][kept].tobytes()
                assert np.all(full[rows][~kept] > level)


@pytest.mark.parametrize("gens", [
    [[1.0, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [1.0, 1.0]],
    [[1.0, 0.0], [1.0, 2.0]],
    [[1.0, 0.1], [-1.0, 0.1]],
    [[1.0, 0.0], [1.0, 0.05], [0.5, 1.0]],
])
def test_batch_matches_arc_oracle_in_the_plane(gens):
    cone = OrderingCone(2, gens)
    ys = np.random.default_rng(8).normal(size=(30, 2)) * 2.0
    want = np.array([arc_distance_2d(cone.dual_generators, y) for y in ys])
    np.testing.assert_allclose(oriented_distance_batch(cone, ys), want, rtol=0, atol=1e-9)


def test_diagnose3d_batch_is_fully_certified():
    # a row the certificate leaves open raises NumericalFailure
    problem = load_problem(DIAGNOSE3D)
    values = problem.domain.map_lattice(33, problem.evaluate)
    for x_bar in ([0.0, 0.0, 0.0], [-0.5, -0.5, 0.5]):
        f_bar = problem.evaluate(np.array([x_bar]))[0]
        assert np.isfinite(oriented_distance_batch(problem.cone, values - f_bar)).all()


def test_degenerate_point_gets_the_exact_projection():
    # a tie on which a nonnegative least squares solve returned 1.02896
    cone = OrderingCone(4, [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 2]])
    y = (-1.5670524436863107, -0.3663862698751871, -2.2998249834366846, -0.18319313493759345)
    assert oriented_distance(cone, y).value == pytest.approx(0.6605122413304866, abs=1e-12)


@settings(deadline=None, max_examples=80)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       st.lists(st.floats(-5, 5), min_size=2, max_size=2))
def test_one_lipschitz(y1, y2):
    a = oriented_distance(SKEW, y1).value
    b = oriented_distance(SKEW, y2).value
    assert abs(a - b) <= np.linalg.norm(np.subtract(y1, y2)) + 1e-9


@settings(deadline=None, max_examples=80)
@given(st.lists(st.floats(-4, 4), min_size=3, max_size=3),
       st.sampled_from([0.5, 2.0, 10.0]))
def test_positive_homogeneity(y, lam):
    c = orthant(3)
    base = oriented_distance(c, y).value
    scaled = oriented_distance(c, lam * np.asarray(y)).value
    assert scaled == pytest.approx(lam * base, abs=1e-9 * (1 + lam))


def test_sign_trichotomy_constructed():
    c = orthant(2)
    assert oriented_distance(c, [-0.5, -0.5]).value < 0  # interior of -C
    assert oriented_distance(c, [0.2, -1.0]).value > 0  # exterior
    # boundary: conic combination of one facet's span
    assert abs(oriented_distance(c, [-3.0, 0.0]).value) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=2),
       st.lists(st.floats(-3, 3), min_size=2, max_size=2))
def test_midpoint_convexity(y1, y2):
    mid = 0.5 * (np.asarray(y1) + np.asarray(y2))
    d_mid = oriented_distance(SKEW, mid).value
    avg = 0.5 * (oriented_distance(SKEW, y1).value + oriented_distance(SKEW, y2).value)
    assert d_mid <= avg + 1e-9


def test_rejects_dimension_mismatch():
    with pytest.raises(InputError):
        oriented_distance(orthant(2), [1.0, 2.0, 3.0])
    with pytest.raises(InputError):
        oriented_distance_sampled(orthant(2), [1.0, 2.0], np.empty((0, 2)))
