import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wellposed import (
    Box,
    HypothesisNotMet,
    INCONCLUSIVE,
    InputError,
    NO,
    NOT_WELL_POSED,
    OrderingCone,
    VectorProblem,
    WELL_POSED,
    YES,
    classify_point,
    dh_diagnostic,
    dh_via_scalarization,
    geometric_schedule,
    load_problem,
    oriented_distance_batch,
    orthant,
    problem_from_mapping,
    registry,
    scalarize_linear,
    tykhonov_diagnostic,
    weff_via_distance,
)
from wellposed import diagnostics as diagnostics_module
from wellposed import distance as distance_module
from wellposed.diagnostics import DECAY_RATIO, DEFAULT_ALPHA_SCHEDULE, STRICT_DELTA, TOL_ABS
from wellposed.distance import _oriented_distance_upto
from wellposed.problem import LATTICE_CAP, _nested_members

from oracles import (
    dominated_on_lattice,
    orthant_dom_witness,
    orthant_weak_witness,
    weakly_efficient_by_distance_image,
)

DIAGNOSE3D = Path(__file__).resolve().parents[1] / "bench" / "diagnose3d.yaml"


def prob(fn, m, lower, upper, label="p"):
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    return VectorProblem(label=label, decision_dim=lower.size, objective_dim=m,
                         evaluator=fn, domain=Box(lower, np.atleast_1d(upper)),
                         cone=orthant(m))


def quad_pair():
    return prob(lambda x: np.stack([x[:, 0] ** 2, x[:, 0] ** 2], axis=1), 2, [-2.0], [2.0])


def zero_fn():
    return prob(lambda x: np.zeros((x.shape[0], 2)), 2, [-1.0], [1.0])


def x_neg_xex():
    return prob(lambda x: np.stack([x[:, 0], -x[:, 0] * np.exp(x[:, 0])], axis=1),
                2, [-3.0], [3.0])


def test_schedule_is_decreasing_powers():
    s = geometric_schedule(4)
    np.testing.assert_allclose(s, [1.0, 0.5, 0.25, 0.125, 0.0625])


def test_schedule_starts_at_one_and_refuses_negative_depth():
    np.testing.assert_array_equal(geometric_schedule(0), [1.0])
    with pytest.raises(InputError, match="stop_power must be >= 0"):
        geometric_schedule(-1)


def test_classify_tolerance_is_two_cell_diagonals():
    p = quad_pair()
    assert classify_point(p, [0.0], 51).tol == 2.0 * p.domain.lattice_spacing(51)


def test_reports_carry_the_fixed_curve_thresholds():
    assert (TOL_ABS, DECAY_RATIO) == (1e-3, 0.1)
    p = quad_pair()
    reports = [tykhonov_diagnostic(scalarize_linear(p, [1.0, 0.0]), grid_resolution=51),
               dh_diagnostic(p, [0.0], grid_resolution=51),
               dh_via_scalarization(p, [0.0], grid_resolution=51)]
    for rep in reports:
        assert (rep.tol_abs, rep.decay_ratio) == (TOL_ABS, DECAY_RATIO)


def test_classify_exponential_tail():
    p = x_neg_xex()
    assert classify_point(p, [1.0], 201).efficient == YES
    v = classify_point(p, [-1.0], 201)
    assert v.efficient == NO
    w = v.witnesses["efficient"]
    assert w["x"][0] < -1.0
    # witness really dominates: both coordinates below, images apart
    fw, fbar = p.evaluate_one(w["x"]), p.evaluate_one([-1.0])
    assert (fw <= fbar + 1e-9).all() and np.linalg.norm(fw - fbar) > v.tol


def test_classify_zero_function_everywhere_efficient_never_strict():
    p = zero_fn()
    for x in ([0.0], [0.5], [-1.0]):
        v = classify_point(p, x, 201)
        assert v.efficient == YES
        assert v.strictly_efficient == NO


def test_classify_agrees_with_componentwise_oracle():
    p = x_neg_xex()
    pts = p.domain.lattice(201)
    values = p.evaluate(pts)
    for x_bar in ([-2.01], [-0.51], [0.0], [1.5], [3.0]):
        v = classify_point(p, x_bar, 201)
        f_bar = p.evaluate_one(x_bar)
        dom = orthant_dom_witness(values, f_bar, p.cone.tol, v.tol)
        weak = orthant_weak_witness(values, f_bar, v.tol)
        assert (v.efficient == NO) == (dom is not None)
        assert (v.weakly_efficient == NO) == (weak is not None)


def test_classify_rejects_outside_domain():
    with pytest.raises(InputError):
        classify_point(quad_pair(), [5.0], 51)


@pytest.mark.parametrize("check", [
    lambda p: classify_point(p, [5.0], 51),
    lambda p: weff_via_distance(p, [5.0], 51),
    lambda p: dh_diagnostic(p, [5.0], grid_resolution=51, require_efficient=False),
    lambda p: dh_via_scalarization(p, [5.0], grid_resolution=51),
])
def test_every_route_refuses_x_bar_outside_the_box(check):
    with pytest.raises(InputError, match="x_bar must lie in the domain box"):
        check(quad_pair())


def test_non_finite_image_at_x_bar_is_refused():
    # NaN only at one lattice point; a scan against NaN finds no dominator
    x_nan = np.linspace(-1.0, 1.0, 201)[130]
    p = prob(lambda x: np.where(x == x_nan, np.nan, x ** 2).repeat(2, axis=1),
             2, [-1.0], [1.0])
    with pytest.raises(InputError):
        classify_point(p, [x_nan])
    with pytest.raises(InputError):
        weff_via_distance(p, [x_nan])
    with pytest.raises(InputError):
        dh_diagnostic(p, [x_nan], require_efficient=False)


def nan_tail():
    # 0*exp(1420*x) is 0*inf = NaN at every lattice point above x = 0.4999
    return problem_from_mapping({
        "label": "nan-tail", "decision_dim": 1, "objective_dim": 2,
        "domain": {"lower": [-1.0], "upper": [1.0]},
        "cone": {"generators": [[1.0, 0.0], [0.0, 1.0]]},
        "objective": ["0*exp(1420*x) - x", "0*exp(1420*x) - x"]})


def test_classify_refuses_nan_lattice_images():
    # the NaN points are the ones that dominate 0.49; a scan that drops them
    # reports efficient
    with pytest.raises(InputError, match="finite on the lattice"):
        classify_point(nan_tail(), [0.49])


def test_weff_refuses_nan_lattice_images():
    with pytest.raises(InputError, match="finite on the lattice"):
        weff_via_distance(nan_tail(), [0.49])


def test_weff_matches_distance_route():
    assert weff_via_distance(quad_pair(), [0.0], 201) is True
    assert weff_via_distance(x_neg_xex(), [-1.0], 201) is False


def test_dh_efficiency_gate_refuses_nan_lattice_images():
    # the NaN points are the ones that dominate 0.49: a gate that drops them
    # would pass it
    with pytest.raises(InputError, match="finite on the lattice"):
        dh_diagnostic(nan_tail(), [0.49])


@pytest.mark.parametrize("scan", [
    lambda p: weff_via_distance(p, [0.5], 300_001),
    lambda p: dh_diagnostic(p, [0.5], grid_resolution=300_001),
], ids=["weff", "dh-gate"])
def test_dominated_scans_read_every_chunk(scan):
    # 0*exp(789*x) is NaN above x = 0.8996, only in the second 262,144-point
    # chunk, and the first chunk already holds points that dominate 0.5: a
    # scan that stops at its first dominator would answer instead of refusing
    p = problem_from_mapping({
        "label": "late-nan", "decision_dim": 1, "objective_dim": 2,
        "domain": {"lower": [-1.0], "upper": [1.0]},
        "cone": {"generators": [[1.0, 0.0], [0.0, 1.0]]},
        "objective": ["0*exp(789*x) + x", "0*exp(789*x) + x"]})
    with pytest.raises(InputError, match="finite on the lattice"):
        scan(p)


def gate_cases():
    """(label, problem, lattice resolution, x_bar list): every registry
    entry at its designated point and four seeded lattice points, and the
    benchmark's 3-D problem at a coarse lattice."""
    rng = np.random.default_rng(16)
    for label in registry.labels() + ("diagnose-3d",):
        if label == "diagnose-3d":
            problem, res = load_problem(DIAGNOSE3D), 41
            points = [(0.0, 0.0, 0.0), (-0.5, -0.5, 0.5)]
        else:
            entry = registry.get(label)
            problem, res, points = entry.build(), registry.RESOLUTION, [entry.designated]
        flat = rng.choice(problem.domain.lattice_size(res), 4, replace=False)
        points += list(problem.domain.lattice_points_at(res, flat))
        yield label, problem, res, points


@pytest.mark.kernel
def test_pruned_weak_efficiency_scan_agrees_with_the_full_distance_image():
    # the reference reads the unpruned D image of the whole lattice
    for label, problem, res, points in gate_cases():
        images = problem.evaluate(problem.domain.lattice(res))
        tol = 2.0 * problem.domain.lattice_spacing(res)
        for x_bar in points:
            f_bar = problem.evaluate_one(x_bar)
            want = weakly_efficient_by_distance_image(
                oriented_distance_batch(problem.cone, images - f_bar), tol)
            assert weff_via_distance(problem, x_bar, res) is want, (label, x_bar)


def refused_by_the_efficiency_gate(problem, x_bar, res):
    try:
        dh_diagnostic(problem, x_bar, alpha_schedule=[1.0], grid_resolution=res)
    except HypothesisNotMet:
        return True
    return False


@pytest.mark.kernel
@pytest.mark.parametrize("cap", ["stored", "over-cap"])
def test_dh_efficiency_gate_agrees_with_classify_point(monkeypatch, cap):
    if cap == "over-cap":
        monkeypatch.setattr(diagnostics_module, "LATTICE_CAP", 0)
    for label, problem, res, points in gate_cases():
        images = problem.evaluate(problem.domain.lattice(res))
        for x_bar in points:
            verdict = classify_point(problem, x_bar, res)
            dominated = dominated_on_lattice(images, problem.evaluate_one(x_bar),
                                             problem.cone.dual_generators,
                                             problem.cone.tol, verdict.tol)
            assert (verdict.efficient == NO) is dominated, (label, x_bar)
            assert refused_by_the_efficiency_gate(problem, x_bar, res) is dominated, (label, x_bar)


def test_weak_efficiency_scan_projects_no_row_on_the_3d_benchmark_problem(monkeypatch):
    # D can be at most -tol only inside -C, where it is the largest facet
    # margin: no row there needs a projection
    projected = []
    orig = distance_module._dual_projections

    def counted(cone, points):
        projected.append(len(points))
        return orig(cone, points)

    monkeypatch.setattr(distance_module, "_dual_projections", counted)
    problem = load_problem(DIAGNOSE3D)
    assert weff_via_distance(problem, (0.0, 0.0, 0.0), 41) is True
    assert weff_via_distance(problem, (-0.5, -0.5, 0.5), 41) is False
    assert projected and sum(projected) == 0


def test_weff_false_point_has_negative_distance_witness():
    p = x_neg_xex()
    # any x < -1 dominates -1 strictly; check D at one concrete witness
    from wellposed import oriented_distance
    d = oriented_distance(p.cone, p.evaluate_one([-2.0]) - p.evaluate_one([-1.0]))
    assert d.value < -1e-6


def test_unique_distance_minimizer_implies_efficient():
    rng = np.random.default_rng(6)
    from wellposed import scalarize_oriented
    for k in range(5):
        a, b = rng.uniform(0.5, 2.0, size=2)
        c = rng.integers(-50, 50) * 0.02  # on-lattice center
        p = prob((lambda a, b, c: lambda x: np.stack(
            [a * (x[:, 0] - c) ** 2, b * (x[:, 0] - c) ** 2], axis=1))(a, b, c),
            2, [-2.0], [2.0], label=f"u{k}")
        sp = scalarize_oriented(p, [c])
        pts = p.domain.lattice(201)
        vals = sp.evaluate(pts)
        argmins = np.flatnonzero(vals <= vals.min() + 1e-12)
        if argmins.size == 1:
            assert classify_point(p, [c], 201).efficient == YES


def test_tykhonov_parabola_curve_and_verdict():
    sp = scalarize_linear(quad_pair(), [1.0, 0.0])
    rep = tykhonov_diagnostic(sp, grid_resolution=201)
    assert rep.verdict == WELL_POSED
    # diam of {x^2 <= eps} is 2*sqrt(eps) up to the lattice
    for k, eps in enumerate(rep.schedule):
        want = 2.0 * np.sqrt(eps)
        assert rep.diam_curve[k, 0] <= want + 1e-9
        assert rep.diam_curve[k, 0] >= want - 2 * rep.lattice_spacing


def test_tykhonov_flat_function_not_well_posed():
    sp = scalarize_linear(zero_fn(), [1.0, 0.0])
    rep = tykhonov_diagnostic(sp, grid_resolution=201)
    assert rep.verdict == NOT_WELL_POSED
    assert rep.diam_curve[-1, 0] == pytest.approx(2.0, abs=1e-9)


def test_tykhonov_embeds_argmin_details():
    sp = scalarize_linear(quad_pair(), [0.5, 0.5])
    rep = tykhonov_diagnostic(sp, grid_resolution=201)
    assert rep.details["lattice_infimum"] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(rep.details["argmin"], [0.0], atol=1e-12)


def test_dh_quad_pair_square_root_decay():
    p = quad_pair()
    rep = dh_diagnostic(p, [0.0], grid_resolution=201)
    assert rep.verdict == WELL_POSED
    # the battery's first direction is k0 = (1, 1)/sqrt(2): L = {x^2 <= alpha/sqrt(2)}
    np.testing.assert_array_equal(rep.directions[0], p.cone.k0)
    np.testing.assert_allclose(p.cone.k0, np.full(2, 2 ** -0.5), rtol=1e-15)
    for k, alpha in enumerate(rep.schedule):
        want = 2.0 * np.sqrt(alpha / np.sqrt(2.0))
        assert rep.diam_curve[k, 0] <= want + 1e-9
        assert rep.diam_curve[k, 0] >= want - 2 * rep.lattice_spacing


def test_dh_zero_function_never_collapses():
    rep = dh_diagnostic(zero_fn(), [0.0], grid_resolution=201)
    assert rep.verdict == NOT_WELL_POSED
    assert (rep.diam_curve == rep.diam_curve[0, 0]).all()


def test_dh_two_linear_inequalities():
    p = prob(lambda x: np.stack([x[:, 0], -x[:, 0]], axis=1), 2, [-1.0], [1.0])
    rep = dh_diagnostic(p, [0.0], grid_resolution=201)
    assert rep.verdict == WELL_POSED
    np.testing.assert_array_equal(rep.directions[0], p.cone.k0)
    np.testing.assert_allclose(p.cone.k0, np.full(2, 2 ** -0.5), rtol=1e-15)
    for k, alpha in enumerate(rep.schedule):
        # along k0 the level set is [-alpha/sqrt(2), alpha/sqrt(2)] exactly
        assert rep.diam_curve[k, 0] == pytest.approx(
            np.sqrt(2.0) * alpha, abs=2 * rep.lattice_spacing + 1e-9)


def test_dh_requires_efficiency_unless_overridden():
    p = x_neg_xex()
    with pytest.raises(HypothesisNotMet):
        dh_diagnostic(p, [-1.0], grid_resolution=201)
    rep = dh_diagnostic(p, [-1.0], grid_resolution=201, require_efficient=False)
    assert rep.kind == "dh"


def test_dh_curves_are_nonincreasing():
    for p in (quad_pair(), zero_fn()):
        rep = dh_diagnostic(p, [0.0], grid_resolution=101)
        diffs = np.diff(rep.diam_curve, axis=0)
        assert (diffs <= 1e-12).all()


def test_scalarized_route_matches_direct_route():
    cases = [(quad_pair(), WELL_POSED), (zero_fn(), NOT_WELL_POSED)]
    for p, want in cases:
        direct = dh_diagnostic(p, [0.0], grid_resolution=201)
        scal = dh_via_scalarization(p, [0.0], grid_resolution=201)
        assert direct.verdict == want
        assert scal.verdict == want


def test_route_agreement_on_random_convex_pairs():
    rng = np.random.default_rng(13)
    for k in range(6):
        a, b = rng.uniform(0.5, 2.0, size=2)
        c = rng.integers(-40, 40) * 0.02
        p = prob((lambda a, b, c: lambda x: np.stack(
            [a * (x[:, 0] - c) ** 2, b * (x[:, 0] - c) ** 2], axis=1))(a, b, c),
            2, [-2.0], [2.0], label=f"r{k}")
        assert (dh_diagnostic(p, [c], grid_resolution=201).verdict
                == dh_via_scalarization(p, [c], grid_resolution=201).verdict)


def test_dh_well_posed_never_strictly_no():
    # continuous f with DH evidence must not classify strictly-efficient "no"
    p = quad_pair()
    rep = dh_diagnostic(p, [0.0], grid_resolution=201)
    assert rep.verdict == WELL_POSED
    assert classify_point(p, [0.0], 201).strictly_efficient != NO


def test_linear_route_sufficient_only():
    # a well-posed linear scalarization <xi, f> predicts its argmin DH well-posed
    p = prob(lambda x: np.stack([x[:, 0] ** 2, x[:, 0] ** 4], axis=1), 2, [-1.5], [1.5])
    # sqrt-type level sets need the deep schedule to drop below the lattice
    rep = tykhonov_diagnostic(scalarize_linear(p, [1.0, 0.0]),
                              level_schedule=geometric_schedule(20), grid_resolution=201)
    assert rep.verdict == WELL_POSED
    x_bar = rep.details["argmin"]
    np.testing.assert_allclose(x_bar, [0.0], atol=1e-12)
    assert dh_diagnostic(p, x_bar, alpha_schedule=geometric_schedule(20),
                         grid_resolution=201).verdict == WELL_POSED


def test_linear_route_false_for_flat_function():
    rep = tykhonov_diagnostic(scalarize_linear(zero_fn(), [1.0, 0.0]), grid_resolution=201)
    assert rep.verdict != WELL_POSED


def nan_right_tail():
    # (x^2, (x-1)^2) with a NaN image on (0.9, 1]
    def f(x):
        v = np.stack([x[:, 0] ** 2, (x[:, 0] - 1.0) ** 2], axis=1)
        v[x[:, 0] > 0.9] = np.nan
        return v
    return prob(f, 2, [-1.0], [1.0])


@pytest.mark.parametrize("grid", [201, LATTICE_CAP + 1])  # store path and level_set path
def test_dh_refuses_nan_lattice_images_without_the_efficiency_check(grid):
    with pytest.raises(InputError, match="objective must be finite on the lattice"):
        dh_diagnostic(nan_right_tail(), [0.5], grid_resolution=grid, require_efficient=False)


@pytest.mark.parametrize("schedule", [[1.0, np.nan], [np.nan, 0.5], [np.inf, 0.5]])
def test_non_finite_schedules_are_refused(schedule):
    # a NaN level holds no point and an inf level every point, so either
    # would shape the curve from a level no scan can measure
    p = registry.get("quad-pair").build()
    with pytest.raises(InputError, match="alpha_schedule must be a finite"):
        dh_diagnostic(p, [0.0], alpha_schedule=schedule, grid_resolution=21)
    with pytest.raises(InputError, match="level_schedule must be a finite"):
        dh_via_scalarization(p, [0.0], level_schedule=schedule, grid_resolution=21)
    with pytest.raises(InputError, match="level_schedule must be a finite"):
        tykhonov_diagnostic(scalarize_linear(p, [1.0, 0.0]), level_schedule=schedule,
                            grid_resolution=21)


def test_over_cap_dh_evaluates_the_lattice_once_per_direction(monkeypatch):
    base = registry.get("quad-2d").build()
    evaluated = []

    def counted(points):
        evaluated.append(len(points))
        return base.evaluator(points)

    monkeypatch.setattr(diagnostics_module, "LATTICE_CAP", 0)
    report = dh_diagnostic(dataclasses.replace(base, evaluator=counted), [0.5, 0.0],
                           grid_resolution=41, require_efficient=False)
    # f(x_bar), then one pass per direction that tests all of its levels
    assert sum(evaluated) == 1 + report.directions.shape[0] * 41 ** 2


def test_report_schedule_does_not_alias_the_default():
    before = DEFAULT_ALPHA_SCHEDULE.copy()
    reports = [tykhonov_diagnostic(scalarize_linear(quad_pair(), [1.0, 0.0]), grid_resolution=11),
               dh_diagnostic(quad_pair(), [0.0], grid_resolution=11)]
    for rep in reports:
        assert not np.shares_memory(rep.schedule, DEFAULT_ALPHA_SCHEDULE)
        rep.schedule[0] = 7.0
    np.testing.assert_array_equal(DEFAULT_ALPHA_SCHEDULE, before)


def test_nested_walk_falls_back_to_all_rows_when_a_bound_grows():
    rows = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    bounds = [[0.5, 0.5], [1.0, 0.2], [0.1, 0.1], [3.0, 3.0], [np.nan, 3.0], [1.0, 1.0]]
    got = [m.tolist() for m in _nested_members(rows, np.array(bounds))]
    # rows 1 (level 1), 2 and 3 (level 3) and 0-2 (level 5) fail the level before:
    # each is found only by the test of all rows
    assert got == [[0], [0, 1], [0], [0, 1, 2, 3], [], [0, 1, 2]]


def assert_same_levels(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@settings(deadline=None, max_examples=80)
@given(st.integers(2, 4), st.data())
def test_nested_walk_equals_the_per_level_test(m, data):
    n = data.draw(st.integers(m, 6))
    # a positive first coordinate on every generator makes the cone pointed
    first = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    rest = data.draw(st.lists(st.integers(-3, 3), min_size=n * (m - 1), max_size=n * (m - 1)))
    gens = np.column_stack([first, np.reshape(rest, (n, m - 1))]).astype(float)
    try:
        cone = OrderingCone(m, gens)
    except InputError:
        assume(False)  # not solid
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = data.draw(st.sampled_from([1.0, 1e6, 1e12]))
    f_bar = scale * rng.normal(size=m)
    # images on a coarse grid about f_bar, so many sit on a level's boundary
    step = data.draw(st.sampled_from([2.0**-3, 2.0**-20, 2.0**-45]))
    images = f_bar + step * rng.integers(-6, 7, size=(400, m)) @ cone.generators[:m]
    img_margins = images @ cone.dual_generators.T
    # alphas fall from 1 to far below an ulp of f_bar, where the bound rows tie
    powers = np.sort(data.draw(st.lists(st.integers(0, 70), min_size=1, max_size=12,
                                        unique=True)))
    schedule = 2.0 ** -powers.astype(float)
    weights = rng.uniform(0.1, 1.0, size=n)
    for c in np.vstack([cone.interior_direction_battery(), weights @ cone.generators]):
        bounds = [cone.dual_generators @ (f_bar + alpha * c) for alpha in schedule]
        want = [np.flatnonzero(np.all(img_margins <= b[None, :] + cone.tol, axis=1))
                for b in bounds]
        assert_same_levels(list(_nested_members(img_margins, (b + cone.tol for b in bounds))),
                           want)
    # the scalar form used by the Tykhonov curve: one column, levels inf + offset
    values = images[:, 0]
    inf = float(values.min())
    want = [np.flatnonzero(values <= inf + off) for off in schedule]
    assert_same_levels(
        list(_nested_members(values[:, None], (np.array([inf + off]) for off in schedule))), want)



@pytest.mark.kernel
@pytest.mark.parametrize("label", registry.labels() + ("diagnose-3d",))
def test_over_cap_level_set_route_matches_the_stored_margins(monkeypatch, label):
    # the store path walks nested levels over kept margins; above the cap one
    # level_set pass tests each direction's levels, and both must measure the same sets
    if label == "diagnose-3d":
        repo = Path(__file__).resolve().parents[1]
        problem, x_bar = load_problem(repo / "bench" / "diagnose3d.yaml"), (0.0, 0.0, 0.0)
    else:
        problem, x_bar = registry.get(label).build(), registry.get(label).designated
    stored = dh_diagnostic(problem, x_bar, grid_resolution=41)
    monkeypatch.setattr(diagnostics_module, "LATTICE_CAP", 0)
    passes = dh_diagnostic(problem, x_bar, grid_resolution=41)
    np.testing.assert_array_equal(passes.counts, stored.counts)
    assert passes.diam_curve.tobytes() == stored.diam_curve.tobytes()
    assert passes.verdict == stored.verdict


# ---------------------------------------------------------------------------
# strict efficiency reads D only up to STRICT_DELTA


def _parabolas(c, second, cone):
    """f(x) = (c x^2, second * c x^2) on [-1, 1]."""
    return problem_from_mapping({
        "label": "parabolas", "decision_dim": 1, "objective_dim": 2,
        "domain": {"lower": [-1.0], "upper": [1.0]}, "cone": cone,
        "objective": [f"{c!r} * x1^2", f"{second * c!r} * x1^2"]})


ORTHANT_2 = {"generators": [[1.0, 0.0], [0.0, 1.0]]}
SKEW_2 = {"generators": [[1.0, 0.0], [1.0, 2.0]]}


@pytest.mark.parametrize("cone, second", [(ORTHANT_2, 1.0), (SKEW_2, -0.6)], ids=["orthant", "skew"])
@pytest.mark.parametrize("c, strict", [(0.0, NO), (1e-4, INCONCLUSIVE), (1.0, YES)])
def test_strict_efficiency_branches_at_the_delta_level(cone, second, c, strict):
    # x_bar = 0 is efficient for every c >= 0; {D <= STRICT_DELTA} reaches
    # past STRICT_EPS only while c is small, and {D <= cone.tol} only at c = 0
    verdict = classify_point(_parabolas(c, second, cone), (0.0,), grid_resolution=201)
    assert (verdict.efficient, verdict.weakly_efficient, verdict.strictly_efficient) == (
        YES, YES, strict)


def test_strict_band_rows_reach_the_face_support_stage():
    # on the skew cone f(x) - f(0) lies outside -C and outside C* for x != 0:
    # all 200 such rows need a face-support projection, and the 18 kept near
    # STRICT_DELTA still get theirs, with the full batch's values
    problem = _parabolas(1e-4, -0.6, SKEW_2)
    cone = problem.cone
    diff = problem.domain.map_lattice(201, problem.evaluate)  # f(0) = 0
    values = _oriented_distance_upto(cone, diff, STRICT_DELTA)
    kept = np.isfinite(values)
    face = ((diff @ cone.dual_generators.T).max(axis=1) > cone.tol) & (
        (diff @ cone.unit_generators.T).min(axis=1) < -1e-10)
    assert np.count_nonzero(face) == 200 and np.count_nonzero(kept & face) == 18
    full = oriented_distance_batch(cone, diff)
    assert values[kept].tobytes() == full[kept].tobytes()
    assert np.count_nonzero(full <= STRICT_DELTA) == np.count_nonzero(values <= STRICT_DELTA) > 1


def verdict_text(verdict):
    """Byte-exact text of an EfficiencyVerdict: strings and ints by repr,
    floats by hex, arrays by their bytes, witness fields in sorted order."""
    def canon(obj):
        if isinstance(obj, dict):
            return "{" + ",".join(f"{k}:{canon(obj[k])}" for k in sorted(obj)) + "}"
        if isinstance(obj, np.ndarray):
            return f"{obj.dtype.str}{obj.shape}{obj.tobytes().hex()}"
        if isinstance(obj, float):
            return obj.hex()
        return repr(obj)
    return canon({f.name: getattr(verdict, f.name) for f in dataclasses.fields(verdict)})


def verdict_cases(label):
    """(problem, points): a registry entry's designated point and the box
    points at 0, 1/4, 3/4 and 1 of its diagonal; four diagnose-3d points."""
    if label == "diagnose-3d":
        points = [(0.0, 0.0, 0.0), (-0.5, -0.5, 0.5), (0.5, 0.0, 0.0), (1.0, 1.0, 1.0)]
        return load_problem(DIAGNOSE3D), points
    entry = registry.get(label)
    problem = entry.build()
    lo, hi = problem.domain.lower, problem.domain.upper
    return problem, [entry.designated] + [tuple(lo + t * (hi - lo)) for t in (0.0, 0.25, 0.75, 1.0)]


# sha256 prefixes of verdict_text for each point of verdict_cases
VERDICT_PINS = {
    ('zero-function', 21): ('49980648d2766f29', 'a7e93b0c19b2353b', '6a3e4a32cf3090d9', '245831210703da00', '545e6a9ef6e30a5b'),
    ('zero-function', 201): ('d4ede3b3c9e97db2', '3aca69230ae4cbb2', 'c6ced1059209762a', 'a25126c6c53934ae', '4f8e587dbb7c51a9'),
    ('x-minus-x', 21): ('1338325b74652902', '43bf19598e965151', 'e3cbf08f88c93200', '57f20c7cbb9ba1e1', 'bdacf4cf3d115d70'),
    ('x-minus-x', 201): ('44a785fae2707d28', '237486001849da92', 'e170ed1ae099d388', 'db391151230fe58f', 'f2935f3b3a97206b'),
    ('quad-pair', 21): ('1338325b74652902', 'f09b374b7a6c2c0b', 'b11f3aa804e31817', '368ccf44e1264576', '0b5e5fa808afef9d'),
    ('quad-pair', 201): ('44a785fae2707d28', '10b30e367248bb43', '349753996fdd8eca', '07ae271dece1376a', 'a6547a518a6c9b55'),
    ('x-x2', 21): ('679c9b531e7434cc', 'db3742d23c33347b', 'c0d228d8a9b79cb6', 'd60cb8c52d18ffc0', '2991ec0b1d278a78'),
    ('x-x2', 201): ('76cfc83ff77546d5', 'af44b906255b1775', 'a9b714fbaef8b3de', '7f6ce0d6fc47647e', '8a7646f69cb427e9'),
    ('x-minus-xex', 21): ('679c9b531e7434cc', 'db3742d23c33347b', 'fdf1004466c027e8', 'c1da8d127c27c4e5', '06fc54ac1d0e2a51'),
    ('x-minus-xex', 201): ('76cfc83ff77546d5', 'af44b906255b1775', '8b925a45595d50e1', '26964531b0dc7c65', 'a3391baa0f4cac53'),
    ('biquad', 21): ('1338325b74652902', '8e688b72175e2b3d', '2af70b7be085c042', '57f20c7cbb9ba1e1', 'bdacf4cf3d115d70'),
    ('biquad', 201): ('49a232b5a899de4f', 'f6a85f04e5737544', '959a409845898831', 'db391151230fe58f', 'e1740a75c3b361c2'),
    ('abs-pair', 21): ('220f0a9c7974266d', 'c151a15b7a70686e', 'e3cbf08f88c93200', '062fa75b93d06240', 'de0e2632c4980506'),
    ('abs-pair', 201): ('0fe05cb6901a7d02', '84511e06f037729a', 'e170ed1ae099d388', '97b8b1ff7e1812c7', '201c996007496f1c'),
    ('exp-linear', 21): ('e3cbf08f88c93200', '43bf19598e965151', 'e3cbf08f88c93200', '57f20c7cbb9ba1e1', 'bdacf4cf3d115d70'),
    ('exp-linear', 201): ('e170ed1ae099d388', '237486001849da92', 'e170ed1ae099d388', 'db391151230fe58f', 'f2935f3b3a97206b'),
    ('quad-2d', 21): ('e476f13c7a541aee', 'f90361c275dd28e1', '925f95e93c775671', '7f97d7ea917c41fe', '310ebeccf6abed1f'),
    ('quad-2d', 201): ('ba432ade8f73baa4', '0f237d1a7fef1d92', 'a3b93e870c9c3666', 'a43ea1c41c5ce767', 'c4feb79e179a3840'),
    ('skew-cone-quad', 21): ('57f20c7cbb9ba1e1', 'e0f47b30d15eff57', 'ba12ceb4277fbabc', '57f20c7cbb9ba1e1', 'bdacf4cf3d115d70'),
    ('skew-cone-quad', 201): ('db391151230fe58f', '37f0bf7c9ee417f3', '5e6958e28d8d0c4f', 'db391151230fe58f', 'f2935f3b3a97206b'),
    ('hilbert-truncation-2', 21): ('e476f13c7a541aee', '8a1fd4d54503e55d', '6a87b587ccb6f677', '7dd319bb92342f1d', '18ea87524e07a90c'),
    ('hilbert-truncation-2', 201): ('ba432ade8f73baa4', 'fea5ba6a518af2cc', '1f9b85800702749f', 'e81e79895a35b91b', '3eb8531c53208a97'),
    ('diagnose-3d', 41): ('6ff6a1305ee9fae6', '3611a7224b00e02b', 'd9f1c62dc6cf54ce', '74b3dc36df93f42e'),
}


@pytest.mark.parametrize("label, res", list(VERDICT_PINS), ids=[f"{l}-{r}" for l, r in VERDICT_PINS])
def test_classify_verdicts_are_pinned(label, res):
    problem, points = verdict_cases(label)
    got = tuple(hashlib.sha256(verdict_text(classify_point(problem, x, res)).encode()).hexdigest()[:16]
                for x in points)
    assert got == VERDICT_PINS[label, res]
