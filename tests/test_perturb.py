import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellposed import (
    Box,
    BoundingSearch,
    CertificateFailure,
    HypothesisNotMet,
    InputError,
    NOT_WELL_POSED,
    NoBoundingFunctional,
    ScalarProblem,
    VectorProblem,
    WELL_POSED,
    YES,
    classify_point,
    density_pipeline,
    ekeland_point,
    function_distance,
    genericity_probe,
    orthant,
    registry,
    scalarize_linear,
    tykhonov_diagnostic,
    tikhonov_regularize,
)

from wellposed.problem import LATTICE_CAP

from oracles import ekeland_on_the_whole_lattice, evp_violations


def prob(fn, m, lower, upper, label="p"):
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    return VectorProblem(label=label, decision_dim=lower.size, objective_dim=m,
                         evaluator=fn, domain=Box(lower, np.atleast_1d(upper)),
                         cone=orthant(m))


def test_regularizing_flat_function_restores_well_posedness():
    p = registry.get("zero-function").build()
    q, cert = tikhonov_regularize(p, [0.0], 1)
    assert cert.efficient_at_center == YES
    assert cert.dh_verdict == WELL_POSED
    # closed-form metric: u_i = min(i, 1)/1 -> (1 - 2^-20)/2
    assert cert.metric_value == pytest.approx(0.4999995231628418, abs=1e-9)
    assert q.label.endswith("tik1")


@pytest.mark.parametrize("n", [float("inf"), float("nan"), 0, 1.5])
def test_regularization_refuses_n_outside_the_positive_integers(n):
    # inf once raised OverflowError and NaN ValueError from int(n)
    with pytest.raises(InputError, match="^n must be a positive integer$"):
        tikhonov_regularize(registry.get("zero-function").build(), [0.0], n)


def test_regularization_keeps_center_efficient_for_all_n():
    p = registry.get("x-minus-x").build()
    last = 1.0
    for n in (1, 2, 4, 8):
        _, cert = tikhonov_regularize(p, [0.0], n)
        assert cert.efficient_at_center == YES
        assert cert.dh_verdict == WELL_POSED
        assert cert.metric_value == pytest.approx((1 - 2.0 ** -20) / (n + 1), abs=1e-9)
        assert cert.metric_value < last
        last = cert.metric_value


def test_regularization_requires_efficient_center():
    p = registry.get("x-minus-xex").build()
    with pytest.raises(HypothesisNotMet):
        tikhonov_regularize(p, [-1.0], 1)


def test_regularization_rejects_bad_n():
    p = registry.get("zero-function").build()
    with pytest.raises(Exception):
        tikhonov_regularize(p, [0.0], 0)


def scalar_problem(fn, lower, upper, label="sp"):
    p = prob(lambda x: np.stack([fn(x[:, 0]), fn(x[:, 0])], axis=1), 2, lower, upper,
             label=label)
    return scalarize_linear(p, [1.0, 0.0])


def test_ekeland_parabola_certificate_exhaustive():
    sp = scalar_problem(lambda t: t * t, [-2.0], [2.0])
    res = ekeland_point(sp, [1.0], 0.1, 10.1, grid_resolution=201)
    assert abs(res.x_hat[0]) <= 0.1
    assert res.min_margin > 0
    assert res.descent_holds and res.within_radius
    pts = sp.domain.lattice(201)
    vals = sp.evaluate(pts)
    n_min, n_rad, n_desc = evp_violations(vals, pts, res.x_hat, [1.0], 0.1, 10.1,
                                          sp.domain.lattice_spacing(201))
    assert (n_min, n_rad, n_desc) == (0, 0, 0)


def test_ekeland_fixed_point_is_immediate():
    sp = scalar_problem(lambda t: (t - 0.5) ** 2, [-2.0], [2.0])
    res = ekeland_point(sp, [0.5], 0.05, 5.0, grid_resolution=201)
    assert res.iterations == 0
    np.testing.assert_allclose(res.x_hat, [0.5], atol=1e-12)


def test_ekeland_start_at_the_upper_corner_is_its_lattice_point():
    # lower + steps * h misses the lattice point at `upper` on this box, so
    # the start snapped to a point 2.2e-16 away from every lattice point
    box = Box(np.array([-2.2945343420102615]), np.array([1.636924461032031]))
    sp = ScalarProblem("-x", 1, lambda x: -x[:, 0], box)
    res = ekeland_point(sp, box.upper, 0.1, 1.0, grid_resolution=132)
    assert res.iterations == 0
    assert res.distance_to_start == 0.0
    assert res.x_start.tobytes() == res.x_hat.tobytes() == box.upper.tobytes()


def test_ekeland_linear_lands_on_corner_within_radius():
    # eps below the slope, so the penalized argmin is the box corner
    sp = scalar_problem(lambda t: 0.3 * t, [-2.0], [2.0])
    res = ekeland_point(sp, [0.0], 0.1, 7.0, grid_resolution=201)
    np.testing.assert_allclose(res.x_hat, [-2.0], atol=1e-12)
    assert np.linalg.norm(res.x_hat - [0.0]) < 7.0
    pts = sp.domain.lattice(201)
    n_min, n_rad, n_desc = evp_violations(sp.evaluate(pts), pts, res.x_hat, [0.0],
                                          0.1, 7.0, sp.domain.lattice_spacing(201))
    assert (n_min, n_rad, n_desc) == (0, 0, 0)


def test_ekeland_rejects_bad_start():
    sp = scalar_problem(lambda t: t * t, [-2.0], [2.0])
    # sp(2) = 4 but inf + r*eps = 0 + 0.1: hypothesis fails
    with pytest.raises(HypothesisNotMet):
        ekeland_point(sp, [2.0], 0.1, 1.0, grid_resolution=201)


def test_ekeland_descent_strictly_decreases_weighted_objective():
    rng = np.random.default_rng(21)
    box = Box(np.array([-1.0]), np.array([1.0]))
    values = rng.uniform(0.0, 5.0, size=301)

    def lookup(x):
        idx = np.clip(np.rint((np.atleast_2d(x)[:, 0] + 1.0) / (2.0 / 300)), 0, 300)
        return np.stack([values[idx.astype(int)]] * 2, axis=1)

    p = VectorProblem(label="rnd", decision_dim=1, objective_dim=2, evaluator=lookup,
                      domain=box, cone=orthant(2), continuous=False)
    sp = scalarize_linear(p, [1.0, 0.0])
    start = p.domain.lattice(301)[np.argmin(sp.evaluate(p.domain.lattice(301)))]
    res = ekeland_point(sp, start, 0.5, 4.0, grid_resolution=301)
    assert res.iterations <= 301
    pts = p.domain.lattice(301)
    viol = evp_violations(sp.evaluate(pts), pts, res.x_hat, start, 0.5, 4.0,
                          p.domain.lattice_spacing(301))
    assert viol == (0, 0, 0)


def test_pipeline_produces_budgeted_certificate():
    p = registry.get("x-x2").build()
    h, cert = density_pipeline(p, 0.1, grid_resolution=201)
    assert cert.d_f_h < 0.1
    assert cert.d_f_g < 0.05
    assert cert.d_g_h <= 0.05 + cert.metric_tail
    assert cert.dh_verdict == WELL_POSED
    assert cert.efficient_at_x_hat == YES
    assert h.label.endswith("cert")
    # the triangle budget closes: d(f,h) within the two legs plus tails
    assert cert.d_f_h <= cert.d_f_g + cert.d_g_h + 2 * cert.metric_tail


def test_pipeline_certificate_geometry():
    p = registry.get("quad-pair").build()
    _, cert = density_pipeline(p, 0.5, grid_resolution=201)
    # xi_bar lives on the dual base: <xi_bar, k0_rescaled> = 1
    assert float(cert.xi_bar @ cert.k0_rescaled) == pytest.approx(1.0, abs=1e-9)
    assert cert.epsilon > 0 and cert.r > 0
    assert np.linalg.norm(cert.x_hat) <= cert.sublevel_radius + 0.011
    assert cert.ekeland.iterations >= 0


def test_pipeline_evaluates_the_scalarization_lattice_once(monkeypatch):
    rows = []

    def counting_scalarize(problem, xi):
        sp = scalarize_linear(problem, xi)

        def ev(points):
            rows.append(len(points))
            return sp.evaluator(points)

        return dataclasses.replace(sp, evaluator=ev)

    # the package exports the function perturb under the module's name
    monkeypatch.setattr(importlib.import_module("wellposed.perturb"), "scalarize_linear",
                        counting_scalarize)
    p = registry.get("x-x2").build()
    _, cert = density_pipeline(p, 0.1, grid_resolution=201)
    assert sum(rows) == p.domain.lattice_size(201)
    # handing the pipeline's values to the descent changes nothing
    g_xi = scalarize_linear(cert.g, cert.xi_bar)
    again = ekeland_point(g_xi, cert.ekeland.x_start, cert.epsilon, cert.r, 201)
    assert again == cert.ekeland


def test_ekeland_rejects_values_of_the_wrong_length():
    sp = scalarize_linear(prob(lambda x: x ** 2, 1, [-1.0], [1.0]), [1.0])
    with pytest.raises(InputError, match="one value per lattice point"):
        ekeland_point(sp, [0.5], 0.05, 5.0, grid_resolution=201, values=np.zeros(200))


def test_ekeland_refuses_non_finite_values_given_or_evaluated():
    sp = scalarize_linear(prob(lambda x: x ** 2, 1, [-1.0], [1.0]), [1.0])
    values = sp.domain.map_lattice(201, sp.evaluate)
    values[7] = np.nan
    with pytest.raises(InputError, match="finite on the lattice"):
        ekeland_point(sp, [0.5], 0.05, 5.0, grid_resolution=201, values=values)
    sp = scalarize_linear(prob(lambda x: np.sqrt(x), 1, [-1.0], [1.0]), [1.0])
    with pytest.raises(InputError, match="finite on the lattice"):
        ekeland_point(sp, [0.5], 0.05, 5.0, grid_resolution=201)


@pytest.mark.parametrize("epsilon, r, name", [
    (1.0, float("inf"), "r"), (0.1, float("nan"), "r"),
    (float("nan"), 1.0, "epsilon"), (float("inf"), 1.0, "epsilon"),
])
def test_ekeland_refuses_non_finite_epsilon_and_r(epsilon, r, name):
    # an infinite r once gave a result with within_radius=True
    sp = scalar_problem(lambda t: (t - 0.5) ** 2, [-2.0], [2.0])
    with pytest.raises(InputError, match=f"^{name} must be positive and finite"):
        ekeland_point(sp, [0.5], epsilon, r, grid_resolution=201)


def walk_problem(rng, d, res):
    """A scalar problem whose lattice values are a random walk rounded to
    integers, read off by each point's flat index.  The lattice is a cube
    with a dyadic step, so that mirror points lie at equal distances and
    about one draw in ten meets a tied argmin."""
    lower = rng.integers(-3, 1, d).astype(float)
    step = 2.0 ** -int(rng.integers(0, 3))
    box = Box(lower, lower + (res - 1) * step)
    walk = np.round(np.cumsum(rng.normal(size=res ** d)) / 2)

    def ev(x):
        idx = np.rint((x - box.lower) / step).astype(np.int64)
        return walk[np.ravel_multi_index(tuple(idx.T), (res,) * d)]

    return ScalarProblem("walk", d, ev, box), walk


def field_bits(fields):
    return {k: v.tobytes() if isinstance(v, np.ndarray) else repr(v) for k, v in fields.items()}


@settings(deadline=None, max_examples=120)
@given(st.integers(1, 3), st.booleans(), st.data())
def test_ekeland_matches_the_whole_lattice_oracle(d, pass_values, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    res = int(rng.integers(2, (60, 16, 8)[d - 1]))
    sp, walk = walk_problem(rng, d, res)
    box = sp.domain
    start = box.lower + rng.random(d) * (box.upper - box.lower)
    epsilon = float(rng.choice([0.05, 0.3, 0.5, 1.0, 4.0]))
    _, flat0 = box.nearest_lattice_point(res, start)
    r = float(walk[flat0] - walk.min()) / epsilon + 1.0
    values = walk if pass_values else None
    got = ekeland_point(sp, start, epsilon, r, res, values=values)
    want = ekeland_on_the_whole_lattice(sp, start, epsilon, r, res, values=values)
    assert field_bits(dataclasses.asdict(got)) == field_bits(want)


def test_ekeland_streams_a_lattice_above_the_store_cap():
    # Box.lattice refuses this lattice; the descent never builds it
    res = LATTICE_CAP + 1
    sp = ScalarProblem("plateau", 1, lambda x: np.round((x[:, 0] - 0.3) ** 2, 3),
                       Box(np.array([-1.0]), np.array([1.0])))
    with pytest.raises(InputError, match="exceeds cap"):
        sp.domain.lattice(res)
    got = ekeland_point(sp, [0.9], 0.5, 4.0, res)
    want = ekeland_on_the_whole_lattice(sp, [0.9], 0.5, 4.0, res)
    assert got.iterations > 0
    assert field_bits(dataclasses.asdict(got)) == field_bits(want)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 0.0])
def test_pipeline_and_probe_refuse_sigma_outside_the_positive_reals(sigma):
    with pytest.raises(InputError, match="^sigma must be positive and finite"):
        density_pipeline(registry.get("x-x2").build(), sigma, grid_resolution=201)
    # before any work: an empty family is refused too
    with pytest.raises(InputError, match="^sigma must be positive and finite"):
        genericity_probe([], sigma)


def test_pipeline_refuses_non_finite_lattice_image():
    x_nan = np.linspace(-2.0, 2.0, 201)[115]
    p = prob(lambda x: np.where(x == x_nan, np.nan, x ** 2).repeat(2, axis=1),
             2, [-2.0], [2.0])
    with pytest.raises(InputError, match="finite on the lattice"):
        density_pipeline(p, 0.5, grid_resolution=201)


def test_pipeline_refuses_unbounded_problem():
    p = registry.get("x-minus-xex").build()
    with pytest.raises(NoBoundingFunctional):
        density_pipeline(p, 0.5, grid_resolution=201)


def test_probe_empty_family():
    rep = genericity_probe([], 0.5)
    assert rep.members == ()
    assert rep.success_fraction is None


def test_probe_mixed_family():
    probs = [registry.get("quad-pair").build(), registry.get("x-minus-xex").build()]
    rep = genericity_probe(probs, 0.5, n_max=4, grid_resolution=201)
    by_label = {m.label: m for m in rep.members}
    assert by_label["quad-pair"].status == "certified"
    assert by_label["quad-pair"].membership_levels is not None
    assert by_label["x-minus-xex"].status in ("refused", "skipped")
    assert rep.success_fraction == pytest.approx(0.5)


# every refusal of the pipeline and the probe, each driven by replacing the
# step before it; the package exports the function perturb under the module's name
PERTURB = importlib.import_module("wellposed.perturb")


def pipeline_failure(monkeypatch, step, replacement):
    """The CertificateFailure of x-x2's pipeline with one step replaced."""
    monkeypatch.setattr(PERTURB, step, replacement)
    with pytest.raises(CertificateFailure) as exc:
        density_pipeline(registry.get("x-x2").build(), 0.5, grid_resolution=41)
    return exc.value


def replaced_fields(step, **fields):
    """step, whose result has the given fields replaced."""
    return lambda *args, **kwargs: dataclasses.replace(step(*args, **kwargs), **fields)


def test_pipeline_refuses_when_no_j_brings_the_base_within_sigma(monkeypatch):
    failure = pipeline_failure(monkeypatch, "function_distance", lambda p, q: 1.0)
    assert failure.clause == "j-doubling-cap"


@pytest.mark.parametrize("fact", ["within_radius", "descent_holds", "unique_minimizer"])
def test_pipeline_checks_each_ekeland_fact(monkeypatch, fact):
    failure = pipeline_failure(monkeypatch, "ekeland_point",
                               replaced_fields(ekeland_point, **{fact: False}))
    assert failure.clause == "ekeland" and fact in str(failure)


@pytest.mark.parametrize("step, fields, clause", [
    ("ekeland_point", {"x_hat": np.array([1e6])}, "center-radius"),
    ("classify_point", {"efficient": "no"}, "efficiency"),
    ("dh_diagnostic", {"verdict": NOT_WELL_POSED}, "dh-evidence"),
], ids=["center-radius", "efficiency", "dh-evidence"])
def test_pipeline_refuses_a_failed_verification(monkeypatch, step, fields, clause):
    replacement = replaced_fields(getattr(PERTURB, step), **fields)
    assert pipeline_failure(monkeypatch, step, replacement).clause == clause


# d(g, h) and d(f, h) for sigma = 0.5, where d(f, g) is 0.2485
@pytest.mark.parametrize("d_g_h, d_f_h, message", [
    (0.0, 0.5, "d(f, h) = 0.5 is not below sigma"),
    (0.5, 0.0, "d(g, h) = 0.5 exceeds sigma/2 + tail"),
    (0.0, 0.45, "metric triangle budget violated"),
], ids=["d_f_h", "d_g_h", "triangle"])
def test_pipeline_refuses_each_metric_budget(monkeypatch, d_g_h, d_f_h, message):
    def distances(p, q):
        if not q.label.endswith("+cert"):
            return function_distance(p, q)
        return d_g_h if p.label.endswith("+base") else d_f_h

    failure = pipeline_failure(monkeypatch, "function_distance", distances)
    assert failure.clause == "metric-budget" and str(failure).startswith(message)


def wide_levels(*args, **kwargs):
    """tykhonov_diagnostic with no level set narrower than 2."""
    report = tykhonov_diagnostic(*args, **kwargs)
    return dataclasses.replace(report, diam_curve=np.full_like(report.diam_curve, 2.0))


@pytest.mark.parametrize("step, replacement, status, detail", [
    ("find_bounding_functional", lambda p, seed: BoundingSearch(None, ()), "refused",
     "no bounding functional found for x-x2 (0 candidates scanned)"),
    ("classify_point", replaced_fields(classify_point, efficient="no"), "failed",
     "efficiency: x_hat failed the efficiency check (no)"),
    ("tykhonov_diagnostic", wide_levels, "diameter-stuck", "no level with diameter below 1/n"),
], ids=["refused", "failed", "diameter-stuck"])
def test_probe_reports_each_member_status(monkeypatch, step, replacement, status, detail):
    monkeypatch.setattr(PERTURB, step, replacement)
    report = genericity_probe([registry.get("x-x2").build()], 0.5, n_max=2, grid_resolution=41)
    (member,) = report.members
    assert (member.status, member.detail) == (status, detail)
    assert report.success_fraction == 0.0
