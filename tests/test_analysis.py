import numpy as np
import pytest

from wellposed import (
    Box,
    COUNTEREXAMPLE,
    EVIDENCE,
    InputError,
    VectorProblem,
    find_bounding_functional,
    is_C_bounded_below,
    is_C_convex,
    is_star_quasiconvex,
    orthant,
    scalarize_linear,
    sion_gap,
)

from wellposed.config import problem_from_mapping

from oracles import game_value


def prob(fn, m, lower, upper, label="p"):
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    return VectorProblem(label=label, decision_dim=lower.size, objective_dim=m,
                         evaluator=fn, domain=Box(lower, np.atleast_1d(upper)),
                         cone=orthant(m))


def quad_pair():
    return prob(lambda x: np.stack([x[:, 0] ** 2, x[:, 0] ** 2], axis=1), 2, [-2.0], [2.0])


def x_neg_xex():
    return prob(lambda x: np.stack([x[:, 0], -x[:, 0] * np.exp(x[:, 0])], axis=1),
                2, [-3.0], [3.0])


def test_convexity_screen_on_convex_pair():
    assert is_C_convex(quad_pair()).verdict == EVIDENCE


def test_convexity_screen_finds_exponential_counterexample():
    v = is_C_convex(x_neg_xex())
    assert v.verdict == COUNTEREXAMPLE
    assert v.witness is not None


def test_affine_is_convex_with_zero_violation():
    p = prob(lambda x: np.stack([2 * x[:, 0] + 1, -x[:, 0]], axis=1), 2, [-2.0], [2.0])
    v = is_C_convex(p)
    assert v.verdict == EVIDENCE
    # affine maps have exactly zero convex-combination margin deficits
    assert v.detail["worst_combination_margin"] >= -1e-12


def test_quasiconvexity_on_monotone_pair():
    p = prob(lambda x: np.stack([x[:, 0], x[:, 0]], axis=1), 2, [-2.0], [2.0])
    assert is_star_quasiconvex(p).verdict == EVIDENCE


def test_quasiconvexity_counterexample_is_recheckable():
    v = is_star_quasiconvex(x_neg_xex())
    assert v.verdict == COUNTEREXAMPLE
    w = v.witness
    p = x_neg_xex()
    g = lambda pt: float(p.evaluate_one(pt) @ w["xi"])
    mid = w["x"] + (1.0 - w["t"]) * (w["z"] - w["x"])
    assert g(mid) > max(g(w["x"]), g(w["z"]))


def test_convex_implies_quasiconvex_on_random_quadratics():
    rng = np.random.default_rng(4)
    for k in range(6):
        a, b = rng.uniform(0.3, 2.0, size=2)
        c1, c2 = rng.uniform(-0.5, 0.5, size=2)
        p = prob((lambda a, b, c1, c2: lambda x: np.stack(
            [a * (x[:, 0] - c1) ** 2, b * (x[:, 0] - c2) ** 2], axis=1))(a, b, c1, c2),
            2, [-2.0], [2.0], label=f"q{k}")
        assert is_C_convex(p).verdict == EVIDENCE
        assert is_star_quasiconvex(p).verdict == EVIDENCE


def test_bounded_below_parabola_coordinate():
    p = prob(lambda x: np.stack([x[:, 0], x[:, 0] ** 2], axis=1), 2, [-2.0], [2.0])
    assert is_C_bounded_below(p, [0.0, 1.0]).verdict == EVIDENCE


def test_every_scalarization_of_exponential_diverges():
    p = x_neg_xex()
    for xi in p.cone.base_polytope():
        assert is_C_bounded_below(p, xi).verdict == COUNTEREXAMPLE


def test_componentwise_bounded_gives_evidence_at_each_vertex():
    p = quad_pair()
    for xi in p.cone.base_polytope():
        assert is_C_bounded_below(p, xi).verdict == EVIDENCE


def test_bounded_below_rejects_zero_xi():
    with pytest.raises(InputError):
        is_C_bounded_below(quad_pair(), [0.0, 0.0])


def test_find_bounding_functional_prefers_second_coordinate():
    p = prob(lambda x: np.stack([x[:, 0], x[:, 0] ** 2], axis=1), 2, [-2.0], [2.0])
    search = find_bounding_functional(p)
    assert search.xi is not None
    assert search.xi[1] > 0
    assert is_C_bounded_below(p, search.xi).verdict == EVIDENCE


def test_find_bounding_functional_absent_for_exponential():
    search = find_bounding_functional(x_neg_xex())
    assert search.xi is None
    assert all(v == COUNTEREXAMPLE for _, v in search.scanned)


def test_find_bounding_functional_constant_takes_first_vertex():
    p = prob(lambda x: np.tile([1.0, 2.0], (x.shape[0], 1)), 2, [-1.0], [1.0])
    search = find_bounding_functional(p)
    np.testing.assert_allclose(search.xi, p.cone.base_polytope()[0])
    assert len(search.scanned) == 1


def test_sion_unit_box_floor_is_zero():
    gap = sion_gap(np.eye(2), Box(np.zeros(2), np.ones(2)))
    assert gap.sup_inf == pytest.approx(0.0, abs=1e-12)
    assert gap.inf_sup == pytest.approx(0.0, abs=1e-12)


def test_sion_constant_payoff():
    # constant payoff needs both arguments on simplices; over a box with
    # corner 0 the inner inf would be 0 instead
    gap = sion_gap(np.full((2, 2), 0.7), "simplex")
    assert gap.sup_inf == pytest.approx(0.7, abs=1e-9)
    assert gap.inf_sup == pytest.approx(0.7, abs=1e-9)


def test_sion_matching_pennies_value_half():
    gap = sion_gap(np.eye(2), "simplex")
    assert gap.sup_inf_exact == pytest.approx(0.5, abs=1e-9)
    assert gap.inf_sup_exact == pytest.approx(0.5, abs=1e-9)
    assert abs(gap.sup_inf - gap.inf_sup) <= 2 * gap.lattice_error


def test_sion_weak_duality_and_lp_bracket():
    rng = np.random.default_rng(9)
    for _ in range(8):
        kz, kw = rng.integers(2, 5, size=2)
        a = rng.normal(size=(kz, kw))
        gap = sion_gap(a, "simplex", z_subdivisions=48)
        assert gap.sup_inf <= gap.inf_sup + 1e-12
        assert gap.sup_inf_exact == pytest.approx(gap.inf_sup_exact, abs=1e-8)
        assert gap.sup_inf_exact == pytest.approx(game_value(a), abs=1e-8)
        assert abs(gap.sup_inf - gap.inf_sup) <= 2 * gap.lattice_error


def test_sion_rejects_bad_domain():
    with pytest.raises(InputError):
        sion_gap(np.eye(2), "triangle")
    with pytest.raises(InputError):
        sion_gap(np.eye(2), Box(np.zeros(3), np.ones(3)))


def test_sion_refuses_w_lattice_over_the_cap():
    # above LATTICE_CAP: Box.lattice refuses it before allocation
    for w_resolution in (1500, 2000):
        with pytest.raises(InputError, match=f"lattice of {w_resolution ** 2} points exceeds cap"):
            sion_gap(np.eye(2), Box(np.zeros(2), np.ones(2)), w_resolution=w_resolution)


def test_two_route_convexity_agreement():
    # membership-based verdict must match convexity of every scalarization
    for p in (quad_pair(), x_neg_xex()):
        member = is_C_convex(p)
        duals = p.cone.dual_generators
        rng = np.random.default_rng(2)
        xs, zs = rng.uniform(-2, 2, size=(2, 300, 1))
        fm = p.evaluate((xs + zs) / 2)
        favg = (p.evaluate(xs) + p.evaluate(zs)) / 2
        scal_ok = ((favg - fm) @ duals.T >= -1e-7).all()
        assert (member.verdict == EVIDENCE) == bool(scal_ok)


def sqrt_pair(lower, upper=1.0, root="x"):
    # (sqrt(root), -x): NaN wherever root < 0
    return problem_from_mapping({
        "label": "sqrt-pair", "decision_dim": 1, "objective_dim": 2,
        "objective": [f"({root})^0.5", "-x"], "domain": {"lower": [lower], "upper": [upper]},
        "cone": {"generators": [[1.0, 0.0], [0.0, 1.0]]}})


def test_bounded_below_refuses_nan_on_the_domain():
    # the scan used to read NaN as +inf on the domain too, and found
    # xi = (1.414, 0) bounded below from the finite half alone
    p = sqrt_pair(-1.0)
    with pytest.raises(InputError, match="objective must be finite on the lattice"):
        is_C_bounded_below(p, [1.0, 0.0])
    with pytest.raises(InputError, match="objective must be finite on the lattice"):
        find_bounding_functional(p)


def test_bounded_below_reads_nan_outside_the_domain_as_infinite():
    # finite on [0, 1], NaN on the left half of every enlarged box
    p = sqrt_pair(0.0)
    v = is_C_bounded_below(p, [1.0, 0.0])
    assert v.verdict == EVIDENCE and v.detail["minima"] == [0.0, 0.0, 0.0, 0.0]
    assert is_C_bounded_below(p, [0.0, 1.0]).verdict == COUNTEREXAMPLE
    search = find_bounding_functional(p)
    np.testing.assert_array_equal(search.xi, [np.sqrt(2.0), 0.0])
    assert [v for _, v in search.scanned] == [COUNTEREXAMPLE, EVIDENCE]


def test_bounded_below_scans_the_domain_bounds_themselves():
    # center -+ half-width puts the lower bound at 0.19999999999999996, where
    # sqrt(x - 0.2) is NaN: that box was scanned as the domain, and its NaN
    # point dropped, so the minimum read 0.1097 instead of sqrt(0) = 0
    p = sqrt_pair(0.2, 0.97, root="x - 0.2")
    assert p.domain.scaled(1.0) is p.domain
    assert (p.domain.center - 0.5 * (p.domain.upper - p.domain.lower))[0] < 0.2
    assert is_C_bounded_below(p, [1.0, 0.0]).detail["minima"][0] == 0.0
