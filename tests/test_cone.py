from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wellposed import (
    ConeValidationError,
    InputError,
    NotInteriorPoint,
    OrderingCone,
    load_problem,
    orthant,
    registry,
)
from wellposed import cone as cone_module

DIAGNOSE3D = Path(__file__).resolve().parents[1] / "bench" / "diagnose3d.yaml"


def sorted_rows(a):
    a = np.asarray(a, dtype=float)
    return a[np.lexsort(a.T[::-1])]


def test_orthant_membership():
    c = orthant(2)
    assert c.contains([1.0, 2.0])
    assert not c.contains([0.0, 1.0], strict=True)
    assert c.contains([0.0, 1.0], strict=False)
    assert not c.contains([-1.0, 5.0])


def test_orthant_is_self_dual():
    c = orthant(2)
    np.testing.assert_allclose(sorted_rows(c.dual_generators), [[0.0, 1.0], [1.0, 0.0]])
    d = c.dual_cone()
    np.testing.assert_allclose(sorted_rows(d.generators), sorted_rows(c.generators))


def test_skew_cone_dual_generators_frozen():
    # cone{(1,0),(1,1)}: facets have unit normals (0,1) and (1,-1)/sqrt(2)
    c = OrderingCone(2, [[1.0, 0.0], [1.0, 1.0]])
    expected = sorted_rows([[0.0, 1.0], [np.sqrt(0.5), -np.sqrt(0.5)]])
    np.testing.assert_allclose(sorted_rows(c.dual_generators), expected, atol=1e-12)


def test_dual_of_dual_recovers_generators():
    c = OrderingCone(2, [[1.0, 0.0], [1.0, 2.0]])
    back = c.dual_cone().dual_cone()
    gens = sorted_rows(c.generators / np.linalg.norm(c.generators, axis=1, keepdims=True))
    np.testing.assert_allclose(sorted_rows(back.generators), gens, atol=1e-9)


def test_base_polytope_orthant_diagonal():
    c = orthant(2)
    verts = c.base_polytope(k0=[1.0, 1.0])
    np.testing.assert_allclose(sorted_rows(verts), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_base_polytope_scaling():
    verts = orthant(2).base_polytope(k0=[2.0, 1.0])
    np.testing.assert_allclose(sorted_rows(verts), [[0.0, 1.0], [0.5, 0.0]], atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_base_polytope_random_3d(seed):
    rng = np.random.default_rng(seed)
    gens = np.eye(3) + 0.3 * rng.random((3, 3))
    c = OrderingCone(3, gens)
    verts = c.base_polytope()
    assert verts.shape[0] == c.dual_generators.shape[0]
    np.testing.assert_allclose(verts @ c.k0, 1.0, atol=1e-9)
    for v in verts:
        assert c.dual_cone().contains(v)


def test_sample_dual_sphere_contains_generators_and_units():
    c = orthant(2)
    xs = c.sample_dual_sphere(2)
    present = {tuple(np.round(x, 12)) for x in xs}
    assert (1.0, 0.0) in present and (0.0, 1.0) in present
    np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0, atol=1e-9)
    dual = c.dual_cone()
    assert all(dual.contains(x, strict=False) for x in xs)


def test_sample_dual_sphere_deterministic():
    c = OrderingCone(2, [[1.0, 0.0], [1.0, 2.0]])
    np.testing.assert_array_equal(c.sample_dual_sphere(64), c.sample_dual_sphere(64))


def test_rejects_non_pointed_cone():
    with pytest.raises(InputError):
        OrderingCone(2, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])


def test_non_pointed_cone_is_decided_by_the_lp(monkeypatch):
    calls = []
    lp = cone_module._is_pointed
    monkeypatch.setattr(cone_module, "_is_pointed", lambda g: calls.append(g) or lp(g))
    with pytest.raises(ConeValidationError, match="not pointed"):
        OrderingCone(2, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert len(calls) == 1


def test_certified_cones_build_without_the_lp(monkeypatch):
    def no_lp(generators):
        raise AssertionError("pointedness LP called for a certified cone")

    monkeypatch.setattr(cone_module, "_is_pointed", no_lp)
    for m in range(1, 5):
        assert orthant(m).ambient_dim == m
    OrderingCone(2, [[1.0, 0.0], [1.0, 2.0]])
    assert load_problem(DIAGNOSE3D).cone.generators.shape == (6, 3)


@pytest.mark.parametrize("m, duals", [
    (2, [[1.0, 1.0]]),
    (3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]),
])
def test_incomplete_supplied_duals_are_refused(m, duals):
    # each list lies in the orthant's dual cone but misses a facet normal;
    # the first, once accepted, let the cone contain [1, -0.5]
    with pytest.raises(ConeValidationError, match="miss a facet normal"):
        OrderingCone(m, np.eye(m), dual_generators=duals)


def test_complete_supplied_duals_still_build(tmp_path):
    for m in range(1, 7):
        assert orthant(m).ambient_dim == m
    skew = OrderingCone(2, [[1.0, 0.0], [1.0, 1.0]])
    # a redundant dual generator inside C* is allowed next to the facet normals
    extra = np.vstack([skew.dual_generators, [[1.0, 1.0]]])
    OrderingCone(2, skew.generators, dual_generators=extra)
    skew.dual_cone()
    load_problem(DIAGNOSE3D).cone.dual_cone()
    for label in registry.labels():
        registry.get(label).build()
    cfg = tmp_path / "p.yaml"
    cfg.write_text("label: c\ndecision_dim: 1\nobjective_dim: 2\n"
                   "domain: {lower: [-1], upper: [1]}\n"
                   "cone: {generators: [[1, 0], [1, 1]], dual_generators: [[0, 1], [1, -1]]}\n"
                   "objective: ['x', 'x^2']\n")
    assert load_problem(cfg).cone.dual_generators.shape == (2, 2)


@pytest.mark.parametrize("gens", [
    1e-7 * np.array([[1.0, 0.01], [-1.0, 0.01]]),
    np.array([[0.0, 2e-6, 0.0], [-2e-6, 0.0, 0.0], [1e-3, 0.0, 2e-3], [0.0, 0.0, 1e-3],
              [-1e9, 0.0, -1e9]]),
])
def test_lp_rejection_of_badly_scaled_cone_is_kept(gens):
    # both cones are pointed, but the LP's absolute tolerances reject them
    # (tiny generators; lengths from 1e-6 to 1e9), and the skip must not
    # accept what the LP rejects
    assert not cone_module._is_pointed(gens)
    with pytest.raises(ConeValidationError, match="not pointed"):
        OrderingCone(gens.shape[1], gens)


def _pointedness_verdict(m, gens):
    try:
        OrderingCone(m, gens)
    except ConeValidationError as exc:
        if "not pointed" in str(exc):
            return False
    except InputError:
        pass  # raised after the pointedness check: facets, solidity, k0
    return True


@settings(deadline=None, max_examples=150)
@given(st.integers(2, 4), st.data())
def test_constructor_agrees_with_pointedness_lp(m, data):
    n = data.draw(st.integers(1, 5))
    entries = data.draw(st.lists(st.integers(-3, 3), min_size=n * m, max_size=n * m))
    gens = np.array(entries, dtype=float).reshape(n, m)
    if data.draw(st.booleans()):
        gens = np.vstack([gens, -gens[data.draw(st.integers(0, n - 1))]])
    # lengths from tiny to huge, mixed within one set: the LP's absolute
    # tolerances reject some pointed cones there, and so must the constructor
    lengths = st.sampled_from([1e-8, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9])
    gens = gens * np.array(data.draw(st.lists(lengths, min_size=len(gens),
                                              max_size=len(gens))))[:, None]
    assume(np.all(np.linalg.norm(gens, axis=1) > 1e-9))
    assert _pointedness_verdict(m, gens) == cone_module._is_pointed(gens)


def test_rejects_exterior_k0():
    with pytest.raises(NotInteriorPoint):
        OrderingCone(2, [[1.0, 0.0], [0.0, 1.0]], k0=[1.0, -1.0])


def test_rejects_dimension_mismatch():
    with pytest.raises(InputError):
        OrderingCone(3, [[1.0, 0.0], [0.0, 1.0]])


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 10_000), st.integers(2, 4))
def test_sampled_duals_nonnegative_on_generators(n, m):
    c = orthant(m)
    xs = c.sample_dual_sphere(n)
    assert xs.shape == (max(n, m), m)
    assert (xs @ c.generators.T).min() >= -c.tol


def test_cone_freezes_copies_not_the_callers_arrays():
    g, d, k0 = np.eye(2), np.eye(2), np.array([1.0, 1.0])
    c = OrderingCone(2, g, dual_generators=d, k0=k0)
    assert g.flags.writeable and d.flags.writeable and k0.flags.writeable
    for arr in (c.generators, c.dual_generators, c.k0, c.unit_generators):
        assert not arr.flags.writeable


def test_unit_generators_are_the_normalized_generators():
    c = OrderingCone(2, [[3.0, 0.0], [1.0, 2.0]])
    np.testing.assert_array_equal(
        c.unit_generators, c.generators / np.linalg.norm(c.generators, axis=1)[:, None])
    assert c.unit_generators is c.unit_generators


def test_sample_dual_sphere_rows_are_distinct():
    # the arc midpoint of a dual generator pair is the lattice weight with two
    # halves: for f = 2 and n = 8 it used to appear twice among 8 rows
    cones = [orthant(m) for m in (2, 3, 4)] + [OrderingCone(2, [[1.0, 0.0], [1.0, 2.0]])]
    for c in cones:
        for n in (8, 64, 2048):
            xs = c.sample_dual_sphere(n)
            assert np.unique(xs, axis=0).shape[0] == n, (c.generators.tolist(), n)


def test_sample_dual_sphere_rows_are_distinct_with_more_duals_than_dimensions():
    # with f > m dual generators, arcs of different generator pairs meet (the
    # midpoints of a square cone's two diagonals) and different simplex
    # weights give the same unit vector
    square = OrderingCone(3, [[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]])
    diagnose3d = load_problem(DIAGNOSE3D).cone
    for c in (square, diagnose3d):
        for n in (8, 27, 64, 2048, 10_000):
            xs = c.sample_dual_sphere(n)
            assert xs.shape[0] == n
            assert np.unique(xs, axis=0).shape[0] == n, (c.generators.tolist(), n)


def test_sample_dual_sphere_of_a_ray_repeats_its_dual_generator():
    np.testing.assert_array_equal(orthant(1).sample_dual_sphere(5), np.ones((5, 1)))


def test_sampled_duals_refill_past_degenerate_weights():
    # C* is a sliver around (0, 1): the only interior weight at the first
    # lattice, (1/2, 1/2), combines the duals to a vector of norm 1e-10
    eps = 1e-10
    c = OrderingCone(2, [[np.sin(eps), np.cos(eps)], [-np.sin(eps), np.cos(eps)]],
                     dual_generators=[[np.cos(eps), np.sin(eps)], [-np.cos(eps), np.sin(eps)]],
                     k0=[0.0, 100.0])
    for n in (3, 4, 7):
        xs = c.sample_dual_sphere(n)
        assert xs.shape == (n, 2)
        np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0, atol=1e-12)
        assert (xs @ c.generators.T).min() >= -c.tol


def test_strict_implies_nonstrict():
    c = OrderingCone(2, [[1.0, 0.0], [1.0, 2.0]])
    rng = np.random.default_rng(3)
    ys = rng.normal(size=(500, 2)) * 2.0
    for y in ys:
        if c.contains(y, strict=True):
            assert c.contains(y, strict=False)


def test_margin_batch_matches_single():
    c = OrderingCone(2, [[1.0, 0.0], [1.0, 2.0]])
    pts = np.random.default_rng(0).normal(size=(64, 2))
    batch = c.contains_batch(pts)
    single = np.array([c.contains(p) for p in pts])
    np.testing.assert_array_equal(batch, single)
