import hashlib
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

from oracles import cone_is_pointed, integer_facet_normals

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
    eye = np.eye(2)
    c = OrderingCone(2, eye, dual_generators=eye, k0=[1.0, 1.0])
    verts = c.base_polytope()
    np.testing.assert_allclose(sorted_rows(verts), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_base_polytope_scaling():
    eye = np.eye(2)
    verts = OrderingCone(2, eye, dual_generators=eye, k0=[2.0, 1.0]).base_polytope()
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


def test_non_pointed_cone_is_refused_without_an_lp(monkeypatch):
    import scipy.optimize

    def no_lp(*args, **kwargs):
        raise AssertionError("the cone constructor ran an LP")

    monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
    for gens in ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [-1.0, 0.0]],
                 [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]):
        with pytest.raises(ConeValidationError, match="not pointed"):
            OrderingCone(2, gens)


@pytest.mark.parametrize("m, duals", [
    (2, [[1.0, 1.0]]),
    (3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]),
    (5, np.eye(5)[:4]),
])
def test_incomplete_supplied_duals_are_refused(m, duals):
    # each list lies in the orthant's dual cone but misses a facet normal;
    # the first, once accepted, let the cone contain [1, -0.5], and the
    # last, once trusted above dimension 4, let it contain -e5
    with pytest.raises(ConeValidationError, match="miss a facet normal"):
        OrderingCone(m, np.eye(m), dual_generators=duals)


def test_supplied_duals_are_checked_on_the_unit_generators():
    # (1, -1) is -7e-9 on the raw generator (0, 1e-8), inside the slack, but
    # -0.7 on its unit generator; once accepted, the cone did not contain
    # its own generator direction (0, 1)
    with pytest.raises(ConeValidationError, match="not valid"):
        OrderingCone(2, [[1.0, 0.0], [0.0, 1e-8]],
                     dual_generators=[[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]], k0=[1.0, 0.1])


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


def test_tiny_pointed_cone_is_accepted_with_its_unit_scale_facet_normals():
    # both generators are positive on e2; a pointedness LP with absolute
    # tolerances called this cone one that contains a line
    c = OrderingCone(2, 1e-7 * np.array([[1.0, 0.01], [-1.0, 0.01]]))
    facets = np.array([[-0.01, 1.0], [0.01, 1.0]]) / np.hypot(0.01, 1.0)
    gaps = np.linalg.norm(facets[:, None, :] - c.dual_generators[None, :, :], axis=2)
    assert gaps.shape == (2, 2) and gaps.min(axis=1).max() <= cone_module.DUAL_VALIDITY_TOL


def test_badly_scaled_cone_containing_a_line_is_refused():
    # (2e6, 1e6) and (-2e3, -1e3) span the line through (2, 1); the other
    # generators lie on one side of it, so the cone is a half-plane
    gens = [[2e6, 1e6], [-3e-6, 0.0], [0.0, 3e9], [-3e-6, 2e-6], [-2e3, -1e3]]
    with pytest.raises(ConeValidationError, match="not pointed"):
        OrderingCone(2, gens)


@pytest.mark.parametrize("gens", [
    [[0.0, 2e-6, 0.0], [-2e-6, 0.0, 0.0], [1e-3, 0.0, 2e-3], [0.0, 0.0, 1e-3], [-1e9, 0.0, -1e9]],
    [[2e3, 3e3, -1e3], [0.0, 0.0, 3e9], [-2e-8, 0.0, -3e-8], [-1.0, 3.0, 1.0]],
], ids=["lengths-2e-6-to-1e9", "lengths-4e-8-to-3e9"])
def test_raw_duals_missing_a_unit_facet_normal_are_refused(gens):
    # both cones are pointed and solid, but the facet enumeration on the raw
    # generators tests nonnegativity with an absolute tolerance, so it keeps
    # too few normals (the second cone got 2, and contained v and -v)
    gens = np.array(gens)
    unit = gens / np.linalg.norm(gens, axis=1)[:, None]
    assert cone_is_pointed(gens)
    assert cone_module._enumerate_facet_normals(unit, 1e-9).shape[0] > 2
    with pytest.raises(ConeValidationError, match="miss a facet normal"):
        OrderingCone(3, gens)


def _pointedness_verdict(m, gens):
    """The constructor's outcome: an OrderingCone, or the message it raised."""
    try:
        return OrderingCone(m, gens)
    except InputError as exc:
        return str(exc)


def _random_integer_generators(m, data):
    n = data.draw(st.integers(1, 5))
    entries = data.draw(st.lists(st.integers(-3, 3), min_size=n * m, max_size=n * m))
    gens = np.array(entries, dtype=float).reshape(n, m)
    if data.draw(st.booleans()):
        gens = np.vstack([gens, -gens[data.draw(st.integers(0, n - 1))]])
    assume(np.all(np.any(gens != 0, axis=1)))
    return gens


@settings(deadline=None, max_examples=150)
@given(st.integers(2, 6), st.data())
def test_constructor_agrees_with_pointedness_lp(m, data):
    gens = _random_integer_generators(m, data)
    verdict = _pointedness_verdict(m, gens)
    refused_as_line = isinstance(verdict, str) and "not pointed" in verdict
    assert refused_as_line != cone_is_pointed(gens)


@pytest.mark.kernel
@settings(deadline=None, max_examples=300)
@given(st.integers(2, 6), st.data())
def test_scaled_generators_keep_pointedness_and_facet_normals(m, data):
    # the cone does not change when a generator is rescaled, so neither may
    # the verdict: lengths from tiny to huge, mixed within one set
    gens = _random_integer_generators(m, data)
    lengths = st.sampled_from([1e-8, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9])
    scaled = gens * np.array(data.draw(st.lists(lengths, min_size=len(gens),
                                                max_size=len(gens))))[:, None]
    verdict = _pointedness_verdict(m, scaled)
    if not cone_is_pointed(gens):
        assert isinstance(verdict, str) and "not pointed" in verdict
        return
    if isinstance(verdict, str):
        assert "not pointed" not in verdict
        return
    facets = integer_facet_normals(gens)
    gaps = np.linalg.norm(facets[:, None, :] - verdict.dual_generators[None, :, :], axis=2)
    assert gaps.min(axis=1).max() <= cone_module.DUAL_VALIDITY_TOL
    assert (verdict.unit_generators @ verdict.dual_generators.T).min() >= -cone_module.DUAL_VALIDITY_TOL


@pytest.mark.kernel
@settings(deadline=None, max_examples=12)
@given(st.integers(5, 6), st.data())
def test_dual_lists_missing_one_facet_normal_are_refused(m, data):
    # positive first coordinates make the cone pointed; every enumerated
    # dual generator is a facet normal, so no list without one of them
    # describes the cone
    k = data.draw(st.integers(m, m + 3))
    entries = data.draw(st.lists(st.integers(-3, 3), min_size=k * m, max_size=k * m))
    gens = np.array(entries, dtype=float).reshape(k, m)
    gens[:, 0] = np.abs(gens[:, 0]) + 1.0
    verdict = _pointedness_verdict(m, gens)
    assume(not isinstance(verdict, str))  # a cone that is not solid has no k0
    for i in range(verdict.dual_generators.shape[0]):
        with pytest.raises(ConeValidationError, match="miss a facet normal"):
            OrderingCone(m, gens, dual_generators=np.delete(verdict.dual_generators, i, axis=0))


def _no_subset_svd(monkeypatch):
    """Make the subset enumeration fail loudly if it gets past its budget."""
    svd = np.linalg.svd

    def only_2d(a, *args, **kwargs):
        if np.ndim(a) > 2:
            raise AssertionError("the subset stack was built")
        return svd(a, *args, **kwargs)

    def no_combinations(*args):
        raise AssertionError("the subsets were enumerated")

    monkeypatch.setattr(np.linalg, "svd", only_2d)
    monkeypatch.setattr(cone_module.itertools, "combinations", no_combinations)


def test_facet_enumeration_over_the_subset_budget_is_refused_before_any_subset(monkeypatch):
    # the orthant of R^5 takes C(5, 4) = 5 subsets, at the budget
    monkeypatch.setattr(cone_module, "CONE_SUBSET_BUDGET", 5)
    orthant(5)
    monkeypatch.setattr(cone_module, "CONE_SUBSET_BUDGET", 4)
    _no_subset_svd(monkeypatch)
    with pytest.raises(InputError, match="needs 5 generator subsets; the budget is 4"):
        orthant(5)
    # C(30, 9) = 14,307,150 subsets: supplied duals no longer skip the check
    monkeypatch.undo()
    _no_subset_svd(monkeypatch)
    gens = np.abs(np.random.default_rng(0).normal(size=(30, 10))) + 0.1
    for duals in (np.eye(10), None):
        with pytest.raises(InputError, match="needs 14307150 generator subsets; the budget is"):
            OrderingCone(10, gens, dual_generators=duals)


def test_dual_faces_over_the_subset_budget_are_refused_before_any_pinv(monkeypatch):
    # each of the 5 generators of the orthant of R^5 is orthogonal to 4 of
    # its duals, so 5 * (2^4 - 1) = 75 supports are counted (30 distinct);
    # the orthant of R^24 counts 24 * (2^23 - 1), each a pseudo-inverse
    monkeypatch.setattr(cone_module, "CONE_SUBSET_BUDGET", 75)
    assert len(orthant(5).dual_faces) == 30
    monkeypatch.undo()
    small, big = orthant(5), orthant(24)

    def no_pinv(*args, **kwargs):
        raise AssertionError("a pseudo-inverse was computed")

    monkeypatch.setattr(np.linalg, "pinv", no_pinv)
    _no_subset_svd(monkeypatch)
    with pytest.raises(InputError, match="needs 201326568 face supports; the budget is 100000"):
        big.dual_faces
    monkeypatch.setattr(cone_module, "CONE_SUBSET_BUDGET", 74)
    with pytest.raises(InputError, match="needs 75 face supports; the budget is 74"):
        small.dual_faces


def test_dual_samples_over_the_subset_budget_are_refused_before_any_is_built(monkeypatch):
    # the orthant of R^6 has f = 6 duals, so 7 samples leave one to draw
    # from the simplex lattice of step 1/2: C(7, 5) = 21 rows
    monkeypatch.setattr(cone_module, "CONE_SUBSET_BUDGET", 21)
    assert orthant(6).sample_dual_sphere(7).shape == (7, 6)
    assert orthant(1).sample_dual_sphere(21).shape == (21, 1)

    def no_lattice(*args):
        raise AssertionError("a simplex lattice was built")

    monkeypatch.setattr(cone_module, "simplex_lattice", no_lattice)
    monkeypatch.setattr(cone_module, "CONE_SUBSET_BUDGET", 20)
    with pytest.raises(InputError, match="simplex lattice of 21 rows; the budget is 20"):
        orthant(6).sample_dual_sphere(7)
    with pytest.raises(InputError, match="sampling 21 dual directions exceeds the budget of 20"):
        orthant(1).sample_dual_sphere(21)


@pytest.mark.parametrize("k0", [[np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]])
def test_non_finite_k0_is_refused(k0):
    # NaN compares false with the interiority test, so it once passed it and
    # gave an all-NaN base polytope
    with pytest.raises(InputError, match="^k0 must be finite"):
        OrderingCone(2, np.eye(2), k0=k0)


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
    batch = c.margins(pts) >= -c.tol
    single = np.array([c.contains(p) for p in pts])
    np.testing.assert_array_equal(batch, single)


# sha256 of each cone's generators, dual generators and k0 (dtype, shape and
# bytes), recorded before pointedness moved from an LP to the facet
# enumeration on unit generators; "... dual" is the cone's dual_cone()
CONE_DIGESTS = {
    "registry zero-function": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry x-minus-x": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry quad-pair": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry x-x2": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry x-minus-xex": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry biquad": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry abs-pair": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry exp-linear": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry quad-2d": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry skew-cone-quad": "011a320b3c2c595d0de4735f8d6be9abb933d0fb9e75dc8dce9e0eae6a332eba",
    "registry hilbert-truncation-2": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "bench/diagnose3d.yaml": "9c3cf28047390351d28b3480010b09f36cd7b50a7bb0dbec06a1434aac34bf37",
    "orthant(1)": "cd6fbf170df0a6db1033525f538f0290ecdfdd99b499cd307761b7973812da08",
    "orthant(2)": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "orthant(3)": "832dc495b9abb4d576a0058c14e7c6e8115a23335971ba758b3813545687ac50",
    "orthant(4)": "b07aad22b530481185011ad8fc6dbc5399270f732b16dc94f615463c6a157f5e",
    "orthant(5)": "0a1236e00070ed4cbd877eaf14db48966893968909d2a8bf6279dfc68829be98",
    "orthant(6)": "4760e345deb36c5cf9096c7c1af3b6f63ae1db4fc9872c8c1f55c081836a82d5",
    "skew": "41fcb2e00dd48aa3619f10ee3230f7daeb67f19fcd0a44763be624bc322eba59",
    "registry zero-function dual": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry x-minus-x dual": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry quad-pair dual": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry x-x2 dual": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry x-minus-xex dual": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry biquad dual": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry abs-pair dual": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry exp-linear dual": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry quad-2d dual": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "registry skew-cone-quad dual": "7e6e4878726eb13650afb373396c05b20577fc42bf6217386e0c98ca69c81361",
    "registry hilbert-truncation-2 dual": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "bench/diagnose3d.yaml dual": "3dd91f51dd211fac560b3e405fad391bb3b361822a68a9e4b215d9b7ef201547",
    "orthant(1) dual": "cd6fbf170df0a6db1033525f538f0290ecdfdd99b499cd307761b7973812da08",
    "orthant(2) dual": "ce4409a09e27282f0a66f44f90d11ec12d6ea4332883babd4b51b309e689b0b5",
    "orthant(3) dual": "832dc495b9abb4d576a0058c14e7c6e8115a23335971ba758b3813545687ac50",
    "orthant(4) dual": "b07aad22b530481185011ad8fc6dbc5399270f732b16dc94f615463c6a157f5e",
    "orthant(5) dual": "0a1236e00070ed4cbd877eaf14db48966893968909d2a8bf6279dfc68829be98",
    "orthant(6) dual": "4760e345deb36c5cf9096c7c1af3b6f63ae1db4fc9872c8c1f55c081836a82d5",
    "skew dual": "319d892317f11b48781ba00c58bc9b7e19a592c77ac19e3e43ae8c65d81e2f16",
}


def cone_digest(cone):
    h = hashlib.sha256()
    for arr in (cone.generators, cone.dual_generators, cone.k0):
        h.update(repr((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.kernel
def test_cone_arrays_match_recorded_digests():
    cones = {f"registry {e.label}": e.build().cone for e in registry.ENTRIES}
    cones["bench/diagnose3d.yaml"] = load_problem(DIAGNOSE3D).cone
    cones.update({f"orthant({m})": orthant(m) for m in range(1, 7)})
    cones["skew"] = OrderingCone(2, [[1.0, 0.0], [1.0, 1.0]])  # the distance demo's cone
    cones.update({f"{name} dual": c.dual_cone() for name, c in list(cones.items())})
    assert set(cones) == set(CONE_DIGESTS)
    for name, c in cones.items():
        assert cone_digest(c) == CONE_DIGESTS[name], name
