"""Acceptance battery: ten criteria, one test (and one printed line) each.

Each test prints its own PASS line so `pytest -v -s` reads as a checklist;
every tolerance is pinned in this file and is not configurable.
"""

import time

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from wellposed import (
    Box,
    NO,
    NoBoundingFunctional,
    OrderingCone,
    VectorProblem,
    WELL_POSED,
    YES,
    classify_point,
    dh_diagnostic,
    dh_via_scalarization,
    density_pipeline,
    ekeland_point,
    geometric_schedule,
    oriented_distance_batch,
    orthant,
    registry,
    scalarize_linear,
    sion_gap,
    tikhonov_regularize,
    tykhonov_diagnostic,
    weff_via_distance,
)

from oracles import evp_violations, game_value, orthant_distance

RNG_SEED = 20260814


def report(n, name, detail=""):
    print(f"criterion {n:2d} PASS  {name}" + (f"  [{detail}]" if detail else ""))


def rotation(seed, m=3):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(m, m)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_criterion_01_oriented_distance_oracle_equivalence():
    t0 = time.monotonic()
    cones = [(np.eye(3), orthant(3))]
    for seed in (11, 12):
        rot = rotation(seed)
        cones.append((rot, OrderingCone(3, rot.T)))
    rng = np.random.default_rng(RNG_SEED)
    worst_exact = 0.0
    worst_gap = 0.0
    for rot, cone in cones:
        ys = rng.normal(size=(10_000, 3)) * 2.0
        exact = oriented_distance_batch(cone, ys)
        closed = np.array([orthant_distance(rot.T @ y) for y in ys])
        worst_exact = max(worst_exact, float(np.abs(exact - closed).max()))
        assert np.abs(exact - closed).max() <= 1e-9
        dirs = cone.sample_dual_sphere(10_000)
        sampled = (ys @ dirs.T).max(axis=1)
        assert (sampled <= exact + 1e-9).all()
        assert (sampled >= exact - 1e-2).all()
        worst_gap = max(worst_gap, float((exact - sampled).max()))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(1, "oriented-distance oracle equivalence",
           f"closed-form dev {worst_exact:.2e}, sampling gap {worst_gap:.2e}, {elapsed:.1f}s")


def test_criterion_02_distance_property_battery():
    pool = [
        orthant(2),
        orthant(3),
        OrderingCone(2, [[1.0, 0.0], [1.0, 1.0]]),
        OrderingCone(2, [[1.0, 0.0], [1.0, 2.0]]),
        OrderingCone(3, np.eye(3) + 0.25 * np.random.default_rng(7).random((3, 3))),
    ]
    per = 2_000  # x5 cones = 1e4 instances per property
    rng = np.random.default_rng(RNG_SEED + 1)
    for cone in pool:
        m = cone.ambient_dim
        y1 = rng.normal(size=(per, m)) * 2.0
        y2 = rng.normal(size=(per, m)) * 2.0
        d1 = oriented_distance_batch(cone, y1)
        d2 = oriented_distance_batch(cone, y2)

        # 1-Lipschitz
        gaps = np.abs(d1 - d2) - np.linalg.norm(y1 - y2, axis=1)
        assert (gaps <= 1e-9).all()

        # sign trichotomy on constructed points
        third = per // 3
        coeffs = rng.uniform(0.2, 2.0, size=(third, cone.generators.shape[0]))
        interior = -(coeffs @ cone.generators)
        assert (oriented_distance_batch(cone, interior) < 0).all()
        exterior = coeffs @ cone.generators
        assert (oriented_distance_batch(cone, exterior) > 0).all()
        rays = rng.uniform(0.1, 3.0, size=third)
        pick = rng.integers(0, cone.generators.shape[0], size=third)
        boundary = -rays[:, None] * cone.generators[pick]
        db = oriented_distance_batch(cone, boundary)
        assert (np.abs(db) <= 1e-9 * (1.0 + rays)).all()

        # positive homogeneity
        for lam in (0.5, 2.0, 10.0):
            dl = oriented_distance_batch(cone, lam * y1)
            assert (np.abs(dl - lam * d1) <= 1e-9 * (1.0 + lam)).all()

        # midpoint convexity
        dm = oriented_distance_batch(cone, 0.5 * (y1 + y2))
        assert (dm <= 0.5 * (d1 + d2) + 1e-9).all()

        # quantitative order monotonicity: moving up the cone raises the
        # distance by at least the worst facet margin of the step
        step = rng.uniform(0.0, 1.5, size=(per, cone.generators.shape[0])) @ cone.generators
        d_up = oriented_distance_batch(cone, y1 + step)
        floor = (step @ cone.dual_generators.T).min(axis=1)
        assert (d_up - d1 >= floor - 1e-9).all()
    report(2, "distance property battery", f"{5 * per} instances x 5 properties")


def test_criterion_03_weak_efficiency_equivalence():
    checked = 0
    for entry in registry.core_entries():
        p = entry.build()
        for exp in entry.expectations:
            v = classify_point(p, exp.point, registry.RESOLUTION)
            by_distance = weff_via_distance(p, exp.point, registry.RESOLUTION)
            assert by_distance == (v.weakly_efficient == YES), (entry.label, exp.point)
            checked += 1
    assert len(registry.core_entries()) == 10
    report(3, "weak-efficiency two-route equivalence",
           f"{checked} points, 10 problems, 0 disagreements")


def test_criterion_04_dh_scalarization_equivalence():
    for entry in registry.ENTRIES:
        p = entry.build()
        sched = geometric_schedule(entry.dh_depth)
        direct = dh_diagnostic(p, entry.designated, alpha_schedule=sched,
                               grid_resolution=registry.RESOLUTION)
        scal = dh_via_scalarization(p, entry.designated, level_schedule=sched,
                                    grid_resolution=registry.RESOLUTION)
        assert direct.verdict == scal.verdict, entry.label
    report(4, "DH vs scalarized verdict agreement",
           f"{len(registry.ENTRIES)} problems, 0 disagreements")


def test_criterion_05_regularization_certificates():
    for label in ("zero-function", "x-minus-x"):
        p = registry.get(label).build()
        previous = np.inf
        for n in (1, 2, 4, 8):
            _, cert = tikhonov_regularize(p, [0.0], n)
            assert cert.efficient_at_center == YES, (label, n)
            assert cert.dh_verdict == WELL_POSED, (label, n)
            closed_form = (1.0 - 2.0 ** -20) / (n + 1)
            assert abs(cert.metric_value - closed_form) <= 1e-6, (label, n)
            assert cert.metric_value < previous
            previous = cert.metric_value
    report(5, "norm-cone regularization battery",
           "2 problems x n in {1,2,4,8}, metric matches series to 1e-6")


def _lattice_lookup_problem(rng, dim, resolution, label):
    box = Box(-np.ones(dim), np.ones(dim))
    values = rng.uniform(0.0, 10.0, size=resolution ** dim)
    h = 2.0 / (resolution - 1)

    def lookup(x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        steps = np.clip(np.rint((pts + 1.0) / h), 0, resolution - 1).astype(np.int64)
        flat = steps[:, 0]
        for j in range(1, dim):
            flat = flat * resolution + steps[:, j]
        v = values[flat]
        return np.stack([v, v], axis=1)

    p = VectorProblem(label=label, decision_dim=dim, objective_dim=2,
                      evaluator=lookup, domain=box, cone=orthant(2),
                      continuous=False)
    return scalarize_linear(p, [1.0, 0.0]), values


def test_criterion_06_discrete_ekeland_exactness():
    rng = np.random.default_rng(RNG_SEED + 6)
    cases = [(1, 100_000)] * 10 + [(2, 300)] * 10
    for k, (dim, resolution) in enumerate(cases):
        sp, values = _lattice_lookup_problem(rng, dim, resolution, f"ek{k}")
        pts = None
        epsilon = float(rng.uniform(0.05, 0.5))
        start_flat = int(rng.integers(0, resolution ** dim))
        start = sp.domain.lattice_points_at(resolution, [start_flat])[0]
        r = float((values[start_flat] - values.min()) / epsilon + 1.0)
        res = ekeland_point(sp, start, epsilon, r, grid_resolution=resolution)
        assert res.iterations <= resolution ** dim
        pts = sp.domain.lattice(resolution)
        viol = evp_violations(values, pts, res.x_hat, start, epsilon, r,
                              sp.domain.lattice_spacing(resolution))
        assert viol == (0, 0, 0), (k, viol)
    report(6, "discrete Ekeland exactness",
           "20 random lattices (up to 1e5 points), 0 violating points")


def test_criterion_07_pipeline_certificates_and_refusal():
    t0 = time.monotonic()
    bounded = registry.c_bounded_entries()
    assert len(bounded) == 10
    for entry in bounded:
        for sigma in (0.5, 0.1):
            _, cert = density_pipeline(entry.build(), sigma,
                                       grid_resolution=registry.RESOLUTION)
            assert cert.d_f_h < sigma, (entry.label, sigma)
            assert cert.d_f_g < sigma / 2, (entry.label, sigma)
            assert cert.d_g_h <= sigma / 2 + cert.metric_tail, (entry.label, sigma)
            assert cert.dh_verdict == WELL_POSED, (entry.label, sigma)
    with pytest.raises(NoBoundingFunctional):
        density_pipeline(registry.get("x-minus-xex").build(), 0.5, grid_resolution=201)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(7, "density pipeline certificates",
           f"10 problems x 2 sigmas + 1 refusal, {elapsed:.1f}s")


def test_criterion_08_sion_minimax_verification():
    rng = np.random.default_rng(RNG_SEED + 8)
    for k in range(50):
        kz = int(rng.integers(2, 5))
        kw = int(rng.integers(2, 5))
        a = rng.normal(size=(kz, kw))
        if k % 2 == 0:
            lo = rng.uniform(-1.0, 0.0, size=kw)
            gap = sion_gap(a, Box(lo, lo + rng.uniform(0.3, 1.5, size=kw)),
                           z_subdivisions=48, w_resolution=17)
        else:
            gap = sion_gap(a, "simplex", z_subdivisions=48)
        v = gap.sup_inf_exact
        assert abs(gap.sup_inf_exact - gap.inf_sup_exact) <= 1e-6, k
        assert abs(gap.sup_inf - gap.inf_sup) <= 2.0 * gap.lattice_error, k
        assert gap.sup_inf <= v + 1e-6, k
        assert gap.inf_sup >= v - 1e-6, k
        if k % 2 == 1:
            assert abs(v - game_value(a)) <= 1e-6, k
    report(8, "Sion minimax brackets", "50 bilinear games, dims <= 4")


def test_criterion_09_convex_well_posedness():
    rng = np.random.default_rng(RNG_SEED + 9)
    box = Box(np.array([-2.0]), np.array([2.0]))
    for k in range(50):
        a = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(-1.5, 1.5))
        d = float(rng.uniform(-1.0, 1.0))
        p = VectorProblem(
            label=f"pd{k}", decision_dim=1, objective_dim=2,
            evaluator=(lambda a, c, d: lambda x: np.stack(
                [a * (x[:, 0] - c) ** 2 + d] * 2, axis=1))(a, c, d),
            domain=box, cone=orthant(2))
        rep = tykhonov_diagnostic(scalarize_linear(p, [1.0, 0.0]),
                                  level_schedule=geometric_schedule(20),
                                  grid_resolution=201)
        assert rep.verdict == WELL_POSED, k
    for k in range(50):
        lam = rng.uniform(0.5, 2.0, size=2)
        c = float(-2.0 + 0.02 * rng.integers(25, 176))  # on-lattice center
        p = VectorProblem(
            label=f"cc{k}", decision_dim=1, objective_dim=2,
            evaluator=(lambda lam, c: lambda x: np.stack(
                [lam[0] * (x[:, 0] - c) ** 2, lam[1] * (x[:, 0] - c) ** 2], axis=1))(lam, c),
            domain=box, cone=orthant(2))
        rep = dh_diagnostic(p, [c], alpha_schedule=geometric_schedule(20),
                            grid_resolution=201)
        assert rep.verdict == WELL_POSED, k
    report(9, "finite-dimensional convex well-posedness", "50/50 scalar, 50/50 vector")


def test_criterion_10_level_diameter_scaling():
    for d in (2, 4, 8):
        resolution = registry.hilbert_resolution(d)
        box = Box(-np.ones(d), np.ones(d))
        weights = 1.0 / np.arange(1, d + 1) ** 2
        selected = []
        for pts, _ in box.iter_lattice(resolution):
            vals = (pts * pts) @ weights
            sel = pts[vals <= 0.01 + 1e-9]
            if sel.size:
                selected.append(sel)
        cloud = np.vstack(selected)
        measured = float(pdist(cloud).max())
        spacing = box.lattice_spacing(resolution)
        assert abs(measured - 0.2 * d) <= 2.0 * spacing, (d, measured)
    report(10, "level-set diameter scaling", "d in {2,4,8} at level 0.01")
