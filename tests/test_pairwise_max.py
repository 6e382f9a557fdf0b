"""The pruned pair sweep behind diameter equals scipy's pdist maximum.

_pairwise_max must give pdist(points).max() bit for bit on random,
lattice and offset point sets in d = 2..10 up to the direct-route size,
and keep its working memory fixed whatever the row count.  Its radius
prune must keep the full sweep's bits on the sets where the fewest rows
can be dropped (spheres, simplex corners, sets of constant width,
repeated rows, slabs and planes), on either side of the direct-route
size.  diameter, which drops the rows strictly inside their lattice
lines first, must give the same bits.  A scipy release that changes
pdist's summation order fails here by name.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from wellposed import Box, diameter
from wellposed.problem import _DIRECT_DIAMETER_MAX, _off_line_ends, _pairwise_max

from oracles import brute_max_distance, span_coords

SIZES = (2, 3, 31, 33, 500, 3000)  # around the 32-row strips, up to the direct-route cap
KINDS = ("random", "lattice", "offset")


def point_set(kind, n, d, rng):
    if kind == "random":
        return rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3)
    if kind == "lattice":
        # a lattice ball in flat-index order, as level sets come: many ties
        # in every coordinate, and whole lattice lines for _off_line_ends
        res = 2
        while res ** d < 4 * n:
            res += 1
        box = Box(-rng.uniform(0.5, 2.0, d), rng.uniform(0.5, 2.0, d))
        lattice = box.lattice(res)
        r = np.linalg.norm(lattice - rng.uniform(-0.5, 0.5, d), axis=1)
        return lattice[np.sort(np.argsort(r, kind="stable")[:n])]
    # far from the origin: the differences cancel most of each coordinate
    return 1e6 * rng.standard_normal(d) + rng.standard_normal((n, d))


@pytest.mark.parametrize("d", range(2, 11))
@pytest.mark.parametrize("kind", KINDS)
def test_pairwise_max_equals_pdist_bit_for_bit(kind, d):
    rng = np.random.default_rng([d, KINDS.index(kind)])
    for n in SIZES:
        pts = point_set(kind, n, d, rng)
        assert n <= _DIRECT_DIAMETER_MAX
        want = float(pdist(pts).max())
        assert _pairwise_max(pts) == want
        assert diameter(pts) == want


def test_diameter_drops_line_interiors_and_keeps_pdist_bits():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        pts = point_set("lattice", _DIRECT_DIAMETER_MAX, d, rng)
        assert _off_line_ends(pts).sum() < len(pts) // 2  # the reduction is active
        plateau = pts.copy()
        plateau[:, -1] = np.minimum(plateau[:, -1], np.median(plateau[:, -1]))
        for variant in (pts, pts[rng.permutation(len(pts))], plateau,
                        np.repeat(pts[:1500], 2, axis=0), np.tile(pts[:1500], (2, 1))):
            assert diameter(variant) == float(pdist(variant).max())


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(KINDS), st.integers(2, 12), st.integers(2, 400),
       st.integers(0, 2**32 - 1))
def test_pairwise_max_equals_pdist_on_random_sets(kind, d, n, seed):
    pts = point_set(kind, n, d, np.random.default_rng(seed))
    got = _pairwise_max(pts)
    assert got == float(pdist(pts).max())
    assert diameter(pts) == got


def test_pairwise_max_memory_is_fixed():
    # two 32 x 4096 buffers, a transposed copy and a few n-vectors of radii
    # and sums; pdist's condensed buffer for these rows would take 400 MB
    pts = np.random.default_rng(0).standard_normal((10_000, 3))
    tracemalloc.start()
    try:
        got = _pairwise_max(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert got == brute_max_distance(pts)


def reuleaux_lattice(res):
    """Lattice points of [-1, 1]^2 inside the Reuleaux triangle of width 2 on
    an equilateral triangle centred at the origin: a set of constant width,
    whose every boundary point has a partner at the diameter."""
    grid = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])).lattice(res)
    angles = np.pi / 2 + 2 * np.pi / 3 * np.arange(3)
    corners = (2 / np.sqrt(3)) * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    inside = np.all(np.linalg.norm(grid[:, None] - corners[None], axis=2) <= 2.0, axis=1)
    return grid[inside]


def prune_hard_sets(rng):
    """A random cloud and the sets that stress the radius prune: rows about
    as far from the bounding-box centre as the farthest pair allows
    (spheres, simplex corners, constant width), exact ties (repeated rows)
    and flat sets (slabs and planes)."""
    yield "random cloud", rng.standard_normal((3200, 3))
    for n, d in ((2000, 3), (3600, 3), (3200, 4)):
        v = rng.standard_normal((n, d))
        yield f"sphere {n}x{d}", v / np.linalg.norm(v, axis=1)[:, None]
    for res in (15, 12):  # 3,060 and 1,365 rows
        lattice = Box(np.zeros(4), np.ones(4)).lattice(res)
        yield f"simplex corner {res}", lattice[lattice.sum(axis=1) <= 1.0 + 1e-12]
    yield "reuleaux 81", reuleaux_lattice(81)
    yield "reuleaux 51", reuleaux_lattice(51)
    pair = np.array([[0.25, -1.5, 2.0], [1.75, 0.5, -0.5]])
    yield "two rows repeated", np.tile(pair, (1700, 1))
    cloud = rng.standard_normal((1100, 3))
    yield "cloud repeated", np.repeat(cloud, 3, axis=0)
    u, w = np.meshgrid(np.linspace(-1, 1, 61), np.linspace(0, 2, 61), indexing="ij")
    yield "plane in R^3", np.stack([u.ravel(), w.ravel(), 0.3 * u.ravel() - w.ravel()], axis=1)
    yield "slab", np.stack([u.ravel(), w.ravel(), 1e-7 * rng.standard_normal(u.size)], axis=1)
    basis = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    yield "plane in R^4", (rng.standard_normal((3100, 2)) @ basis.T) + 5.0


def test_pruned_sweep_equals_the_full_sweep():
    rng = np.random.default_rng(7)
    for name, pts in prune_hard_sets(rng):
        want = brute_max_distance(pts)
        assert _pairwise_max(pts) == want, name
        if pts.shape[0] > _DIRECT_DIAMETER_MAX:
            # diameter measures in the coordinates of the affine span
            assert diameter(pts) == brute_max_distance(span_coords(pts)), name
        else:
            assert diameter(pts) == want, name
