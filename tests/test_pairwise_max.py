"""The blocked pair sweep behind diameter equals scipy's pdist maximum.

_pairwise_max must give pdist(points).max() bit for bit on random,
lattice and offset point sets in d = 2..10 up to the direct-route size,
keep its working memory fixed whatever the row count, and serve
diameter's fallback when the hull cannot be built.  diameter, which drops
the rows strictly inside their lattice lines first, must give the same
bits.  A scipy release that changes pdist's summation order fails here by
name.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.spatial
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
    # two 32 x 4096 buffers and a transposed copy; pdist's condensed buffer
    # for these rows would take 400 MB
    pts = np.random.default_rng(0).standard_normal((10_000, 3))
    tracemalloc.start()
    try:
        got = _pairwise_max(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert got == brute_max_distance(pts)


def test_hull_failure_falls_back_to_the_pair_sweep(monkeypatch):
    refused = []

    def no_hull(points):
        refused.append(len(points))
        raise scipy.spatial.QhullError("refused for the test")

    monkeypatch.setattr(scipy.spatial, "ConvexHull", no_hull)
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((3200, 3))
    assert pts.shape[0] > _DIRECT_DIAMETER_MAX
    # the fallback measures in the coordinates of diameter's hull route
    assert diameter(pts) == brute_max_distance(span_coords(pts))
    assert refused == [len(pts)]  # no row of a random cloud lies inside a lattice line
