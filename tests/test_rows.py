"""The row kernels give the bytes of the NumPy expressions they replace.

Each kernel is compared with the expression it stands for through
tobytes(), so the sign of a zero counts, on every width 0..12, on empty,
one- and two-row arrays and on large ones, and on C-contiguous arrays as
well as fancy-indexed, strided and Fortran-ordered row subsets.  A NaN
must come out exactly where NumPy gives one, but its sign and payload are
not compared: NumPy's own min and max return the canonical NaN on a
C-contiguous array and the row's NaN on a Fortran-ordered one.  A NumPy
release that changes its reduction order fails here by name rather than
as a report digest mismatch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wellposed._rows import row_all_eq, row_all_le, row_max, row_min, row_norm, row_sub

SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, 1e308, -1e308, 5e-324])
WIDTHS = range(13)


def outcome(fn, *args):
    """What fn returns, as (dtype, shape, bytes) with every NaN made the
    canonical one, or the exception type it raises."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except Exception as exc:  # the empty-row reductions raise
        return type(exc)
    if out.dtype.kind == "f":
        out = np.where(np.isnan(out), np.nan, out)
    return out.dtype, out.shape, out.tobytes()


def pairs(a, rng):
    """(kernel outcome, NumPy outcome) for every kernel on a."""
    n, k = a.shape
    bound_row = rng.choice(SPECIALS, k)
    bound_col = rng.choice(SPECIALS, (n, 1))
    other = a[rng.permutation(n)] if n else a.copy()
    yield outcome(row_min, a), outcome(lambda x: x.min(axis=1), a)
    yield outcome(row_max, a), outcome(lambda x: x.max(axis=1), a)
    yield outcome(row_norm, a), outcome(lambda x: np.linalg.norm(x, axis=1), a)
    for bound in (bound_row, bound_col, 0.0):
        yield (outcome(row_all_le, a, bound),
               outcome(lambda x, b: np.all(x <= b, axis=1), a, bound))
    for b in (a, other):
        yield outcome(row_all_eq, a, b), outcome(lambda x, y: np.all(x == y, axis=1), a, b)
    yield outcome(row_sub, a, bound_row), outcome(lambda x, r: x - r[None, :], a, bound_row)
    yield outcome(row_sub, bound_row, a), outcome(lambda r, x: r[None, :] - x, bound_row, a)


def layouts(a, rng):
    """a itself, fancy-indexed row subsets (as rows[members] makes them),
    a strided view and a Fortran-ordered copy."""
    n = a.shape[0]
    yield a
    yield a[np.sort(rng.choice(n, n // 2, replace=False))] if n else a[[]]
    yield a[rng.integers(0, n, n)] if n else a[[]]
    yield a[::2]
    yield np.asfortranarray(a)


def random_rows(n, k, rng):
    """Finite values over many binades with ties, plus about 5% special values."""
    a = rng.standard_normal((n, k)) * np.exp2(rng.integers(-40, 40, (n, k)))
    a[rng.random((n, k)) < 0.2] = np.round(a[0, 0]) if n and k else 0.0
    mask = rng.random((n, k)) < 0.05
    a[mask] = rng.choice(SPECIALS, int(mask.sum()))
    return a


def assert_kernels_match(a, rng):
    for arr in layouts(a, rng):
        for got, want in pairs(arr, rng):
            assert got == want, (arr.shape, arr.flags.c_contiguous)


@pytest.mark.parametrize("k", WIDTHS)
def test_kernels_match_numpy_on_large_arrays(k):
    rng = np.random.default_rng(k)
    assert_kernels_match(random_rows(200_000, k, rng), rng)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(WIDTHS), st.sampled_from([0, 1, 2, 3, 8, 1000]),
       st.integers(0, 2**32 - 1))
def test_kernels_match_numpy_on_random_rows(k, n, seed):
    rng = np.random.default_rng(seed)
    assert_kernels_match(random_rows(n, k, rng), rng)


@settings(deadline=None, max_examples=300)
@given(st.tuples(st.integers(0, 4), st.sampled_from(WIDTHS)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(width=64))),
       st.integers(0, 2**32 - 1))
def test_kernels_match_numpy_on_any_floats(a, seed):
    assert_kernels_match(a, np.random.default_rng(seed))


def test_signed_zeros_and_nans_are_kept():
    a = np.array([[-0.0, 0.0], [0.0, -0.0], [np.nan, 1.0], [1.0, np.nan], [-0.0, -0.0]])
    rng = np.random.default_rng(0)
    assert_kernels_match(a, rng)
    assert np.signbit(row_min(a[4:])).all() and np.isnan(row_max(a[2:4])).all()


def test_row_subtraction_keeps_signed_zeros_and_infinities():
    a = np.array([[0.0, -0.0, np.inf], [-0.0, 0.0, -np.inf], [1.0, -1.0, 5e-324]])
    row = np.array([-0.0, 0.0, np.inf])
    with np.errstate(invalid="ignore"):  # inf - inf
        cases = ((row_sub(a, row), a - row[None, :]), (row_sub(row, a), row[None, :] - a))
    for got, want in cases:
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)  # NaN exactly where NumPy's is
        num = ~np.isnan(want)
        assert got[num].tobytes() == want[num].tobytes()
    assert np.signbit(cases[0][0][0, 1]) and not np.signbit(cases[1][0][0, 1])  # -0 - 0, 0 - -0
