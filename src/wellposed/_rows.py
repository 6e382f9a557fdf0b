"""Reductions along the short axis of (n, k) arrays, one column at a time.

The scans reduce lattice-sized arrays of facet margins, images and
coordinates across k = 1..6 columns.  Reducing a 262,144 x k chunk along
that short axis takes NumPy (2.4, x86-64) 10-25 times as long as k
elementwise ufunc passes over the columns, and subtracting one (k,) row
from every row of it 3-4 times as long.  Each sweep below gives the
same bits as the expression it stands for, infinities and -0.0
included, and NaN where that gives NaN (NumPy's own choice of the NaN's
sign and payload depends on the memory layout); tests/test_rows.py
compares them byte for byte.  NumPy reduces rows of fewer than 8 values
in column order; from 8 on it regroups them (pairwise sums; min and max
then pick between +0.0 and -0.0 differently), so wider arrays take
NumPy's own route.
"""

from __future__ import annotations

import numpy as np


def _sweep(ufunc, a):
    if not 0 < a.shape[1] < 8:
        return ufunc.reduce(a, axis=1)  # as a.min(axis=1) or a.max(axis=1)
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        ufunc(out, a[:, j], out=out)
    return out


def row_min(a):
    """a.min(axis=1)."""
    return _sweep(np.minimum, a)


def row_max(a):
    """a.max(axis=1)."""
    return _sweep(np.maximum, a)


def _row_all(compare, a, b):
    b = np.broadcast_to(b, a.shape)
    out = np.ones(a.shape[0], dtype=bool)
    for j in range(a.shape[1]):
        out &= compare(a[:, j], b[:, j])
    return out


def row_all_le(a, bound):
    """np.all(a <= bound, axis=1); bound broadcasts against a, e.g. one bound
    row of shape (k,) or one bound per row of shape (n, 1)."""
    return _row_all(np.less_equal, a, bound)


def row_all_eq(a, b):
    """np.all(a == b, axis=1) for b of a's shape."""
    return _row_all(np.equal, a, b)


def row_norm(a):
    """np.linalg.norm(a, axis=1) for a float array."""
    if not 0 < a.shape[1] < 8:
        return np.linalg.norm(a, axis=1)
    out = a[:, 0] * a[:, 0]
    if a.shape[1] > 1:
        sq = np.empty_like(out)
        for j in range(1, a.shape[1]):
            np.multiply(a[:, j], a[:, j], out=sq)
            out += sq
    return np.sqrt(out, out=out)


def row_sub(a, b):
    """a - b for an (n, k) array and a (k,) row, in either order."""
    wide = a if a.ndim == 2 else b
    if not 0 < wide.shape[1] < 8:
        return a - b
    out = np.empty(wide.shape, dtype=np.result_type(a, b))
    for j in range(wide.shape[1]):
        np.subtract(a[..., j], b[..., j], out=out[:, j])
    return out
