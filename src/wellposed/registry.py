"""Built-in benchmark problems with worked-out classification facts.

Each entry records what the classifier should report at specific points,
at the entry's stated lattice resolution, together with how the fact was
obtained: "direct" facts are immediate from the formula, "derived" facts
come from a short hand computation (noted per entry).  Tests re-check
every expectation against an independent brute-force scan.

Entries marked core form the d <= 2 battery used by the agreement suites;
c_bounded marks entries whose scalarization through some base functional
stays bounded below under domain expansion (the pipeline's gate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cone import OrderingCone, orthant
from .diagnostics import NOT_WELL_POSED, WELL_POSED
from .errors import InputError
from .problem import Box, ScalarProblem, VectorProblem, diameter


@dataclass(frozen=True)
class ExpectedStatus:
    """Classification the registry asserts at one point.

    basis is "direct" when the fact needs no computation beyond the
    defining formula, "derived" when it rests on a hand calculation.
    """

    point: tuple
    efficient: str
    weakly_efficient: str
    strictly_efficient: str
    basis: str


@dataclass(frozen=True)
class RegistryEntry:
    label: str
    build: Callable[[], VectorProblem]
    designated: tuple
    expectations: tuple
    core: bool
    c_bounded: bool
    dh_verdict: str
    resolution: int
    dh_depth: int
    note: str = ""


def _box1(lo=-1.0, hi=1.0):
    return Box((lo,), (hi,))


def _box2(lo=-1.0, hi=1.0):
    return Box((lo, lo), (hi, hi))


# evaluators at module level so problems rebuild identically

def _f_zero(X):
    return np.zeros((X.shape[0], 2))


def _f_x_minus_x(X):
    x = X[:, 0]
    return np.stack([x, -x], axis=1)


def _f_quad_pair(X):
    x = X[:, 0]
    return np.stack([x * x, x * x], axis=1)


def _f_x_x2(X):
    x = X[:, 0]
    return np.stack([x, x * x], axis=1)


def _f_x_minus_xex(X):
    x = X[:, 0]
    return np.stack([x, -x * np.exp(x)], axis=1)


def _f_biquad(X):
    x = X[:, 0]
    return np.stack([x ** 4, (x - 1.0) ** 4], axis=1)


def _f_abs_pair(X):
    x = X[:, 0]
    return np.stack([np.abs(x - 0.3), np.abs(x + 0.5)], axis=1)


def _f_exp_linear(X):
    x = X[:, 0]
    return np.stack([np.exp(x), -x], axis=1)


def _f_quad_2d(X):
    x1, x2 = X[:, 0], X[:, 1]
    return np.stack([x1 * x1 + x2 * x2, (x1 - 1.0) ** 2 + x2 * x2], axis=1)


def _f_skew_quad(X):
    t = X[:, 0] - 0.5
    return np.stack([t * t, t * t + t], axis=1)


def _f_hilbert2(X):
    x1, x2 = X[:, 0], X[:, 1]
    return np.stack([x1 * x1, x2 * x2 / 4.0], axis=1)


def build_zero_function():
    return VectorProblem("zero-function", 1, 2, _f_zero, _box1(), orthant(2))


def build_x_minus_x():
    return VectorProblem("x-minus-x", 1, 2, _f_x_minus_x, _box1(), orthant(2))


def build_quad_pair():
    return VectorProblem("quad-pair", 1, 2, _f_quad_pair, _box1(), orthant(2))


def build_x_x2():
    return VectorProblem("x-x2", 1, 2, _f_x_x2, _box1(-3.0, 3.0), orthant(2))


def build_x_minus_xex():
    return VectorProblem("x-minus-xex", 1, 2, _f_x_minus_xex, _box1(-3.0, 3.0), orthant(2))


def build_biquad():
    return VectorProblem("biquad", 1, 2, _f_biquad, _box1(), orthant(2))


def build_abs_pair():
    return VectorProblem("abs-pair", 1, 2, _f_abs_pair, _box1(), orthant(2))


def build_exp_linear():
    return VectorProblem("exp-linear", 1, 2, _f_exp_linear, _box1(), orthant(2))


def build_quad_2d():
    return VectorProblem("quad-2d", 2, 2, _f_quad_2d, _box2(), orthant(2))


def build_skew_cone_quad():
    cone = OrderingCone(2, np.array([[1.0, 0.0], [1.0, 2.0]]))
    return VectorProblem("skew-cone-quad", 1, 2, _f_skew_quad, _box1(), cone)


def build_hilbert_truncation_2():
    return VectorProblem("hilbert-truncation-2", 2, 2, _f_hilbert2, _box2(), orthant(2))


_Y, _N, _I = "yes", "no", "inconclusive"

ENTRIES = (
    RegistryEntry(
        label="zero-function",
        build=build_zero_function,
        designated=(0.0,),
        expectations=(
            ExpectedStatus((0.0,), _Y, _Y, _N, "direct"),
            ExpectedStatus((0.5,), _Y, _Y, _N, "direct"),
            ExpectedStatus((-1.0,), _Y, _Y, _N, "direct"),
        ),
        core=True, c_bounded=True, dh_verdict=NOT_WELL_POSED,
        resolution=201, dh_depth=20,
        note="constant image: everything efficient, nothing strictly; level sets never shrink",
    ),
    RegistryEntry(
        label="x-minus-x",
        build=build_x_minus_x,
        designated=(0.0,),
        expectations=(
            ExpectedStatus((0.0,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((0.5,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((-1.0,), _Y, _Y, _Y, "derived"),
        ),
        core=True, c_bounded=True, dh_verdict=WELL_POSED,
        resolution=201, dh_depth=20,
        note="antisymmetric pair; bounded only through the mid-base functional",
    ),
    RegistryEntry(
        label="quad-pair",
        build=build_quad_pair,
        designated=(0.0,),
        expectations=(
            ExpectedStatus((0.0,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((0.5,), _N, _N, _N, "derived"),
            ExpectedStatus((-0.25,), _N, _N, _N, "derived"),
        ),
        core=True, c_bounded=True, dh_verdict=WELL_POSED,
        resolution=201, dh_depth=20,
        note="duplicated parabola; unique minimizer at 0",
    ),
    RegistryEntry(
        label="x-x2",
        build=build_x_x2,
        designated=(0.0,),
        expectations=(
            ExpectedStatus((0.0,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((-3.0,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((-1.5,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((1.0,), _N, _N, _N, "derived"),
        ),
        core=True, c_bounded=True, dh_verdict=WELL_POSED,
        resolution=201, dh_depth=20,
        note="linear-quadratic trade-off; efficient exactly on [-3, 0]",
    ),
    RegistryEntry(
        label="x-minus-xex",
        build=build_x_minus_xex,
        designated=(0.0,),
        expectations=(
            ExpectedStatus((0.0,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((1.5,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((-0.51,), _N, _N, _N, "derived"),
            ExpectedStatus((-2.01,), _N, _N, _N, "derived"),
        ),
        core=True, c_bounded=False, dh_verdict=WELL_POSED,
        resolution=201, dh_depth=20,
        note="x*exp(x) ridge: every base scalarization diverges under expansion; "
             "points left of 0 are dominated from deep in the tail",
    ),
    RegistryEntry(
        label="biquad",
        build=build_biquad,
        designated=(0.0,),
        expectations=(
            ExpectedStatus((0.0,), _Y, _Y, _I, "derived"),
            ExpectedStatus((0.5,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((-0.5,), _N, _N, _N, "derived"),
        ),
        core=True, c_bounded=True, dh_verdict=WELL_POSED,
        resolution=201, dh_depth=30,
        note="quartic pair; at 0 the image flattens so hard the delta grid cannot "
             "certify strictness at the finest epsilon (lattice-resolution artifact)",
    ),
    RegistryEntry(
        label="abs-pair",
        build=build_abs_pair,
        designated=(0.3,),
        expectations=(
            ExpectedStatus((0.3,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((0.0,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((0.6,), _N, _N, _N, "derived"),
            ExpectedStatus((-1.0,), _N, _N, _N, "derived"),
        ),
        core=True, c_bounded=True, dh_verdict=WELL_POSED,
        resolution=201, dh_depth=20,
        note="two kinks; efficient exactly on [-0.5, 0.3]",
    ),
    RegistryEntry(
        label="exp-linear",
        build=build_exp_linear,
        designated=(-0.5,),
        expectations=(
            ExpectedStatus((-0.5,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((0.0,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((1.0,), _Y, _Y, _Y, "derived"),
        ),
        core=True, c_bounded=True, dh_verdict=WELL_POSED,
        resolution=201, dh_depth=20,
        note="strictly monotone trade-off: the whole box is efficient; vertex "
             "functionals diverge but the mid-base one is bounded",
    ),
    RegistryEntry(
        label="quad-2d",
        build=build_quad_2d,
        designated=(0.0, 0.0),
        expectations=(
            ExpectedStatus((0.0, 0.0), _Y, _Y, _Y, "derived"),
            ExpectedStatus((0.5, 0.0), _Y, _Y, _Y, "derived"),
            ExpectedStatus((1.0, 0.0), _Y, _Y, _Y, "derived"),
            ExpectedStatus((-0.5, 0.5), _N, _N, _N, "derived"),
        ),
        core=True, c_bounded=True, dh_verdict=WELL_POSED,
        resolution=201, dh_depth=20,
        note="two shifted paraboloids; efficient on the segment joining the centers",
    ),
    RegistryEntry(
        label="skew-cone-quad",
        build=build_skew_cone_quad,
        designated=(0.5,),
        expectations=(
            ExpectedStatus((0.5,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((0.0,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((-1.0,), _N, _N, _N, "derived"),
        ),
        core=True, c_bounded=True, dh_verdict=WELL_POSED,
        resolution=201, dh_depth=20,
        note="non-orthant cone spanned by (1,0) and (1,2); the two facet margins "
             "pinch the level sets from opposite sides",
    ),
    RegistryEntry(
        label="hilbert-truncation-2",
        build=build_hilbert_truncation_2,
        designated=(0.0, 0.0),
        expectations=(
            ExpectedStatus((0.0, 0.0), _Y, _Y, _Y, "derived"),
            ExpectedStatus((0.5, 0.5), _N, _N, _N, "derived"),
            ExpectedStatus((0.0, -1.0), _N, _Y, _N, "derived"),
        ),
        core=False, c_bounded=True, dh_verdict=WELL_POSED,
        resolution=201, dh_depth=20,
        note="componentwise weighted squares; (0,-1) is weakly efficient yet "
             "dominated along the flat first component",
    ),
)

_BY_LABEL = {e.label: e for e in ENTRIES}


def labels():
    return tuple(e.label for e in ENTRIES)


def get(label: str) -> RegistryEntry:
    try:
        return _BY_LABEL[label]
    except KeyError:
        raise InputError(f"unknown registry label {label!r}; known: {', '.join(labels())}")


def core_entries():
    return tuple(e for e in ENTRIES if e.core)


def c_bounded_entries():
    return tuple(e for e in ENTRIES if e.c_bounded)


# ---------------------------------------------------------------------------
# weighted-squares scaling family (scalar form)

HILBERT_RESOLUTIONS = {2: 201, 4: 21, 8: 7}
HILBERT_LEVEL = 0.01


def hilbert_scalar(d: int) -> ScalarProblem:
    """Sum of squares with weights 1/i^2: the level-set diameter grows
    linearly with d at fixed level, which is what the scaling battery
    measures."""
    if d < 1:
        raise InputError("d must be >= 1")
    weights = 1.0 / np.arange(1, d + 1, dtype=float) ** 2

    def evaluate(X, w=weights):
        return X * X @ w

    return ScalarProblem(f"hilbert-scalar-{d}", d, evaluate,
                         Box((-1.0,) * d, (1.0,) * d))


def hilbert_resolution(d: int) -> int:
    if d not in HILBERT_RESOLUTIONS:
        raise InputError(f"no recommended resolution for d={d}; have {sorted(HILBERT_RESOLUTIONS)}")
    return HILBERT_RESOLUTIONS[d]


def hilbert_level_diameter(d: int):
    """Measured lattice diameter of the HILBERT_LEVEL sublevel set at the
    recommended resolution, with the spacing used; the exact value is
    2*d*sqrt(HILBERT_LEVEL)."""
    sp = hilbert_scalar(d)
    res = hilbert_resolution(d)
    sel = np.flatnonzero(sp.domain.map_lattice(res, sp.evaluate) <= HILBERT_LEVEL + 1e-9)
    measured = diameter(sp.domain.lattice_points_at(res, sel)) if sel.size else 0.0
    return measured, sp.domain.lattice_spacing(res)
