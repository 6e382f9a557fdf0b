"""Built-in benchmark problems with worked-out classification facts.

Each entry's problem is a problem-file mapping, with the fields of a
--config YAML file, built by config.problem_from_mapping: registry and
config problems share one construction path and one expression compiler.

Each entry records what the classifier should report at specific points,
at the lattice resolution RESOLUTION that every entry shares, together
with how the fact was obtained: "direct" facts are immediate from the
formula, "derived" facts come from a short hand computation (noted per
entry).  Tests re-check every expectation against an independent
brute-force scan.

Entries marked core form the d <= 2 battery used by the agreement suites;
c_bounded marks entries whose scalarization through some base functional
stays bounded below under domain expansion (the pipeline's gate).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .config import problem_from_mapping
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
    dh_depth: int
    note: str = ""


RESOLUTION = 201  # lattice points per axis at which every entry's facts hold

# dual generators given, so that their order is the identity's, as in orthant(2)
_ORTHANT = {"generators": [[1.0, 0.0], [0.0, 1.0]], "dual_generators": [[1.0, 0.0], [0.0, 1.0]]}


def _entry(problem, **facts):
    """A registry entry whose problem is built from its problem-file mapping."""
    return RegistryEntry(label=problem["label"], build=partial(problem_from_mapping, problem),
                         **facts)


_Y, _N, _I = "yes", "no", "inconclusive"

ENTRIES = (
    _entry(
        {"label": "zero-function", "decision_dim": 1, "objective_dim": 2, "cone": _ORTHANT,
         "domain": {"lower": [-1.0], "upper": [1.0]}, "objective": ["0", "0"]},
        designated=(0.0,),
        expectations=(
            ExpectedStatus((0.0,), _Y, _Y, _N, "direct"),
            ExpectedStatus((0.5,), _Y, _Y, _N, "direct"),
            ExpectedStatus((-1.0,), _Y, _Y, _N, "direct"),
        ),
        core=True, c_bounded=True, dh_verdict=NOT_WELL_POSED, dh_depth=20,
        note="constant image: everything efficient, nothing strictly; level sets never shrink",
    ),
    _entry(
        {"label": "x-minus-x", "decision_dim": 1, "objective_dim": 2, "cone": _ORTHANT,
         "domain": {"lower": [-1.0], "upper": [1.0]}, "objective": ["x", "-x"]},
        designated=(0.0,),
        expectations=(
            ExpectedStatus((0.0,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((0.5,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((-1.0,), _Y, _Y, _Y, "derived"),
        ),
        core=True, c_bounded=True, dh_verdict=WELL_POSED, dh_depth=20,
        note="antisymmetric pair; bounded only through the mid-base functional",
    ),
    _entry(
        {"label": "quad-pair", "decision_dim": 1, "objective_dim": 2, "cone": _ORTHANT,
         "domain": {"lower": [-1.0], "upper": [1.0]}, "objective": ["x*x", "x*x"]},
        designated=(0.0,),
        expectations=(
            ExpectedStatus((0.0,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((0.5,), _N, _N, _N, "derived"),
            ExpectedStatus((-0.25,), _N, _N, _N, "derived"),
        ),
        core=True, c_bounded=True, dh_verdict=WELL_POSED, dh_depth=20,
        note="duplicated parabola; unique minimizer at 0",
    ),
    _entry(
        {"label": "x-x2", "decision_dim": 1, "objective_dim": 2, "cone": _ORTHANT,
         "domain": {"lower": [-3.0], "upper": [3.0]}, "objective": ["x", "x*x"]},
        designated=(0.0,),
        expectations=(
            ExpectedStatus((0.0,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((-3.0,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((-1.5,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((1.0,), _N, _N, _N, "derived"),
        ),
        core=True, c_bounded=True, dh_verdict=WELL_POSED, dh_depth=20,
        note="linear-quadratic trade-off; efficient exactly on [-3, 0]",
    ),
    _entry(
        {"label": "x-minus-xex", "decision_dim": 1, "objective_dim": 2, "cone": _ORTHANT,
         "domain": {"lower": [-3.0], "upper": [3.0]}, "objective": ["x", "-x*exp(x)"]},
        designated=(0.0,),
        expectations=(
            ExpectedStatus((0.0,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((1.5,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((-0.51,), _N, _N, _N, "derived"),
            ExpectedStatus((-2.01,), _N, _N, _N, "derived"),
        ),
        core=True, c_bounded=False, dh_verdict=WELL_POSED, dh_depth=20,
        note="x*exp(x) ridge: every base scalarization diverges under expansion; "
             "points left of 0 are dominated from deep in the tail",
    ),
    _entry(
        {"label": "biquad", "decision_dim": 1, "objective_dim": 2, "cone": _ORTHANT,
         "domain": {"lower": [-1.0], "upper": [1.0]}, "objective": ["x^4", "(x-1)^4"]},
        designated=(0.0,),
        expectations=(
            ExpectedStatus((0.0,), _Y, _Y, _I, "derived"),
            ExpectedStatus((0.5,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((-0.5,), _N, _N, _N, "derived"),
        ),
        core=True, c_bounded=True, dh_verdict=WELL_POSED, dh_depth=30,
        note="quartic pair; at 0 the image flattens so hard the delta grid cannot "
             "certify strictness at the finest epsilon (lattice-resolution artifact)",
    ),
    _entry(
        {"label": "abs-pair", "decision_dim": 1, "objective_dim": 2, "cone": _ORTHANT,
         "domain": {"lower": [-1.0], "upper": [1.0]}, "objective": ["abs(x-0.3)", "abs(x+0.5)"]},
        designated=(0.3,),
        expectations=(
            ExpectedStatus((0.3,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((0.0,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((0.6,), _N, _N, _N, "derived"),
            ExpectedStatus((-1.0,), _N, _N, _N, "derived"),
        ),
        core=True, c_bounded=True, dh_verdict=WELL_POSED, dh_depth=20,
        note="two kinks; efficient exactly on [-0.5, 0.3]",
    ),
    _entry(
        {"label": "exp-linear", "decision_dim": 1, "objective_dim": 2, "cone": _ORTHANT,
         "domain": {"lower": [-1.0], "upper": [1.0]}, "objective": ["exp(x)", "-x"]},
        designated=(-0.5,),
        expectations=(
            ExpectedStatus((-0.5,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((0.0,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((1.0,), _Y, _Y, _Y, "derived"),
        ),
        core=True, c_bounded=True, dh_verdict=WELL_POSED, dh_depth=20,
        note="strictly monotone trade-off: the whole box is efficient; vertex "
             "functionals diverge but the mid-base one is bounded",
    ),
    _entry(
        {"label": "quad-2d", "decision_dim": 2, "objective_dim": 2,
         "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}, "cone": _ORTHANT,
         "objective": ["x1*x1 + x2*x2", "(x1-1)^2 + x2*x2"]},
        designated=(0.0, 0.0),
        expectations=(
            ExpectedStatus((0.0, 0.0), _Y, _Y, _Y, "derived"),
            ExpectedStatus((0.5, 0.0), _Y, _Y, _Y, "derived"),
            ExpectedStatus((1.0, 0.0), _Y, _Y, _Y, "derived"),
            ExpectedStatus((-0.5, 0.5), _N, _N, _N, "derived"),
        ),
        core=True, c_bounded=True, dh_verdict=WELL_POSED, dh_depth=20,
        note="two shifted paraboloids; efficient on the segment joining the centers",
    ),
    _entry(
        {"label": "skew-cone-quad", "decision_dim": 1, "objective_dim": 2,
         "domain": {"lower": [-1.0], "upper": [1.0]},
         "cone": {"generators": [[1.0, 0.0], [1.0, 2.0]]},
         "objective": ["(x-0.5)*(x-0.5)", "(x-0.5)*(x-0.5) + (x-0.5)"]},
        designated=(0.5,),
        expectations=(
            ExpectedStatus((0.5,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((0.0,), _Y, _Y, _Y, "derived"),
            ExpectedStatus((-1.0,), _N, _N, _N, "derived"),
        ),
        core=True, c_bounded=True, dh_verdict=WELL_POSED, dh_depth=20,
        note="non-orthant cone spanned by (1,0) and (1,2); the two facet margins "
             "pinch the level sets from opposite sides",
    ),
    _entry(
        {"label": "hilbert-truncation-2", "decision_dim": 2, "objective_dim": 2,
         "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}, "cone": _ORTHANT,
         "objective": ["x1*x1", "x2*x2/4"]},
        designated=(0.0, 0.0),
        expectations=(
            ExpectedStatus((0.0, 0.0), _Y, _Y, _Y, "derived"),
            ExpectedStatus((0.5, 0.5), _N, _N, _N, "derived"),
            ExpectedStatus((0.0, -1.0), _N, _Y, _N, "derived"),
        ),
        core=False, c_bounded=True, dh_verdict=WELL_POSED, dh_depth=20,
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
