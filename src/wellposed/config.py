"""Problem config files.

YAML documents with the fields label, decision_dim, objective_dim, domain
(lower/upper), cone (generators, optional dual_generators, optional k0),
and objective (list of expression strings, one per image coordinate).
Loading is safe_load plus the in-package expression compiler, so config
text can never execute code.
"""

from __future__ import annotations

import numpy as np

from .cone import OrderingCone
from .errors import ConfigError
from .expr import compile_objectives
from .problem import Box, VectorProblem


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"{where}: missing field {key!r}")
    return mapping[key]


def problem_from_mapping(doc) -> VectorProblem:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    label = str(_require(doc, "label", "config"))
    try:
        d = int(_require(doc, "decision_dim", label))
        m = int(_require(doc, "objective_dim", label))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: dimensions must be integers") from exc

    dom = _require(doc, "domain", label)
    if not isinstance(dom, dict):
        raise ConfigError(f"{label}: domain must be a mapping with lower/upper")
    box = Box(np.asarray(_require(dom, "lower", label), dtype=float),
              np.asarray(_require(dom, "upper", label), dtype=float))
    if box.dim != d:
        raise ConfigError(f"{label}: domain bounds must have length {d}")

    cone_doc = _require(doc, "cone", label)
    if not isinstance(cone_doc, dict):
        raise ConfigError(f"{label}: cone must be a mapping")
    cone = OrderingCone(
        ambient_dim=m,
        generators=np.asarray(_require(cone_doc, "generators", label), dtype=float),
        dual_generators=(np.asarray(cone_doc["dual_generators"], dtype=float)
                         if cone_doc.get("dual_generators") is not None else None),
        k0=(np.asarray(cone_doc["k0"], dtype=float) if cone_doc.get("k0") is not None else None),
    )

    exprs = _require(doc, "objective", label)
    if not isinstance(exprs, (list, tuple)) or len(exprs) != m:
        raise ConfigError(f"{label}: objective must list {m} expressions")
    evaluator = compile_objectives([str(e) for e in exprs], d)

    return VectorProblem(
        label=label,
        decision_dim=d,
        objective_dim=m,
        evaluator=evaluator,
        domain=box,
        cone=cone,
        continuous=bool(doc.get("continuous", True)),
        assume_lsc=bool(doc.get("assume_lsc", True)),
    )


def load_problem(path) -> VectorProblem:
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return problem_from_mapping(doc)


def problem_to_mapping(problem: VectorProblem):
    """Echo view of a problem used in reports (expressions are not recoverable
    from compiled evaluators, so registry problems echo label and geometry)."""
    return {
        "label": problem.label,
        "decision_dim": problem.decision_dim,
        "objective_dim": problem.objective_dim,
        "domain_lower": list(problem.domain.lower),
        "domain_upper": list(problem.domain.upper),
        "cone_generators": [list(g) for g in problem.cone.generators],
        "cone_dual_generators": [list(g) for g in problem.cone.dual_generators],
        "cone_k0": list(problem.cone.k0),
        "continuous": problem.continuous,
        "assume_lsc": problem.assume_lsc,
    }
