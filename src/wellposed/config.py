"""Problem config files.

YAML documents with the fields label, decision_dim, objective_dim, domain
(lower/upper), cone (generators, optional dual_generators, optional k0),
objective (list of expression strings, one per image coordinate) and
optional continuous (a boolean).  An unknown key is refused, so a
misspelt optional key cannot silently fall back to its default.  Loading
is safe_load plus the in-package expression compiler, so config text can
never execute code.
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


def _refuse_unknown(mapping, known, where):
    for key in mapping:
        if key not in known:
            raise ConfigError(f"{where}: unknown key {key!r}")


def problem_from_mapping(doc) -> VectorProblem:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    label = str(_require(doc, "label", "config"))
    _refuse_unknown(doc, ("label", "decision_dim", "objective_dim", "domain", "cone",
                          "objective", "continuous"), label)
    try:
        d = int(_require(doc, "decision_dim", label))
        m = int(_require(doc, "objective_dim", label))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: dimensions must be integers") from exc

    dom = _require(doc, "domain", label)
    if not isinstance(dom, dict):
        raise ConfigError(f"{label}: domain must be a mapping with lower/upper")
    _refuse_unknown(dom, ("lower", "upper"), f"{label}: domain")
    box = Box(np.asarray(_require(dom, "lower", label), dtype=float),
              np.asarray(_require(dom, "upper", label), dtype=float))
    if box.dim != d:
        raise ConfigError(f"{label}: domain bounds must have length {d}")

    cone_doc = _require(doc, "cone", label)
    if not isinstance(cone_doc, dict):
        raise ConfigError(f"{label}: cone must be a mapping")
    _refuse_unknown(cone_doc, ("generators", "dual_generators", "k0"), f"{label}: cone")
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
    continuous = doc.get("continuous", True)
    if not isinstance(continuous, bool):
        # bool("false") is True: a quoted flag must not read as its opposite
        raise ConfigError(f"{label}: continuous must be true or false")

    return VectorProblem(
        label=label,
        decision_dim=d,
        objective_dim=m,
        evaluator=evaluator,
        domain=box,
        cone=cone,
        continuous=continuous,
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
