"""Command line runner: registry and config problems through the toolkit.

Reports are deterministic: the same RunConfig produces byte-identical
output (seeds and tolerances are embedded, there are no timestamps).
Exit codes: 0 success, 1 failed certificate or assertion, 2 bad input.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .analysis import (
    COUNTEREXAMPLE,
    find_bounding_functional,
    is_C_bounded_below,
    is_C_convex,
    is_star_quasiconvex,
)
from .distance import oriented_distance, oriented_distance_sampled
from .cone import TOL_MEMBERSHIP
from .config import load_problem
from .diagnostics import (
    DECAY_RATIO,
    TOL_ABS,
    WELL_POSED,
    classify_point,
    dh_diagnostic,
    dh_via_scalarization,
    geometric_schedule,
    tykhonov_diagnostic,
    weff_via_distance,
)
from .errors import (
    CertificateFailure,
    HypothesisNotMet,
    InputError,
    NoBoundingFunctional,
    NumericalFailure,
    WellposedError,
)
from .perturb import density_pipeline, genericity_probe, tikhonov_regularize
from .problem import LATTICE_CAP, scalarize_linear, scalarize_oriented
from . import registry

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    problem: str | None = None
    config: str | None = None
    grid: int | None = None
    sigma: float = 0.1
    n: int | None = None
    seed: int = 0
    out: str | None = None
    format: str = "record-text"
    point: tuple | None = None
    y: tuple | None = None
    xi: tuple | None = None
    depth: int | None = None


# ---------------------------------------------------------------------------
# report formatting


def _fmt_value(v):
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, np.ndarray):
        return " ".join(repr(float(t)) for t in np.asarray(v, dtype=float).reshape(-1))
    if isinstance(v, (tuple, list)):
        return " ".join(_fmt_value(t) for t in v)
    return str(v)


def format_records(records):
    blocks = []
    for rec in records:
        blocks.append("\n".join(f"{k}={_fmt_value(v)}" for k, v in rec.items()))
    return "\n\n".join(blocks) + "\n"


def format_curve_csv(report):
    lines = ["level,direction_index,diameter"]
    for i, level in enumerate(report.schedule):
        for j in range(report.diam_curve.shape[1]):
            lines.append(f"{float(level)!r},{j},{float(report.diam_curve[i, j])!r}")
    return "\n".join(lines) + "\n"


def _header(cfg: RunConfig, resolution):
    rec = {"version": __version__, "subcommand": cfg.subcommand}
    for f in fields(cfg):
        # out is where the report goes, not part of what was computed
        if f.name in ("subcommand", "out"):
            continue
        rec[f"config.{f.name}"] = getattr(cfg, f.name)
    rec["resolution"] = resolution
    rec["cone_membership_tol"] = TOL_MEMBERSHIP
    rec["tol_abs"] = TOL_ABS
    rec["decay_ratio"] = DECAY_RATIO
    return rec


def _report_record(report):
    rec = {
        "kind": report.kind,
        "label": report.label,
        "verdict": report.verdict,
        "levels": report.schedule.size,
        "first_level": report.schedule[0],
        "last_level": report.schedule[-1],
        "lattice_spacing": report.lattice_spacing,
    }
    if report.point is not None:
        rec["point"] = report.point
    for j in range(report.diam_curve.shape[1]):
        rec[f"initial_diameter.{j}"] = report.diam_curve[0, j]
        rec[f"final_diameter.{j}"] = report.diam_curve[-1, j]
    return rec


# ---------------------------------------------------------------------------
# problem loading


def _given(value, default):
    """An option's value, or ``default`` when it was not given; 0 counts as given."""
    return default if value is None else value


def _labels(cfg: RunConfig):
    """The registry labels of a comma-separated --problem list."""
    return [label.strip() for label in cfg.problem.split(",")]


def _resolve(cfg: RunConfig, many=False):
    """(problems, resolution, point, entry) of --config or --problem, one
    label or, when many, a comma-separated list; entry is the first label's
    registry entry (None for --config), whose designated point is the
    default --point.  The resolution is --grid, else the largest
    r <= registry.RESOLUTION whose r^d points fit under LATTICE_CAP (at
    least 2)."""
    if cfg.problem and cfg.config:
        raise InputError("pass either --problem or --config, not both")
    if cfg.config:
        problems, point, entry = [load_problem(cfg.config)], cfg.point, None
    elif cfg.problem:
        entries = [registry.get(label) for label in (_labels(cfg) if many else [cfg.problem])]
        entry = entries[0]
        problems, point = [e.build() for e in entries], _given(cfg.point, entry.designated)
    else:
        raise InputError("a problem source is required (--problem label or --config file)")
    r = registry.RESOLUTION
    while r > 2 and r ** max(p.decision_dim for p in problems) > LATTICE_CAP:
        r -= 1
    return problems, _given(cfg.grid, r), point, entry


def _schedule(cfg: RunConfig, entry):
    return geometric_schedule(int(_given(cfg.depth, entry.dh_depth if entry else 10)))


# ---------------------------------------------------------------------------
# subcommands


def _run_distance(cfg: RunConfig):
    (problem,), resolution, _, _ = _resolve(cfg)
    if cfg.y is None:
        raise InputError("distance requires --y with objective_dim components")
    y = np.asarray(cfg.y, dtype=float)
    res = oriented_distance(problem.cone, y)
    n_samples = _given(cfg.n, 2048)
    dirs = problem.cone.sample_dual_sphere(n_samples)
    sampled = oriented_distance_sampled(problem.cone, y, dirs)
    rec = {
        "record": "oriented-distance",
        "label": problem.label,
        "y": y,
        "value": res.value,
        "nearest_point": res.nearest_point,
        "active_facet": res.active_facet if res.active_facet is not None else "none",
        "sampled_value": sampled,
        "sampled_gap": res.value - sampled,
        "dual_samples": dirs.shape[0],
    }
    return [_header(cfg, resolution), rec], None, EXIT_OK


def _run_analyze(cfg: RunConfig):
    (problem,), resolution, _, _ = _resolve(cfg)
    screens = (("cone-convexity", is_C_convex(problem, seed=cfg.seed)),
               ("star-quasiconvexity", is_star_quasiconvex(problem, seed=cfg.seed)))
    records = [_header(cfg, resolution)] + [
        {"record": name, "label": problem.label, "verdict": screen.verdict,
         "samples": screen.samples_used} for name, screen in screens]
    if cfg.xi is not None:
        bounded = is_C_bounded_below(problem, np.asarray(cfg.xi, dtype=float))
        records.append({
            "record": "bounded-below",
            "xi": np.asarray(cfg.xi, dtype=float),
            "verdict": bounded.verdict,
            "minima": bounded.detail["minima"],
        })
    search = find_bounding_functional(problem, seed=cfg.seed)
    records.append({
        "record": "bounding-functional",
        "found": search.xi is not None,
        "xi": search.xi if search.xi is not None else "none",
        "candidates_scanned": len(search.scanned),
    })
    return records, None, EXIT_OK


def _run_classify(cfg: RunConfig):
    (problem,), resolution, point, _ = _resolve(cfg)
    if point is None:
        raise InputError("classify requires --point")
    verdict = classify_point(problem, point, resolution)
    agree = weff_via_distance(problem, point, resolution)
    rec = {
        "record": "classification",
        "label": problem.label,
        "point": verdict.point,
        "efficient": verdict.efficient,
        "weakly_efficient": verdict.weakly_efficient,
        "strictly_efficient": verdict.strictly_efficient,
        "weakly_efficient_by_distance": agree,
        "tol": verdict.tol,
    }
    for name, wit in sorted(verdict.witnesses.items()):
        if wit is not None:
            rec[f"witness.{name}.x"] = wit["x"]
    return [_header(cfg, resolution), rec], None, EXIT_OK


def _run_tykhonov(cfg: RunConfig):
    (problem,), resolution, point, entry = _resolve(cfg)
    if cfg.xi is not None and cfg.point is not None:
        raise InputError("pass either --xi or --point, not both")
    if cfg.xi is not None:
        sp = scalarize_linear(problem, np.asarray(cfg.xi, dtype=float))
        route = "linear"
    elif point is not None:
        sp = scalarize_oriented(problem, np.asarray(point, dtype=float))
        route = "oriented-distance"
    else:
        raise InputError("tykhonov-check needs --xi or --point to scalarize")
    report = tykhonov_diagnostic(sp, level_schedule=_schedule(cfg, entry),
                                 grid_resolution=resolution)
    rec = _report_record(report)
    rec["route"] = route
    rec["lattice_infimum"] = report.details["lattice_infimum"]
    rec["argmin"] = report.details["argmin"]
    return [_header(cfg, resolution), rec], report, EXIT_OK


def _run_dh(cfg: RunConfig):
    (problem,), resolution, point, entry = _resolve(cfg)
    if point is None:
        raise InputError("dh-check requires --point")
    report = dh_diagnostic(problem, point, alpha_schedule=_schedule(cfg, entry),
                           grid_resolution=resolution)
    scalarized = dh_via_scalarization(problem, point, level_schedule=_schedule(cfg, entry),
                                      grid_resolution=resolution)
    rec = _report_record(report)
    rec["directions"] = report.directions.shape[0]
    rec["scalarized_verdict"] = scalarized.verdict
    rec["routes_agree"] = scalarized.verdict == report.verdict
    return [_header(cfg, resolution), rec], report, EXIT_OK


def _run_perturb(cfg: RunConfig):
    (problem,), resolution, point, _ = _resolve(cfg)
    if point is None:
        raise InputError("perturb requires --point (the efficient center)")
    n = _given(cfg.n, 1)
    perturbed, cert = tikhonov_regularize(problem, point, n, grid_resolution=resolution)
    rec = {
        "record": "regularization-certificate",
        "label": perturbed.label,
        "n": cert.n,
        "efficient_at_center": cert.efficient_at_center,
        "strictly_efficient_at_center": cert.strictly_efficient_at_center,
        "strict_not_no": cert.strict_not_no,
        "dh_verdict": cert.dh_verdict,
        "metric_value": cert.metric_value,
        "metric_tail": cert.metric_tail,
    }
    code = EXIT_OK if cert.dh_verdict == WELL_POSED else EXIT_FAILED
    return [_header(cfg, resolution), rec], None, code


def _run_pipeline(cfg: RunConfig):
    (problem,), resolution, _, _ = _resolve(cfg)
    _, cert = density_pipeline(problem, cfg.sigma, grid_resolution=resolution,
                               seed=cfg.seed)
    ek = cert.ekeland
    rec = {
        "record": "pipeline-certificate",
        "label": cert.label,
        "sigma": cert.sigma,
        "bounding_functional": cert.xi_bar,
        "k0_rescaled": cert.k0_rescaled,
        "j": cert.j,
        "sublevel_radius": cert.sublevel_radius,
        "series_constant": cert.series_value,
        "series_tail": cert.series_tail,
        "epsilon": cert.epsilon,
        "r": cert.r,
        "x_hat": cert.x_hat,
        "x_hat_to_anchor": cert.x_hat_to_anchor,
        "d_f_g": cert.d_f_g,
        "d_g_h": cert.d_g_h,
        "d_f_h": cert.d_f_h,
        "metric_tail": cert.metric_tail,
        "efficient_at_x_hat": cert.efficient_at_x_hat,
        "dh_verdict": cert.dh_verdict,
        "ekeland.iterations": ek.iterations,
        "ekeland.distance_to_start": ek.distance_to_start,
        "ekeland.min_margin": ek.min_margin,
        "ekeland.unique_minimizer": ek.unique_minimizer,
    }
    return [_header(cfg, resolution), rec], None, EXIT_OK


def _run_probe(cfg: RunConfig):
    problems, resolution, _, _ = _resolve(cfg, many=True)
    report = genericity_probe(problems, cfg.sigma, n_max=_given(cfg.n, 8),
                              grid_resolution=resolution, seed=cfg.seed)
    records = [_header(cfg, resolution)]
    for member in report.members:
        rec = {
            "record": "probe-member",
            "label": member.label,
            "status": member.status,
        }
        if member.detail:
            rec["detail"] = member.detail
        if member.membership_levels is not None:
            rec["membership_levels"] = member.membership_levels
        records.append(rec)
    records.append({
        "record": "probe-summary",
        "members": len(report.members),
        "n_max": report.n_max,
        "sigma": report.sigma,
        "success_fraction": report.success_fraction
        if report.success_fraction is not None else "not-applicable",
    })
    return records, None, EXIT_OK


# ---------------------------------------------------------------------------
# replicate


def _check(records, name, passed, detail=""):
    """Append an assertion record to records; returns passed."""
    rec = {"record": "assertion", "name": name, "passed": bool(passed)}
    if detail:
        rec["detail"] = detail
    records.append(rec)
    return passed


def _replicate_entry(entry, records):
    problem = entry.build()
    ok = True
    for exp in entry.expectations:
        verdict = classify_point(problem, exp.point, registry.RESOLUTION)
        got = (verdict.efficient, verdict.weakly_efficient, verdict.strictly_efficient)
        want = (exp.efficient, exp.weakly_efficient, exp.strictly_efficient)
        ok &= _check(records, f"classify@{_fmt_value(np.asarray(exp.point))}", got == want,
                     f"expected {'/'.join(want)} got {'/'.join(got)} (basis {exp.basis})")

    report = dh_diagnostic(problem, entry.designated,
                           alpha_schedule=geometric_schedule(entry.dh_depth),
                           grid_resolution=registry.RESOLUTION)
    ok &= _check(records, "dh-verdict", report.verdict == entry.dh_verdict,
                 f"expected {entry.dh_verdict} got {report.verdict}")

    search = find_bounding_functional(problem)
    ok &= _check(records, "bounding-functional", (search.xi is not None) == entry.c_bounded,
                 "found" if search.xi is not None else "none found")

    if entry.label == "zero-function":
        _, cert = tikhonov_regularize(problem, entry.designated, 1,
                                      grid_resolution=registry.RESOLUTION)
        ok &= _check(records, "regularization-restores-well-posedness",
                     cert.dh_verdict == WELL_POSED and cert.efficient_at_center == "yes",
                     f"dh={cert.dh_verdict}")

    if entry.label == "x-minus-xex":
        quasi = is_star_quasiconvex(problem)
        ok &= _check(records, "star-quasiconvexity-counterexample",
                     quasi.verdict == COUNTEREXAMPLE, quasi.verdict)
        ok &= _check(records, "every-base-functional-diverges",
                     bool(search.scanned) and all(v == COUNTEREXAMPLE for _, v in search.scanned),
                     f"{len(search.scanned)} candidates scanned")
        try:
            density_pipeline(problem, 0.5, grid_resolution=registry.RESOLUTION)
            passed, detail = False, "pipeline unexpectedly succeeded"
        except NoBoundingFunctional:
            passed, detail = True, "refused with NoBoundingFunctional"
        ok &= _check(records, "pipeline-refusal", passed, detail)

    return ok


def _replicate_hilbert(d, records):
    measured, spacing = registry.hilbert_level_diameter(d)
    expected = 2.0 * d * np.sqrt(registry.HILBERT_LEVEL)
    return _check(records, f"level-diameter-scaling-d{d}",
                  abs(measured - expected) <= 2.0 * spacing,
                  f"measured {measured!r} expected {expected!r} spacing {spacing!r}")


def replicate(label: str):
    """Re-run the stored facts for one registry label; (records, all_ok)."""
    records = []
    if label in ("hilbert-truncation-4", "hilbert-truncation-8"):
        ok = _replicate_hilbert(int(label.rsplit("-", 1)[1]), records)
        return records, ok
    entry = registry.get(label)
    ok = _replicate_entry(entry, records)
    if label == "hilbert-truncation-2":
        ok &= _replicate_hilbert(2, records)
    return records, ok


def _run_replicate(cfg: RunConfig):
    if not cfg.problem:
        raise InputError("replicate requires --problem with a registry label")
    records = [_header(cfg, "registry-default")]
    all_ok = True
    for label in _labels(cfg):
        records.append({"record": "replicate", "label": label})
        asserted, ok = replicate(label)
        records.extend(asserted)
        all_ok &= ok
    records.append({"record": "replicate-summary", "all_passed": all_ok})
    return records, None, EXIT_OK if all_ok else EXIT_FAILED


COMMON = ("seed", "out")  # options taken by every subcommand

# name: (runner, the options it reads besides COMMON, description); build_parser
# adds only those options and run() refuses any other that differs from its default
SUBCOMMANDS = {
    "distance": (_run_distance, ("problem", "config", "y", "n"),
                 "oriented distance of a point to the negative cone"),
    "analyze": (_run_analyze, ("problem", "config", "xi"),
                "structural screens: cone-convexity, quasiconvexity, boundedness"),
    "classify": (_run_classify, ("problem", "config", "grid", "point"),
                 "efficiency classification of a point"),
    "tykhonov-check": (_run_tykhonov,
                       ("problem", "config", "grid", "format", "point", "xi", "depth"),
                       "scalar level-set diameter diagnostic"),
    "dh-check": (_run_dh, ("problem", "config", "grid", "format", "point", "depth"),
                 "vector level-set diameter diagnostic at a point"),
    "perturb": (_run_perturb, ("problem", "config", "grid", "point", "n"),
                "norm-cone regularization certificate at an efficient point"),
    "pipeline": (_run_pipeline, ("problem", "config", "grid", "sigma"),
                 "construct a nearby well-posed problem with a full certificate"),
    "probe": (_run_probe, ("problem", "config", "grid", "sigma", "n"),
              "run the pipeline across a family and report the success fraction"),
    "replicate": (_run_replicate, ("problem",), "re-run the stored facts for a registry problem"),
}

FORMATS = ("record-text", "table-csv")


def _usage_error(exc):
    return format_records([{"status": "error", "exit_code": EXIT_USAGE, "reason": str(exc)}])


def _same_file(a, b):
    """Whether paths a and b name one file; b need not exist."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def run(cfg: RunConfig) -> int:
    """Execute one configuration and write its report; returns exit code.

    The report file is opened before any work, so a path that cannot be
    written, or that names the --config file it would overwrite, ends the
    run at once, with its error record on stdout."""
    try:
        if cfg.out and cfg.config and _same_file(cfg.config, cfg.out):
            raise InputError(f"--out {cfg.out} names the --config file, which it would overwrite")
        sink = open(cfg.out, "w", encoding="utf-8") if cfg.out else nullcontext(sys.stdout)
    except (InputError, OSError) as exc:
        sys.stdout.write(_usage_error(exc))
        return EXIT_USAGE
    with sink as out:
        code, text = _report(cfg)
        out.write(text)
    return code


def _report(cfg: RunConfig):
    """(exit code, report text) of one configuration."""
    try:
        if cfg.subcommand not in SUBCOMMANDS:
            raise InputError(f"unknown subcommand {cfg.subcommand!r}")
        if cfg.format not in FORMATS:
            raise InputError(f"unknown format {cfg.format!r}")
        runner, taken, _ = SUBCOMMANDS[cfg.subcommand]
        unread = [f"--{f.name}" for f in fields(cfg)[1:]
                  if f.name not in taken + COMMON and getattr(cfg, f.name) != f.default]
        if unread:
            raise InputError(f"{cfg.subcommand} does not take {', '.join(unread)}")
        records, curve_report, code = runner(cfg)
    except (InputError, FileNotFoundError) as exc:
        return EXIT_USAGE, _usage_error(exc)
    except (HypothesisNotMet, NoBoundingFunctional, CertificateFailure,
            NumericalFailure, WellposedError) as exc:
        reason = {"status": "failed", "exit_code": EXIT_FAILED,
                  "error_type": type(exc).__name__, "reason": str(exc)}
        if isinstance(exc, CertificateFailure):
            reason["clause"] = exc.clause
        return EXIT_FAILED, format_records([reason])
    if cfg.format == "table-csv":
        return code, format_curve_csv(curve_report)
    return code, format_records(records)


# ---------------------------------------------------------------------------
# argument parsing


def _vector(text):
    try:
        vec = tuple(float(t) for t in text.replace(" ", "").split(",") if t != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated vector: {text!r}")
    if not np.all(np.isfinite(vec)):
        raise argparse.ArgumentTypeError(f"vector entries must be finite: {text!r}")
    return vec


def _seed(text):
    """A seed for numpy's generators, which refuse a negative one."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


# every option's argparse arguments; a help given per subcommand is a dict
OPTIONS = {
    "problem": dict(help="registry label (comma-separated for probe/replicate)"),
    "config": dict(help="problem description file (YAML)"),
    "grid": dict(type=int, help="lattice resolution per axis"),
    "sigma": dict(type=float, help="target metric radius"),
    # --n counts something different in each subcommand that takes it
    "n": dict(type=int, help={
        "distance": "dual samples of the sampled distance check (default 2048)",
        "perturb": "strength index n of the (1/n)-scaled regularization (default 1)",
        "probe": "probe bound: a level with diameter below 1/n for each n up to it "
                 "(default 8)"}),
    "seed": dict(type=_seed, help="seed for all randomness"),
    "out": dict(help="write the report to this path instead of stdout"),
    "format": dict(choices=FORMATS),
    "point": dict(type=_vector, help="decision-space point"),
    "y": dict(type=_vector, help="objective-space point"),
    "xi": dict(type=_vector, help="dual functional"),
    "depth": dict(type=int, help="schedule depth (powers of two)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wellposed",
        description="Well-posedness diagnostics for vector optimization on box lattices.")
    parser.add_argument("--version", action="version", version=f"wellposed {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, (_, taken, desc) in SUBCOMMANDS.items():
        # an option not given is left out, so RunConfig supplies its default
        p = sub.add_parser(name, help=desc, description=desc,
                           argument_default=argparse.SUPPRESS)
        for option in taken + COMMON:
            spec = OPTIONS[option]
            if isinstance(spec.get("help"), dict):
                spec = {**spec, "help": spec["help"][name]}
            p.add_argument(f"--{option}", **spec)
    return parser


_VECTOR_OPTIONS = ("--point", "--y", "--xi")
_NEGATIVE_LEAD = re.compile(r"-\.?\d")


def _attach_negative_vectors(argv):
    """Join a vector option to a value with a leading minus sign (--y -1,2 becomes
    --y=-1,2): argparse takes "-1,2" for an option flag, not a negative number."""
    out = []
    for arg in argv:
        if out and out[-1] in _VECTOR_OPTIONS and _NEGATIVE_LEAD.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_vectors(argv))
    return run(RunConfig(**vars(args)))


if __name__ == "__main__":
    sys.exit(main())
