"""The benchmark's three workloads and the checks on their outputs.

Each workload is a fixed list of operations run one at a time by a single
client (a closed loop); one cycle runs every operation once.  Every
operation's output is checked; a mismatch marks that operation failed and
the run goes on.  With the default seed the outputs must also match the
digests pinned in ``pins.json``; with any other seed only the checks that
hold for every seed apply (exit codes, agreement of two routes to the same
verdict, certificate inequalities, verdicts of inputs the seed does not
change).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from tracer import CLI_SUBCOMMANDS, DIAGNOSTICS, TRACE_MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
PINS = json.loads((HERE / "pins.json").read_text())

YES, NO = "yes", "no"
WELL_POSED = "well_posed_evidence"
INCONCLUSIVE = "inconclusive"


@dataclass
class Op:
    """One operation of a cycle.

    ``check(result, earlier)`` returns a list of problems (empty when the
    output is right); ``earlier`` maps the names of the operations run so
    far to their latest results.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]
    lattice_points: int


@dataclass
class Workload:
    name: str
    why: str
    # In-process workloads build their problems once per process; the CLI
    # workload builds nothing (every command is a fresh interpreter).
    setup: Callable | None
    ops: Callable
    nonzero: tuple = ()
    zero: tuple = ()


# ---------------------------------------------------------------------------
# output digests


def _canon(obj):
    """Byte-exact text form of a result, for pinning against a digest."""
    if obj is None or isinstance(obj, (bool, str, numbers.Integral)):
        return repr(obj)
    if isinstance(obj, numbers.Real):
        return repr(float(obj))
    if hasattr(obj, "dtype") and hasattr(obj, "tobytes"):
        return f"{obj.dtype.str}{obj.shape}{obj.tobytes().hex()}"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k}:{_canon(v)}" for k, v in sorted(obj.items())) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in obj) + "]"
    if dataclasses.is_dataclass(obj):
        if hasattr(obj, "evaluator"):  # a problem: its closure has no stable form
            return f"problem({obj.label})"
        return type(obj).__name__ + _canon({f.name: getattr(obj, f.name)
                                            for f in dataclasses.fields(obj)})
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj):
    if isinstance(obj, CliResult):
        return hashlib.sha256(obj.stdout).hexdigest()
    return hashlib.sha256(_canon(obj).encode()).hexdigest()


def pinned_problems(workload, seed, name, result):
    """With the default seed, a result whose digest differs from its pin."""
    if seed != DEFAULT_SEED:
        return []
    got, want = digest(result), PINS[workload].get(name)
    return [] if got == want else [f"digest {got} differs from pinned {want}"]


# ---------------------------------------------------------------------------
# checks


def _tristate(expected):
    def check(v, earlier):
        got = (v.efficient, v.weakly_efficient, v.strictly_efficient)
        return [] if got == expected else [f"classified {'/'.join(got)}, expected {'/'.join(expected)}"]
    return check


def _weff(expected, classify_op):
    def check(value, earlier):
        problems = [] if value is expected else [f"weff_via_distance {value}, expected {expected}"]
        route = earlier[classify_op].weakly_efficient == YES
        if route != value:
            problems.append(f"routes disagree: classify weakly_efficient={route}, distance={value}")
        return problems
    return check


def _verdict(expected, agree_with=None):
    def check(report, earlier):
        problems = [] if report.verdict == expected else [f"verdict {report.verdict}, expected {expected}"]
        if agree_with is not None and earlier[agree_with].verdict != report.verdict:
            problems.append(f"routes disagree: {agree_with} gave {earlier[agree_with].verdict}")
        return problems
    return check


# ---------------------------------------------------------------------------
# diagnose-3d: one large 3-D image under a non-orthant cone


DIAGNOSE_RESOLUTION = 73
EFFICIENT_3D = (0.0, 0.0, 0.0)
DOMINATED_3D = (-0.5, -0.5, 0.5)


def setup_diagnose_3d(wp, seed):
    problem = wp.load_problem(HERE / "diagnose3d.yaml")
    mid_base = problem.cone.base_polytope().mean(axis=0)
    return {"problem": problem, "linear": wp.scalarize_linear(problem, mid_base),
            "hilbert": wp.registry.hilbert_scalar(4)}


def ops_diagnose_3d(wp, ctx, seed):
    p, res = ctx["problem"], DIAGNOSE_RESOLUTION
    schedule = wp.geometric_schedule(10)
    size = p.domain.lattice_size(res)
    return [
        Op("classify-efficient", lambda: wp.classify_point(p, EFFICIENT_3D, res),
           _tristate((YES, YES, YES)), size),
        Op("weff-efficient", lambda: wp.weff_via_distance(p, EFFICIENT_3D, res),
           _weff(True, "classify-efficient"), size),
        Op("classify-dominated", lambda: wp.classify_point(p, DOMINATED_3D, res),
           _tristate((NO, NO, NO)), size),
        Op("weff-dominated", lambda: wp.weff_via_distance(p, DOMINATED_3D, res),
           _weff(False, "classify-dominated"), size),
        Op("dh", lambda: wp.dh_diagnostic(p, EFFICIENT_3D, alpha_schedule=schedule,
                                          grid_resolution=res),
           _verdict(WELL_POSED), size),
        Op("dh-scalarized", lambda: wp.dh_via_scalarization(
            p, EFFICIENT_3D, level_schedule=schedule, grid_resolution=res),
           _verdict(WELL_POSED, agree_with="dh"), size),
        Op("tykhonov-linear", lambda: wp.tykhonov_diagnostic(ctx["linear"], grid_resolution=res),
           _verdict(WELL_POSED), size),
        Op("tykhonov-hilbert-4", lambda: wp.tykhonov_diagnostic(ctx["hilbert"], grid_resolution=21),
           _verdict(WELL_POSED), ctx["hilbert"].domain.lattice_size(21)),
    ]


# ---------------------------------------------------------------------------
# lattice-overcap: a 2-D lattice above the program's 2,000,000-point store cap


OVERCAP_RESOLUTION = 1449
OVERCAP_POINT = (0.5, 0.0)


def setup_lattice_overcap(wp, seed):
    problem = wp.registry.get("quad-2d").build()
    mid_base = problem.cone.base_polytope().mean(axis=0)
    return {"problem": problem, "linear": wp.scalarize_linear(problem, mid_base)}


def ops_lattice_overcap(wp, ctx, seed):
    p, res = ctx["problem"], OVERCAP_RESOLUTION
    size = p.domain.lattice_size(res)
    return [
        Op("classify", lambda: wp.classify_point(p, OVERCAP_POINT, res),
           _tristate((YES, YES, YES)), size),
        Op("dh", lambda: wp.dh_diagnostic(p, OVERCAP_POINT,
                                          alpha_schedule=wp.geometric_schedule(4),
                                          grid_resolution=res),
           _verdict(INCONCLUSIVE), size),
        Op("tykhonov-linear", lambda: wp.tykhonov_diagnostic(ctx["linear"], grid_resolution=res),
           _verdict(INCONCLUSIVE), size),
    ]


# ---------------------------------------------------------------------------
# cli-readme: the README commands, each a fresh interpreter


# (subcommand arguments, lattice points of the problems named, at the
# registry resolution 201; hilbert-truncation-4 replicates at 21^4)
README_COMMANDS = (
    ("distance --problem quad-pair --y 1,1", 201),
    ("classify --problem biquad --point 0.3", 201),
    ("analyze --problem x-x2 --xi 0,1", 201),
    ("tykhonov-check --problem quad-pair --xi 1,1 --depth 20", 201),
    ("dh-check --problem skew-cone-quad --point 0.5 --format table-csv", 201),
    ("perturb --problem zero-function --point 0 --n 2", 201),
    ("pipeline --problem x-x2 --sigma 0.1", 201),
    ("probe --problem quad-pair,x-minus-xex --sigma 0.5", 2 * 201),
    ("replicate --problem hilbert-truncation-4", 21 ** 4),
)


def child_env():
    """Environment for every interpreter the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class CliResult:
    code: int
    stdout: bytes
    trace: dict | None = field(default=None, repr=False)


def run_cli(argv, traced):
    """Run one CLI command in a fresh interpreter.

    Untraced it is ``python -m wellposed.cli``; traced it goes through
    ``boot.py``, which installs the wrappers and then calls the same
    ``main(argv)``, reporting its trace on a marked stderr line.
    """
    entry = [str(HERE / "boot.py")] if traced else ["-m", "wellposed.cli"]
    proc = subprocess.run([sys.executable, *entry, *argv], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)
    trace = None
    for line in proc.stderr.decode(errors="replace").splitlines():
        if line.startswith(TRACE_MARK):
            trace = json.loads(line[len(TRACE_MARK):])
    return CliResult(proc.returncode, proc.stdout, trace)


def _report(stdout):
    """key=value report lines as one dict (a later line wins over an earlier one)."""
    rec = {}
    for line in stdout.decode().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            rec[key] = value
    return rec


def _cli_check(sub):
    def check(result, earlier):
        if result.code != 0:
            return [f"exit code {result.code}: {result.stdout[-300:]!r}"]
        rec = _report(result.stdout)
        if sub == "classify":
            route = rec.get("weakly_efficient") == YES
            if route != (rec.get("weakly_efficient_by_distance") == "true"):
                return ["routes disagree on weak efficiency"]
        if sub == "pipeline":
            s, tail = float(rec["sigma"]), float(rec["metric_tail"])
            d_f_h, d_f_g, d_g_h = (float(rec[k]) for k in ("d_f_h", "d_f_g", "d_g_h"))
            if not (d_f_h < s and d_f_g < s / 2 and d_g_h <= s / 2 + tail):
                return [f"certificate inequalities fail: {d_f_h!r} {d_f_g!r} {d_g_h!r}"]
        if sub == "perturb":
            # acceptance criterion 05: d(f, f + (1/n)||x|| k0) has a closed form
            n = int(rec["n"])
            closed_form = (1.0 - 2.0 ** -20) / (n + 1)
            if rec["efficient_at_center"] != YES or rec["dh_verdict"] != WELL_POSED:
                return [f"centre {rec['efficient_at_center']}, DH {rec['dh_verdict']}"]
            if abs(float(rec["metric_value"]) - closed_form) > 1e-6:
                return [f"metric {rec['metric_value']}, closed form {closed_form!r}"]
        return []
    return check


def ops_cli_readme(seed, traced=False):
    ops = []
    for text, points in README_COMMANDS:
        argv = text.split() + ["--seed", str(seed)]
        ops.append(Op(argv[0], lambda argv=argv: run_cli(argv, traced), _cli_check(argv[0]),
                      points))
    return ops


# ---------------------------------------------------------------------------
# The traced run fails when a per-layer metric that the workload must exercise
# reads 0 (``nonzero``), or one that it must not reads anything else (``zero``).


_IMPORT = ("import_s", "import.modules_loaded")
_LATTICE = ("problem.points_evaluated", "problem.evaluate_s",
            "problem.evals_per_lattice_point", "problem.lattice_passes")

WORKLOADS = {w.name: w for w in (
    Workload(
        "cli-readme",
        "The nine README commands as fresh interpreters: start-up, import and cone "
        "build dominate, so this is where lazy imports and cheaper cone set-up show.",
        None, lambda wp, ctx, seed: ops_cli_readme(seed),
        nonzero=_IMPORT + tuple(f"cli.{s}_s" for s in CLI_SUBCOMMANDS)
        + ("cone.build_s", "cone.builds", "cone.sample_dual_sphere_s",
           "analysis.is_star_quasiconvex_s")
        # the pipeline, probe and perturb commands are the only runs of the
        # repair layers: the metric, the bounding search and perturb
        + ("problem.function_distance_s", "problem.function_distance_calls",
           "analysis.is_C_convex_s", "analysis.find_bounding_functional_s",
           "analysis.bounded_below_calls", "analysis.bounding_useful_ratio",
           "perturb.genericity_probe_s", "perturb.density_pipeline_s",
           "perturb.density_pipeline_self_s", "perturb.ekeland_point_s",
           "perturb.tikhonov_regularize_s", "perturb.j_probes_per_pipeline"),
        zero=("problem.level_set_calls",)),
    Workload(
        "diagnose-3d",
        "One 389,017-point 3-D image under a 6-facet cone scanned by eight diagnostics: "
        "where lattice-image reuse, m>=3 oriented distance and d>=3 diameters show.",
        setup_diagnose_3d, ops_diagnose_3d,
        nonzero=_IMPORT + _LATTICE
        + ("config.load_problem_s", "expr.evaluate_s", "distance.batch_s",
           "distance.batch_rows", "distance.rows_per_s", "problem.diameter_s",
           "problem.diameter_calls", "problem.diameter_points")
        + tuple(f"diagnostics.{f}{s}" for f in DIAGNOSTICS for s in ("_s", "_self_s")),
        zero=("problem.function_distance_calls", "problem.level_set_calls")),
    Workload(
        "lattice-overcap",
        "A 2,099,601-point lattice, above the program's 2,000,000-point store cap, so "
        "dh_diagnostic takes the level_set fallback: where memory-for-time trades show.",
        setup_lattice_overcap, ops_lattice_overcap,
        nonzero=_IMPORT + _LATTICE
        + ("problem.level_set_s", "problem.level_set_calls")
        + tuple(f"diagnostics.{f}{s}" for f in ("classify_point", "dh_diagnostic",
                                                  "tykhonov_diagnostic")
                for s in ("_s", "_self_s")),
        zero=("problem.function_distance_calls",)),
)}
