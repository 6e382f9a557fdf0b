"""Spans and counters for the benchmark's traced runs.

Nothing under ``src/`` is instrumented.  ``install`` replaces functions
and methods of the ``wellposed`` layers with wrappers that record
a span (name, start, end, parent) around each call, plus a few counts taken
at the same boundaries.  A function is rebound in every ``wellposed``
module that holds it, because most modules import names from each other
(``diameter`` lives in ``problem`` but is also bound in ``diagnostics`` and
``registry``).  A wrapped name that no longer exists raises at install time,
so an upstream rename fails the traced run instead of reporting zeros.

Lattice points are counted at the base objective callables: problems built
through ``registry.get``, ``registry.hilbert_scalar`` and
``config.load_problem`` get a counting evaluator, and every perturbation and
scalarization calls through to it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "wellposed"
TRACE_MARK = "bench-trace "  # starts the stderr line that carries a traced CLI run


class Tracer:
    """In-memory span and counter store for one traced process."""

    def __init__(self):
        self.counts = Counter()
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index, nested in same name]
        self.counts.clear()  # cleared in place: the wrappers hold this object
        self._stack = []
        self._depth = Counter()

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self._depth[name] > 0])
        self._stack.append(idx)
        self._depth[name] += 1
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._depth[span[0]] -= 1

    def active(self, name):
        return self._depth[name] > 0

    def summary(self):
        """Busy time, self time and call count per span name, plus counts.

        Busy time skips spans nested inside a span of the same name, so a
        recursive or re-entrant call is not counted twice.  Self time is a
        span's duration minus its direct children's durations; spans run on
        one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy, own, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, _, nested) in enumerate(self.spans):
            calls[name] += 1
            if not nested:
                busy[name] += end - start
            own[name] += end - start - child[i]
        return {"busy": dict(busy), "self": dict(own), "calls": dict(calls),
                "counts": dict(self.counts)}


def merge_summaries(summaries):
    """Sum several summaries (one per traced subprocess) into one."""
    total = {"busy": Counter(), "self": Counter(), "calls": Counter(), "counts": Counter()}
    for s in summaries:
        for key in total:
            total[key].update(s[key])
    return {key: dict(val) for key, val in total.items()}


# ---------------------------------------------------------------------------
# installation


def _module(name):
    # ``wellposed.perturb`` as an attribute is the perturb *function*; only the
    # import system returns the module of that name.
    return importlib.import_module(f"{PACKAGE}.{name}")


def _rebind(orig, wrapper):
    """Replace ``orig`` by ``wrapper`` in every loaded wellposed module."""
    bound = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                bound += 1
    if not bound:
        raise RuntimeError(f"{orig.__module__}.{orig.__qualname__} is bound nowhere")


def _spanned(tracer, name, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        return result if after is None else after(result)

    return wrapper


def _counting_evaluator(tracer, evaluator):
    @functools.wraps(evaluator)
    def counted(points):
        tracer.counts["problem.points_evaluated"] += len(points)
        return evaluator(points)

    return counted


def _with_counting_evaluator(tracer, problem):
    return dataclasses.replace(problem, evaluator=_counting_evaluator(tracer, problem.evaluator))


CLI_SUBCOMMANDS = ("distance", "classify", "analyze", "tykhonov-check", "dh-check",
                   "perturb", "pipeline", "probe", "replicate")

DIAGNOSTICS = ("classify_point", "weff_via_distance", "dh_diagnostic",
               "dh_via_scalarization", "tykhonov_diagnostic")

# Functions wrapped with a span named <module>.<function>, by layer module.
SPANNED_FUNCTIONS = {
    "problem": ("diameter", "level_set", "function_distance"),
    "distance": ("oriented_distance_batch",),
    "analysis": ("is_C_convex", "is_star_quasiconvex", "is_C_bounded_below",
                 "find_bounding_functional"),
    "diagnostics": DIAGNOSTICS,
    "perturb": ("genericity_probe", "density_pipeline", "ekeland_point",
                "tikhonov_regularize", "_smallest_feasible_j"),
    "config": ("load_problem",),
}


def install(tracer):
    """Wrap the wellposed layers so that their calls report to ``tracer``."""
    problem, distance, cone, expr, registry = (
        _module(m) for m in ("problem", "distance", "cone", "expr", "registry"))
    counts = tracer.counts

    def rows(args, kwargs):
        counts["distance.batch_rows"] += len(args[1] if len(args) > 1 else kwargs["points"])

    def diameter_points(args, kwargs):
        pts = args[0] if args else kwargs["point_set"]
        counts["problem.diameter_points"] += len(getattr(pts, "points", pts))

    def bounding_found(search):
        counts["analysis.bounding_found"] += search.xi is not None
        return search

    def j_probe(args, kwargs):
        if tracer.active("perturb._smallest_feasible_j"):
            counts["perturb.j_probes"] += 1

    hooks = {
        "oriented_distance_batch": (rows, None),
        "diameter": (diameter_points, None),
        "find_bounding_functional": (None, bounding_found),
        "function_distance": (j_probe, None),
        "load_problem": (None, lambda p: _with_counting_evaluator(tracer, p)),
    }
    for mod_name, names in SPANNED_FUNCTIONS.items():
        mod = _module(mod_name)
        for fname in names:
            orig = getattr(mod, fname)
            span = f"{mod_name}.{fname}"
            before, after = hooks.get(fname, (None, None))
            _rebind(orig, _spanned(tracer, span, orig, before, after))

    # NNLS fallbacks: per-row exact projections made inside a batch call.
    orig_project = distance.project_dual_cone

    def project_dual_cone(*args, **kwargs):
        if tracer.active("distance.oriented_distance_batch"):
            counts["distance.nnls_fallbacks"] += 1
        return orig_project(*args, **kwargs)

    _rebind(orig_project, project_dual_cone)

    # methods
    for cls in (problem.VectorProblem, problem.ScalarProblem):
        cls.evaluate = _spanned(tracer, "problem.evaluate", cls.evaluate)
    cone.OrderingCone.__post_init__ = _spanned(tracer, "cone.build",
                                               cone.OrderingCone.__post_init__)
    cone.OrderingCone.sample_dual_sphere = _spanned(
        tracer, "cone.sample_dual_sphere", cone.OrderingCone.sample_dual_sphere)

    orig_iter = problem.Box.iter_lattice

    @functools.wraps(orig_iter)
    def iter_lattice(self, *args, **kwargs):
        # a generator: its passes are counted, its time is not
        counts["problem.lattice_passes"] += 1
        yield from orig_iter(self, *args, **kwargs)

    problem.Box.iter_lattice = iter_lattice
    orig_lattice = problem.Box.lattice

    @functools.wraps(orig_lattice)
    def lattice(self, resolution):
        counts["problem.lattice_passes"] += 1
        return orig_lattice(self, resolution)

    problem.Box.lattice = lattice

    # expression objectives: time every evaluation of a compiled objective
    orig_compile = expr.compile_objectives

    @functools.wraps(orig_compile)
    def compile_objectives(*args, **kwargs):
        return _spanned(tracer, "expr.evaluate", orig_compile(*args, **kwargs))

    _rebind(orig_compile, compile_objectives)

    # base objective suppliers: count the points every problem evaluates
    orig_get = registry.get

    @functools.wraps(orig_get)
    def get(label):
        entry = orig_get(label)
        build = entry.build
        return dataclasses.replace(
            entry, build=lambda: _with_counting_evaluator(tracer, build()))

    _rebind(orig_get, get)
    orig_hilbert = registry.hilbert_scalar

    @functools.wraps(orig_hilbert)
    def hilbert_scalar(d):
        return _with_counting_evaluator(tracer, orig_hilbert(d))

    _rebind(orig_hilbert, hilbert_scalar)


# ---------------------------------------------------------------------------
# per-layer metrics


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "import_s": "s",
    "import.modules_loaded": "count",
    **{f"cli.{sub}_s": "s" for sub in CLI_SUBCOMMANDS},
    "cone.build_s": "s",
    "cone.builds": "count",
    "cone.sample_dual_sphere_s": "s",
    "config.load_problem_s": "s",
    "expr.evaluate_s": "s",
    "distance.batch_s": "s",
    "distance.batch_rows": "count",
    "distance.rows_per_s": "1/s",
    "distance.nnls_fallbacks": "count",
    "distance.fallback_ratio": "ratio",
    "problem.points_evaluated": "count",
    "problem.evaluate_s": "s",
    "problem.evals_per_lattice_point": "ratio",
    "problem.lattice_passes": "count",
    "problem.diameter_s": "s",
    "problem.diameter_calls": "count",
    "problem.diameter_points": "count",
    "problem.level_set_s": "s",
    "problem.level_set_calls": "count",
    "problem.function_distance_s": "s",
    "problem.function_distance_calls": "count",
    "analysis.is_C_convex_s": "s",
    "analysis.is_star_quasiconvex_s": "s",
    "analysis.find_bounding_functional_s": "s",
    "analysis.bounded_below_calls": "count",
    "analysis.bounding_useful_ratio": "ratio",
    **{f"diagnostics.{fn}{suffix}": "s" for fn in DIAGNOSTICS for suffix in ("_s", "_self_s")},
    "perturb.genericity_probe_s": "s",
    "perturb.density_pipeline_s": "s",
    "perturb.density_pipeline_self_s": "s",
    "perturb.ekeland_point_s": "s",
    "perturb.tikhonov_regularize_s": "s",
    "perturb.j_probes_per_pipeline": "ratio",
    "trace.overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary, lattice_points):
    """Per-layer metrics (without import and overhead) from one summary.

    ``lattice_points`` is the workload's count of lattice points covered per
    cycle, the base of ``problem.evals_per_lattice_point``.
    """
    busy, own, calls, counts = (summary[k] for k in ("busy", "self", "calls", "counts"))

    def b(name):
        return busy.get(name, 0.0)

    m = {f"cli.{sub}_s": b(f"cli.{sub}") for sub in CLI_SUBCOMMANDS}
    rows = counts.get("distance.batch_rows", 0)
    fallbacks = counts.get("distance.nnls_fallbacks", 0)
    pipelines = calls.get("perturb.density_pipeline", 0)
    m.update({
        "cone.build_s": b("cone.build"),
        "cone.builds": calls.get("cone.build", 0),
        "cone.sample_dual_sphere_s": b("cone.sample_dual_sphere"),
        "config.load_problem_s": b("config.load_problem"),
        "expr.evaluate_s": b("expr.evaluate"),
        "distance.batch_s": b("distance.oriented_distance_batch"),
        "distance.batch_rows": rows,
        "distance.rows_per_s": _ratio(rows, b("distance.oriented_distance_batch")),
        "distance.nnls_fallbacks": fallbacks,
        "distance.fallback_ratio": _ratio(fallbacks, rows),
        "problem.points_evaluated": counts.get("problem.points_evaluated", 0),
        "problem.evaluate_s": b("problem.evaluate"),
        "problem.evals_per_lattice_point": _ratio(
            counts.get("problem.points_evaluated", 0), lattice_points),
        "problem.lattice_passes": counts.get("problem.lattice_passes", 0),
        "problem.diameter_s": b("problem.diameter"),
        "problem.diameter_calls": calls.get("problem.diameter", 0),
        "problem.diameter_points": counts.get("problem.diameter_points", 0),
        "problem.level_set_s": b("problem.level_set"),
        "problem.level_set_calls": calls.get("problem.level_set", 0),
        "problem.function_distance_s": b("problem.function_distance"),
        "problem.function_distance_calls": calls.get("problem.function_distance", 0),
        "analysis.is_C_convex_s": b("analysis.is_C_convex"),
        "analysis.is_star_quasiconvex_s": b("analysis.is_star_quasiconvex"),
        "analysis.find_bounding_functional_s": b("analysis.find_bounding_functional"),
        "analysis.bounded_below_calls": calls.get("analysis.is_C_bounded_below", 0),
        "analysis.bounding_useful_ratio": _ratio(
            counts.get("analysis.bounding_found", 0), calls.get("analysis.is_C_bounded_below", 0)),
        "perturb.genericity_probe_s": b("perturb.genericity_probe"),
        "perturb.density_pipeline_s": b("perturb.density_pipeline"),
        "perturb.density_pipeline_self_s": own.get("perturb.density_pipeline", 0.0),
        "perturb.ekeland_point_s": b("perturb.ekeland_point"),
        "perturb.tikhonov_regularize_s": b("perturb.tikhonov_regularize"),
        "perturb.j_probes_per_pipeline": _ratio(counts.get("perturb.j_probes", 0), pipelines),
    })
    for fn in DIAGNOSTICS:
        m[f"diagnostics.{fn}_s"] = b(f"diagnostics.{fn}")
        m[f"diagnostics.{fn}_self_s"] = own.get(f"diagnostics.{fn}", 0.0)
    return m
