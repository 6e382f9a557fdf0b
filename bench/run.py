"""Benchmark of the wellposed toolkit.

Run one workload from the repository root:

    python3 bench/run.py --workload diagnose-3d --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs one untraced cycle through the workload's operations
and then two traced repetitions of set-up plus one cycle, and reports the
per-layer metrics (see ``tracer.py``).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit and sample count.

    python3 bench/run.py --all

runs every workload untraced once and traced twice, checks that the traced
counts repeat, prints every metric, and writes ``bench/baseline.json`` with
the machine it ran on.

The program is imported from ``src/`` of the checkout the benchmark sits
in, never from an installed copy; without that source the benchmark exits
with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

# One client, one operation at a time: BLAS threads would compete with it for
# the same cores and make timings depend on machine load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, ROOT, SRC, WORKLOADS, child_env, ops_cli_readme, pinned_problems)

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
TRACED_REPS = 2
DETAIL_MARK = "bench-detail "

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "command_s.p50": "s",
    "command_s.p90": "s",
    "lattice_points_per_s": "1/s",
    "certificates_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def import_wellposed():
    """Import the program from this checkout: (module, seconds, modules loaded)."""
    sys.path.insert(0, str(SRC))
    before = len(sys.modules)
    t0 = time.perf_counter()
    import wellposed
    seconds = time.perf_counter() - t0
    if Path(wellposed.__file__).resolve().parent != SRC / "wellposed":
        raise SystemExit(f"bench: wellposed was imported from {wellposed.__file__}")
    return wellposed, seconds, len(sys.modules) - before


def setup_probe(workload, seed):
    """Set-up time of one fresh interpreter: import plus building the problems."""
    t0 = time.perf_counter()
    wp, _, _ = import_wellposed()
    if workload.setup is not None:
        workload.setup(wp, seed)
    return time.perf_counter() - t0


def setup_samples(workload, seed, count):
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
             workload.name, "--seed", str(seed)],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# operations


@dataclass
class Samples:
    """Per-operation timings and outcomes of one or more cycles."""

    times: dict
    verified: dict  # 1 for a sample whose output passed its checks, else 0
    results: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    cycles: int = 0
    peak_rss_mb: float = 0.0  # after the first full cycle

    def per_op(self):
        return [statistics.median(t) for t in self.times.values()]

    def wall(self):
        """Wall time of one cycle, from the per-operation medians."""
        return sum(self.per_op())


def _problems(workload, seed, op, result, results):
    if isinstance(result, Exception):
        return [f"raised {type(result).__name__}: {result}"]
    try:
        return pinned_problems(workload.name, seed, op.name, result) + op.check(result, results)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def run_ops(workload, ops, seed, seconds=None):
    """Run the operations round-robin, one at a time, and check each output.

    With ``seconds`` None this is one cycle.  Otherwise cycles go on, and an
    operation starts only while its median time so far still fits in the
    measuring time: a run lasts about ``seconds`` however long a cycle is,
    and every operation has at least one sample.
    """
    s = Samples({op.name: [] for op in ops}, {op.name: [] for op in ops})
    rusage = resource.RUSAGE_CHILDREN if workload.setup is None else resource.RUSAGE_SELF
    start = time.perf_counter()
    while True:
        for op in ops:
            if s.cycles and (time.perf_counter() - start
                             + statistics.median(s.times[op.name]) > seconds):
                return s
            t = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # counted as a failed operation, the run goes on
                result = exc
                traceback.print_exc()
            s.times[op.name].append(time.perf_counter() - t)
            s.results[op.name] = result
            found = _problems(workload, seed, op, result, s.results)
            s.attempted += 1
            s.failed += bool(found)
            s.verified[op.name].append(0 if found else 1)
            if found:
                print(f"bench: {workload.name}/{op.name} failed: {'; '.join(found)}",
                      file=sys.stderr)
        s.cycles += 1
        if s.cycles == 1:
            s.peak_rss_mb = resource.getrusage(rusage).ru_maxrss / 1024.0
        if seconds is None:
            return s


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def untraced_run(workload, seed, seconds):
    if workload.setup is None:
        wp = ctx = None
        setups = setup_samples(workload, seed, SETUP_SAMPLES)
    else:
        t0 = time.perf_counter()
        wp, _, _ = import_wellposed()
        ctx = workload.setup(wp, seed)
        setups = [time.perf_counter() - t0] + setup_samples(workload, seed, SETUP_SAMPLES - 1)
    ops = workload.ops(wp, ctx, seed)
    s = run_ops(workload, ops, seed, seconds)

    per_op, wall = s.per_op(), s.wall()
    certificates = sum(statistics.median(v) for v in s.verified.values())
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "command_s.p50": statistics.median(per_op),
        "command_s.p90": _p90(per_op),
        "lattice_points_per_s": sum(op.lattice_points for op in ops) / wall,
        "certificates_per_s": certificates / wall,
        "peak_rss_mb": s.peak_rss_mb,
    }
    samples = {name: s.attempted for name in metrics}
    samples.update({"setup_s": len(setups), "peak_rss_mb": 1})
    detail = {"samples": samples, "failed_fraction": s.failed / s.attempted,
              "cycles": s.cycles}
    return metrics, END_TO_END_UNITS, s.attempted, s.failed, detail, []


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def traced_run(workload, seed):
    if workload.setup is None:
        untraced = run_ops(workload, ops_cli_readme(seed), seed)
        reps, summaries, traces = [], [], []
        for _ in range(TRACED_REPS):
            rep = run_ops(workload, ops_cli_readme(seed, traced=True), seed)
            rep_traces = [r.trace for r in rep.results.values() if getattr(r, "trace", None)]
            if len(rep_traces) != len(rep.results):
                raise SystemExit("bench: a traced command reported no trace")
            reps.append(rep)
            summaries.append(tracer.merge_summaries(rep_traces))
            traces += rep_traces
        import_s = statistics.median(t["import_s"] for t in traces)
        modules = max(t["import.modules_loaded"] for t in traces)
        ops = ops_cli_readme(seed)
    else:
        wp, import_s, modules = import_wellposed()
        ctx = workload.setup(wp, seed)
        untraced = run_ops(workload, workload.ops(wp, ctx, seed), seed)
        tr = tracer.Tracer()
        tracer.install(tr)
        reps, summaries = [], []
        for _ in range(TRACED_REPS):
            tr.reset()
            ctx = workload.setup(wp, seed)  # rebuilt so its objectives count points
            ops = workload.ops(wp, ctx, seed)
            reps.append(run_ops(workload, ops, seed))
            summaries.append(tr.summary())

    lattice_points = sum(op.lattice_points for op in ops)
    per_rep = [tracer.layer_metrics(s, lattice_points) for s in summaries]
    units = tracer.PER_LAYER_UNITS
    violations = []
    metrics = {}
    for name, value in per_rep[0].items():
        if units[name] in ("count", "ratio"):
            values = {r[name] for r in per_rep}
            if len(values) > 1:
                violations.append(f"{name} differs between traced repetitions: {sorted(values)}")
            metrics[name] = value
        else:
            metrics[name] = statistics.median(r[name] for r in per_rep)
    traced_wall = statistics.median(r.wall() for r in reps)
    metrics.update({"import_s": import_s, "import.modules_loaded": modules,
                    "trace.overhead_s": traced_wall - untraced.wall()})
    metrics = {name: metrics[name] for name in units}

    for name in workload.nonzero:
        if not metrics[name]:
            violations.append(f"{name} reads 0 on {workload.name}")
    for name in workload.zero:
        if metrics[name]:
            violations.append(f"{name} reads {metrics[name]} on {workload.name}, expected 0")

    runs = [untraced] + reps
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    detail = {"samples": {name: TRACED_REPS for name in units},
              "failed_fraction": failed / attempted,
              "untraced_wall_s": untraced.wall(), "traced_wall_s": traced_wall}
    return metrics, units, attempted, failed, detail, violations


# ---------------------------------------------------------------------------
# output


def report(workload, metrics, units, attempted, failed, detail, violations):
    for name, value in metrics.items():
        n = detail["samples"].get(name, 1)
        print(f"{workload.name}  {name} = {value:.6g} {units[name]}  (n={n})")
    print(f"{workload.name}  failed_fraction = {detail['failed_fraction']:.6g}  "
          f"({failed} of {attempted} operations)")
    for v in violations:
        print(f"bench: traced run check failed: {v}", file=sys.stderr)
    print(DETAIL_MARK + json.dumps(detail))
    correct = failed == 0 and not violations
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not violations else 1


def _machine(seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "commit": commit, "seed": seed}


def _child_run(name, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    lines = proc.stdout.decode().splitlines()
    for line in lines[:-1]:
        if not line.startswith(DETAIL_MARK):
            print(line)
    detail = next(json.loads(line[len(DETAIL_MARK):]) for line in lines
                  if line.startswith(DETAIL_MARK))
    return proc.returncode, json.loads(lines[-1]), detail


def run_all(seed, seconds):
    out = {"machine": _machine(seed), "run_seconds": seconds, "workloads": {}}
    status = 0
    for name, workload in WORKLOADS.items():
        code, e2e, e2e_detail = _child_run(name, seed, seconds, 0)
        traced = [_child_run(name, seed, seconds, 1) for _ in range(2)]
        status |= code | traced[0][0] | traced[1][0]
        counts = {k for k, u in tracer.PER_LAYER_UNITS.items() if u in ("count", "ratio")}
        repeat = [k for k in sorted(counts)
                  if traced[0][1]["metrics"][k]["value"] != traced[1][1]["metrics"][k]["value"]]
        if repeat:
            print(f"bench: counts differ between traced runs of {name}: {repeat}", file=sys.stderr)
            status |= 1
        out["workloads"][name] = {
            "why": workload.why,
            "correct": e2e["correct"] and traced[0][1]["correct"] and traced[1][1]["correct"]
            and not repeat,
            "failed_fraction": e2e_detail["failed_fraction"],
            "end_to_end": {k: {**v, "samples": e2e_detail["samples"][k]}
                           for k, v in e2e["metrics"].items()},
            "per_layer": {k: {**v, "samples": traced[0][2]["samples"][k]}
                          for k, v in traced[0][1]["metrics"].items()},
            "untraced_wall_s": traced[0][2]["untraced_wall_s"],
            "traced_wall_s": traced[0][2]["traced_wall_s"],
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {HERE / 'baseline.json'}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "wellposed" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {SRC / 'wellposed'}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required (or --all)")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(workload, args.seed)}))
        return 0
    if args.trace:
        result = traced_run(workload, args.seed)
    else:
        result = untraced_run(workload, args.seed, args.seconds)
    return report(workload, *result)


if __name__ == "__main__":
    sys.exit(main())
