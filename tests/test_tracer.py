"""The benchmark's tracer rebinds library names; a renamed target must fail here."""

import json
import subprocess
import sys
from pathlib import Path

import wellposed

SRC = Path(wellposed.__file__).resolve().parents[1]
BENCH = SRC.parent / "bench"

SCRIPT = f"""
import json, sys
sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]
import tracer
import wellposed

t = tracer.Tracer()
tracer.install(t)
p = wellposed.registry.get("quad-pair").build()
members = wellposed.level_set(p, [0.25, 0.25], 21)
report = wellposed.dh_diagnostic(p, [0.0], grid_resolution=21)
s = t.summary()
print(json.dumps({{"members": members.shape[0], "verdict": report.verdict,
                  "calls": s["calls"], "counts": s["counts"]}}))
"""


def test_tracer_installs_and_counts_a_small_run():
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                         check=True).stdout
    got = json.loads(out.splitlines()[-1])
    assert got["members"] == 11  # x^2 <= 1/4 on the 21-point lattice of [-1, 1]
    assert got["verdict"] == wellposed.WELL_POSED
    calls, counts = got["calls"], got["counts"]
    assert calls["problem.level_set"] == 1
    assert calls["diagnostics.dh_diagnostic"] == 1
    # dh's efficiency gate reads only the domination rule, not a whole classification
    assert "diagnostics.classify_point" not in calls
    assert calls["problem.diameter"] == 11 * 3  # every level of 3 directions holds x_bar
    # one pass each: level_set, and dh_diagnostic's, which feeds its efficiency gate too
    assert counts["problem.lattice_passes"] == 2
    assert counts["problem.points_evaluated"] == 2 * 21 + 1  # and f(x_bar) once, in dh
    assert counts["problem.diameter_points"] > 0
