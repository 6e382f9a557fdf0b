"""Cold-start scope: which third-party modules the package loads, and when."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import wellposed

SRC = str(Path(wellposed.__file__).resolve().parents[1])


def _loaded_after(code):
    """Names of the scipy and yaml modules loaded in a fresh interpreter after `code`."""
    script = (
        f"import sys; sys.path.insert(0, {SRC!r})\n{code}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'yaml')))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True).stdout
    return ast.literal_eval(out.splitlines()[-1])


def test_import_loads_no_scipy_or_yaml():
    assert _loaded_after("import wellposed") == []


def test_cone_build_loads_no_scipy():
    # no functional is clearly positive on all three generators, so no
    # Gordan certificate skips the pointedness test
    assert _loaded_after(
        "from wellposed import OrderingCone\n"
        "OrderingCone(2, [[1.0, 0.0], [-1.0, 0.1], [-1.0, 0.2]])") == []


# every README command, with a line its report must hold
README_COMMANDS = [
    (["classify", "--problem", "biquad", "--point", "0.3"], "record=classification"),
    (["distance", "--problem", "quad-pair", "--y", "1,1"], "record=oriented-distance"),
    (["analyze", "--problem", "x-x2", "--xi", "0,1"], "record=star-quasiconvexity"),
    (["tykhonov-check", "--problem", "quad-pair", "--xi", "1,1", "--depth", "20"],
     "kind=tykhonov"),
    (["dh-check", "--problem", "skew-cone-quad", "--point", "0.5", "--format", "table-csv"],
     "level,direction_index,diameter"),
    (["perturb", "--problem", "zero-function", "--point", "0", "--n", "2"],
     "record=regularization-certificate"),
    (["pipeline", "--problem", "x-x2", "--sigma", "0.1"], "record=pipeline-certificate"),
    (["probe", "--problem", "quad-pair,x-minus-xex", "--sigma", "0.5"], "record=probe-summary"),
    (["replicate", "--problem", "hilbert-truncation-4"], "record=replicate"),
]


@pytest.mark.parametrize("argv, line", README_COMMANDS, ids=[a[0] for a, _ in README_COMMANDS])
def test_command_loads_no_scipy(tmp_path, argv, line):
    out = tmp_path / "report.txt"
    loaded = _loaded_after(
        "import wellposed.cli\n"
        f"assert wellposed.cli.main({argv + ['--out', str(out)]!r}) == 0")
    assert loaded == []
    assert line in out.read_text().splitlines()


def test_oriented_distance_loads_no_scipy():
    loaded = _loaded_after(
        "from wellposed import (OrderingCone, oriented_distance, oriented_distance_batch,\n"
        "                       orthant, project_neg_cone)\n"
        "for cone in (orthant(3), OrderingCone(2, [[1.0, 0.0], [1.0, 1.0]])):\n"
        "    y = [1.0] + [-2.0] * (cone.ambient_dim - 1)\n"
        "    assert oriented_distance(cone, y).value > 0\n"
        "    oriented_distance_batch(cone, [y, [-1.0] * cone.ambient_dim])\n"
        "    project_neg_cone(cone, y)")
    assert loaded == []
