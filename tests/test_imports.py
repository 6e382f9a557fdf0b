"""Cold-start scope: which third-party modules the package loads, and when."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import wellposed

SRC = str(Path(wellposed.__file__).resolve().parents[1])
DIAGNOSE3D = Path(__file__).resolve().parents[1] / "bench" / "diagnose3d.yaml"


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


def test_large_diameters_load_no_scipy():
    # above the direct-route size diameter projects and sweeps; no hull
    loaded = _loaded_after(
        "import numpy as np\n"
        "from wellposed import diameter\n"
        "from wellposed.problem import _DIRECT_DIAMETER_MAX\n"
        "rng = np.random.default_rng(0)\n"
        "for d in (2, 3, 4):\n"
        "    assert diameter(rng.standard_normal((_DIRECT_DIAMETER_MAX + 500, d))) > 0")
    assert loaded == []


def test_diagnose3d_diagnostics_load_no_scipy():
    # every diagnostic the benchmark runs on this problem, at a grid whose
    # level sets reach the projected diameter route; the problem file loads yaml
    loaded = _loaded_after(
        "import wellposed as wp\n"
        "import wellposed.diagnostics as diagnostics\n"
        "sizes, inner = [], diagnostics.diameter\n"
        "diagnostics.diameter = lambda pts: sizes.append(len(pts)) or inner(pts)\n"
        f"p = wp.load_problem({str(DIAGNOSE3D)!r})\n"
        "x, res = (0.0, 0.0, 0.0), 31\n"
        "wp.classify_point(p, x, res)\n"
        "wp.weff_via_distance(p, x, res)\n"
        "wp.dh_diagnostic(p, x, grid_resolution=res)\n"
        "wp.dh_via_scalarization(p, x, grid_resolution=res)\n"
        "linear = wp.scalarize_linear(p, p.cone.base_polytope().mean(axis=0))\n"
        "wp.tykhonov_diagnostic(linear, grid_resolution=res)\n"
        "assert max(sizes) > wp.problem._DIRECT_DIAMETER_MAX")
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_version_literal_matches_pyproject():
    # the version is a literal, so importing the package reads no metadata
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert wellposed.__version__ == tomllib.load(fh)["project"]["version"]
