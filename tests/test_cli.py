import hashlib
import re
import shlex
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from wellposed import cli, registry
from wellposed.cli import (
    SUBCOMMANDS, RunConfig, _resolve, build_parser, format_records, main, replicate, run)

CONFIG_TEXT = (
    "label: cfg-quad\n"
    "decision_dim: 1\n"
    "objective_dim: 2\n"
    "domain: {lower: [-2], upper: [2]}\n"
    "cone: {generators: [[1, 0], [0, 1]]}\n"
    "objective: ['x^2', 'x^2']\n")


def run_cli(tmp_path, *argv):
    out = tmp_path / "report.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text()


def parser_exit(*argv):
    """The exit code of an argv that argparse stops before the run."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code


def parse_records(text):
    records = []
    for block in text.strip().split("\n\n"):
        rec = {}
        for line in block.splitlines():
            k, _, v = line.partition("=")
            rec[k] = v
        records.append(rec)
    return records


def test_classify_subcommand_reports_tristate(tmp_path):
    code, text = run_cli(tmp_path, "classify", "--problem", "quad-pair")
    assert code == 0
    recs = parse_records(text)
    assert recs[0]["version"]
    assert recs[0]["config.seed"] == "0"
    body = recs[1]
    assert body["efficient"] == "yes"
    assert body["weakly_efficient_by_distance"] == "true"


def test_reports_are_byte_identical(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    argv = ["pipeline", "--problem", "x-x2", "--sigma", "0.5", "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_curve_format(tmp_path):
    code, text = run_cli(tmp_path, "dh-check", "--problem", "quad-pair",
                         "--format", "table-csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "level,direction_index,diameter"
    level, idx, diam = lines[1].split(",")
    assert float(level) == 1.0 and idx == "0"
    assert float(diam) > 0


def test_grid_above_the_lattice_budget_exits_two(tmp_path):
    # 10^10 points on d = 2: refused before the first chunk, not streamed
    code, text = run_cli(tmp_path, "classify", "--problem", "quad-2d", "--grid", "100000")
    assert code == 2
    assert parse_records(text)[0]["reason"] == (
        "lattice of 10000000000 points exceeds the budget 100000000 of one pass")


def test_pipeline_runs_above_the_lattice_store_cap(tmp_path):
    # every pipeline step streams the lattice, so only the pass budget bounds --grid
    code, text = run_cli(tmp_path, "pipeline", "--problem", "x-x2", "--grid", "2000001")
    assert code == 0
    assert "dh_verdict=well_posed_evidence" in text.splitlines()


def test_csv_rejected_for_non_curve_subcommand():
    # only the two curve subcommands take --format
    assert parser_exit("classify", "--problem", "quad-pair", "--format", "table-csv") == 2
    assert run(RunConfig("classify", problem="quad-pair", format="table-csv")) == 2


def test_unknown_label_exits_two(tmp_path):
    code, text = run_cli(tmp_path, "classify", "--problem", "missing")
    assert code == 2
    assert "reason=" in text


def test_distance_requires_target_vector(tmp_path):
    code, text = run_cli(tmp_path, "distance", "--problem", "quad-pair")
    assert code == 2


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_out_path_that_cannot_be_written_exits_two_before_any_work(
        tmp_path, monkeypatch, capsys, where):
    out = tmp_path / "missing" / "r.txt" if where == "missing-directory" else tmp_path

    def no_work(*_):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "_resolve", no_work)
    assert main(["distance", "--problem", "quad-pair", "--y", "1,1", "--out", str(out)]) == 2
    (rec,) = parse_records(capsys.readouterr().out)
    assert rec["status"] == "error" and rec["exit_code"] == "2"
    assert str(out) in rec["reason"]
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
def test_out_naming_the_config_file_exits_two_and_leaves_it(tmp_path, capsys, link):
    # the report once truncated the file before the problem was read from it
    cfg = tmp_path / "p.yaml"
    cfg.write_text(CONFIG_TEXT)
    out = cfg
    if link:
        out = tmp_path / "link.yaml"
        out.symlink_to(cfg)
    assert main(["classify", "--config", str(cfg), "--point", "0", "--out", str(out)]) == 2
    (rec,) = parse_records(capsys.readouterr().out)
    assert rec["reason"] == f"--out {out} names the --config file, which it would overwrite"
    assert cfg.read_text() == CONFIG_TEXT


def test_tykhonov_check_takes_xi_or_point_not_both(tmp_path):
    # --point was once ignored when --xi was given, and echoed in the header
    code, text = run_cli(tmp_path, "tykhonov-check", "--problem", "quad-pair", "--xi", "1,1",
                         "--point", "0.5")
    assert code == 2
    assert parse_records(text)[0]["reason"] == "pass either --xi or --point, not both"
    # a registry entry's designated point is no given --point
    code, text = run_cli(tmp_path, "tykhonov-check", "--problem", "quad-pair", "--xi", "1,1",
                         "--grid", "21")
    assert code == 0 and "route=linear" in text.splitlines()


# sqrt is NaN on x < 0: the screens once reported evidence, pipeline blamed sigma
# (exit 1) and probe counted a failed member (exit 0); pipeline's first step,
# the bounding-functional scan, refuses the NaN on the domain's lattice
NAN_CONFIG = CONFIG_TEXT.replace("[-2], upper: [2]", "[-1], upper: [1]").replace(
    "['x^2', 'x^2']", "['x^0.5', '-x']")


@pytest.mark.parametrize("subcommand, where", [
    ("analyze", "the screens' sample points"),
    ("pipeline", "the lattice"),
    ("probe", "the screens' sample points"),
])
def test_non_finite_images_exit_two(tmp_path, subcommand, where):
    cfg = tmp_path / "p.yaml"
    cfg.write_text(NAN_CONFIG)
    code, text = run_cli(tmp_path, subcommand, "--config", str(cfg))
    assert code == 2
    assert parse_records(text)[0]["reason"] == f"objective must be finite on {where}"


@pytest.mark.parametrize("argv", [
    ["distance", "--problem", "quad-pair", "--y", "1,nan"],
    ["classify", "--problem", "quad-pair", "--point", "inf"],
    ["tykhonov-check", "--problem", "quad-pair", "--xi", "1,-inf"],
])
def test_non_finite_vectors_exit_two(argv):
    assert parser_exit(*argv) == 2


@pytest.mark.parametrize("subcommand", ["analyze", "pipeline", "probe"])
def test_negative_seed_exits_two(subcommand):
    # numpy's generators refuse a negative seed; it once crashed with a traceback
    assert parser_exit(subcommand, "--problem", "x-x2", "--seed", "-1") == 2


@pytest.mark.parametrize("argv, reason", [
    (["classify", "--problem", "biquad", "--point", "0.3", "--grid", "0"],
     "grid resolution must be >= 2"),
    (["probe", "--problem", "quad-pair", "--grid", "0"], "grid resolution must be >= 2"),
    (["distance", "--problem", "quad-pair", "--y", "1,1", "--n", "0"], "n must be >= 1"),
    (["perturb", "--problem", "zero-function", "--point", "0", "--n", "0"],
     "n must be a positive integer"),
    (["probe", "--problem", "quad-pair", "--n", "0"], "n_max must be >= 1"),
], ids=["classify-grid", "probe-grid", "distance-n", "perturb-n", "probe-n"])
def test_zero_grid_and_n_are_not_replaced_by_defaults(tmp_path, argv, reason):
    code, text = run_cli(tmp_path, *argv)
    assert code == 2
    assert parse_records(text)[0]["reason"] == reason


@pytest.mark.parametrize("argv", [
    ["probe", "--problem", "x-minus-xex", "--sigma", "nan"],
    ["pipeline", "--problem", "x-x2", "--sigma", "nan"],
    ["pipeline", "--problem", "x-x2", "--sigma", "inf"],
], ids=["probe-nan", "pipeline-nan", "pipeline-inf"])
def test_non_finite_sigma_is_refused_by_name(tmp_path, argv):
    # probe once reported sigma=nan with exit 0, and pipeline blamed the
    # Ekeland start value or the perturbation amplitude
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(tmp_path, *argv)
    assert code == 2
    assert parse_records(text)[0]["reason"] == f"sigma must be positive and finite, got {argv[-1]}"


def test_config_file_problem(tmp_path):
    cfg = tmp_path / "p.yaml"
    cfg.write_text(CONFIG_TEXT)
    code, text = run_cli(tmp_path, "classify", "--config", str(cfg),
                         "--point", "0.0")
    assert code == 0
    assert "label=cfg-quad" in text


ORTHANT5_CONFIG = (
    "label: orthant5\n"
    "decision_dim: 1\n"
    "objective_dim: 5\n"
    "domain: {lower: [-1], upper: [1]}\n"
    "cone: {generators: [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],"
    " [0, 0, 0, 0, 1]]DUALS}\n"
    "objective: ['x^2', 'x^2', 'x^2', 'x^2', '-x']\n")


@pytest.mark.parametrize("duals", [
    ", dual_generators: [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],"
    " [0, 0, 0, 0, 1]]",
    "",
], ids=["all-five-duals", "no-duals"])
def test_five_dimensional_orthant_keeps_its_verdicts(tmp_path, duals):
    # f5 = -x forces x >= 0.5 on any point no worse than x = 0.5
    cfg = tmp_path / "p.yaml"
    cfg.write_text(ORTHANT5_CONFIG.replace("DUALS", duals))
    code, text = run_cli(tmp_path, "classify", "--config", str(cfg), "--point", "0.5")
    assert code == 0
    body = parse_records(text)[1]
    assert (body["efficient"], body["weakly_efficient"], body["strictly_efficient"]) == (
        "yes", "yes", "yes")


def test_five_dimensional_dual_list_missing_a_facet_exits_two(tmp_path):
    # four of the five unit duals describe a larger cone; it was trusted, and
    # classify said no/no/no with witness x = -0.5 at exit 0
    cfg = tmp_path / "p.yaml"
    cfg.write_text(ORTHANT5_CONFIG.replace(
        "DUALS", ", dual_generators: [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],"
                 " [0, 0, 0, 1, 0]]"))
    code, text = run_cli(tmp_path, "classify", "--config", str(cfg), "--point", "0.5",
                         "--grid", "201")
    assert code == 2
    assert parse_records(text)[0]["reason"] == "dual generators miss a facet normal of the cone"


def test_non_finite_k0_exits_two(tmp_path):
    # dh-check once measured its direction-0 column on empty level sets
    cfg = tmp_path / "p.yaml"
    cfg.write_text(CONFIG_TEXT.replace("[0, 1]]}", "[0, 1]], k0: [.nan, 1]}"))
    code, text = run_cli(tmp_path, "dh-check", "--config", str(cfg), "--point", "0")
    assert code == 2
    assert parse_records(text)[0]["reason"] == "k0 must be finite"


def test_readme_problem_file(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Problem files", 1)[1]
    block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    cfg = tmp_path / "readme.yaml"
    cfg.write_text(block)
    code, text = run_cli(tmp_path, "classify", "--config", str(cfg), "--point", "0")
    assert code == 0
    assert "efficient=yes" in text.splitlines()


# sha256 of the full report; any drift in a DH or Tykhonov report fails here
REPORT_PINS = [
    (["dh-check", "--config", "bench/diagnose3d.yaml", "--point", "0,0,0", "--grid", "41"],
     "66822ffa8b14014bebacc8282c01b7adc95ba4d43d58b93ab3b3ead280a541b7"),
    (["tykhonov-check", "--problem", "quad-pair", "--xi", "1,1", "--grid", "401"],
     "37872c631019e725a31be0ba986380d8e7fdf5065b5f89a6eec28df6035d54d8"),
]


@pytest.mark.parametrize("argv, sha256", REPORT_PINS, ids=[a[0] for a, _ in REPORT_PINS])
def test_level_set_reports_are_pinned(tmp_path, monkeypatch, argv, sha256):
    # the config path is echoed into the report, so it is given relative to the repo root
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    out = tmp_path / "report.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def box_config(d):
    """A d-dimensional problem file: orthant-ordered squares on [-1, 1]^d."""
    return (f"label: cube-{d}\n"
            f"decision_dim: {d}\n"
            "objective_dim: 2\n"
            f"domain: {{lower: {[-1] * d}, upper: {[1] * d}}}\n"
            "cone: {generators: [[1, 0], [0, 1]]}\n"
            "objective: ['x1^2', '(x1 - 1)^2']\n")


@pytest.mark.parametrize("d, resolution", [(1, 201), (2, 201), (3, 125), (4, 37)])
def test_config_default_resolution_fits_the_lattice_cap(tmp_path, d, resolution):
    cfg = tmp_path / "p.yaml"
    cfg.write_text(box_config(d))
    assert _resolve(RunConfig("classify", config=str(cfg)))[1] == resolution
    assert _resolve(RunConfig("classify", config=str(cfg), grid=9))[1] == 9


QUADRANT_CONFIG = (
    "label: quadrant\n"
    "decision_dim: 1\n"
    "objective_dim: 2\n"
    "domain: {lower: [-1], upper: [1]}\n"
    "cone: {generators: [[-1, 0], [0, 1]]}\n"
    "objective: ['-x^2', 'x^2']\n")


@pytest.mark.parametrize("argv, option, value", [
    (["classify", "--problem", "quad-2d", "--grid", "21"], "--point", "-0.5,0.5"),
    (["distance", "--problem", "quad-pair"], "--y", "-1,2"),
    (["tykhonov-check", "--grid", "21"], "--xi", "-1,1"),
], ids=["point", "y", "xi"])
def test_vector_with_leading_minus_parses_like_the_equals_form(tmp_path, argv, option, value):
    cfg = tmp_path / "quadrant.yaml"
    cfg.write_text(QUADRANT_CONFIG)
    if "--problem" not in argv:
        argv = argv + ["--config", str(cfg)]
    code, spaced = run_cli(tmp_path, *argv, option, value)
    assert code == 0
    assert main(argv + [f"{option}={value}", "--out", str(tmp_path / "eq.txt")]) == 0
    assert spaced == (tmp_path / "eq.txt").read_text()


def test_problem_and_config_conflict(tmp_path):
    cfg = tmp_path / "p.yaml"
    cfg.write_text(CONFIG_TEXT)
    code, _ = run_cli(tmp_path, "classify", "--problem", "quad-pair",
                      "--config", str(cfg))
    assert code == 2


# probe once ran only the config file, and replicate ignored it, while the header echoed both;
# replicate takes no --config, so argparse refuses it (reason None)
@pytest.mark.parametrize("argv, reason", [
    (["probe", "--problem", "quad-pair"], "pass either --problem or --config, not both"),
    (["replicate", "--problem", "zero-function"], None),
], ids=["probe", "replicate"])
def test_probe_and_replicate_refuse_problem_with_config(tmp_path, argv, reason):
    cfg = tmp_path / "p.yaml"
    cfg.write_text(CONFIG_TEXT)
    if reason is None:
        assert parser_exit(*argv, "--config", str(cfg)) == 2
        return
    code, text = run_cli(tmp_path, *argv, "--config", str(cfg))
    assert code == 2
    assert parse_records(text)[0]["reason"] == reason


def test_perturb_certificate_exit_zero(tmp_path):
    code, text = run_cli(tmp_path, "perturb", "--problem", "zero-function", "--n", "2")
    assert code == 0
    recs = parse_records(text)
    assert recs[1]["dh_verdict"] == "well_posed_evidence"


def test_pipeline_failure_reports_reason(tmp_path):
    code, text = run_cli(tmp_path, "pipeline", "--problem", "x-minus-xex",
                         "--sigma", "0.5")
    assert code == 1
    recs = parse_records(text)
    assert recs[0]["status"] == "failed"
    assert recs[0]["error_type"] == "NoBoundingFunctional"


def test_replicate_zero_function_all_assertions_pass():
    records, ok = replicate("zero-function")
    assert ok is True
    assert all(r["passed"] for r in records if r["record"] == "assertion")


def test_replicate_subcommand_exit_codes(tmp_path):
    code, text = run_cli(tmp_path, "replicate", "--problem", "x-minus-x")
    assert code == 0
    assert "all_passed=true" in text


def test_replicate_every_registry_problem(tmp_path):
    labels = registry.labels() + ("hilbert-truncation-4", "hilbert-truncation-8")
    code, text = run_cli(tmp_path, "replicate", "--problem", ",".join(labels))
    assert code == 0
    records = parse_records(text)
    assert all(r["passed"] == "true" for r in records if r.get("record") == "assertion")
    # a level-diameter check leaves a numpy bool in the summary, printed "True"
    assert records[-1] == {"record": "replicate-summary", "all_passed": "True"}


def test_replicate_refuses_grid():
    # every assertion runs at the registry resolution
    assert parser_exit("replicate", "--problem", "quad-2d", "--grid", "5") == 2
    assert run(RunConfig("replicate", problem="quad-2d", grid=5)) == 2


def test_run_config_dataclass_round_trip():
    cfg = RunConfig(subcommand="classify", problem="quad-pair")
    assert run(cfg) == 0  # writes to stdout


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_format_records_scalar_styles():
    text = format_records([{"a": 1, "b": 0.25, "c": True, "d": None,
                            "e": np.array([1.0, 2.0])}])
    assert text == "a=1\nb=0.25\nc=true\nd=none\ne=1.0 2.0\n"


def test_help_text_is_pinned(monkeypatch, capsys):
    # cli_help.txt holds `wellposed --help` and each `wellposed <sub> --help` at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    parts = []
    for argv in [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        parts.append(f"$ wellposed {' '.join(argv)}\n{capsys.readouterr().out}")
    assert "\n".join(parts) == Path(__file__).with_name("cli_help.txt").read_text()


def test_readme_commands_match_the_subcommand_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("wellposed ")]
    assert {argv[0] for argv in commands} == set(SUBCOMMANDS)
    for argv in commands:
        build_parser().parse_args(argv)  # every option in the docs exists
        build_parser().parse_args(argv + ["--seed", "0"])  # as the benchmark runs them


# What each subcommand reads besides --seed and --out, written out here rather than
# read from cli.SUBCOMMANDS, so that the parser is checked against it
READS = {
    "distance": {"problem", "config", "y", "n"},
    "analyze": {"problem", "config", "xi"},
    "classify": {"problem", "config", "grid", "point"},
    "tykhonov-check": {"problem", "config", "grid", "format", "point", "xi", "depth"},
    "dh-check": {"problem", "config", "grid", "format", "point", "depth"},
    "perturb": {"problem", "config", "grid", "point", "n"},
    "pipeline": {"problem", "config", "grid", "sigma"},
    "probe": {"problem", "config", "grid", "sigma", "n"},
    "replicate": {"problem"},
}

# a valid command per subcommand, its problem source first
BASE = {
    "distance": ["--problem", "quad-pair", "--y", "1,1"],
    "analyze": ["--problem", "x-x2"],
    "classify": ["--problem", "x-x2", "--point", "0.3"],
    # the designated point 0.5, so that --point and --xi can each be added
    "tykhonov-check": ["--problem", "skew-cone-quad", "--grid", "21", "--depth", "4"],
    "dh-check": ["--problem", "x-minus-x", "--point", "0.5", "--grid", "21", "--depth", "4"],
    # -0.25 classifies efficient within the tolerance of 21 points, not of 101
    "perturb": ["--problem", "quad-pair", "--point", "-0.25", "--grid", "21"],
    "pipeline": ["--problem", "x-x2", "--grid", "21"],
    "probe": ["--problem", "quad-pair", "--grid", "21"],
    "replicate": ["--problem", "x-minus-x"],
}

# a problem file has no designated point to fall back on
CONFIG_POINT = {"tykhonov-check": ["--point", "0.5"]}

# a value of every option (--config names CONFIG_TEXT in place of the --problem label);
# each one that a subcommand reads changes its BASE report
VALUES = {"problem": "zero-function", "config": None, "grid": "101", "sigma": "0.3", "n": "3",
          "seed": "1", "out": "other.txt", "format": "table-csv", "point": "0", "y": "2,-1",
          "xi": "1,2", "depth": "2"}

# perturb's certificate does not vary with --grid: the grid decides whether the center
# classifies efficient, which perturb requires (HypothesisNotMet, exit 2)
REFUSED_VARIANTS = {("perturb", "grid")}


def report_body(text):
    """A report without its header record, which echoes every option."""
    return text.split("\n\n", 1)[1] if text.startswith("version=") else text


@pytest.mark.parametrize("subcommand", READS)
def test_each_option_is_read_or_refused(tmp_path, subcommand):
    cfg = tmp_path / "p.yaml"
    cfg.write_text(CONFIG_TEXT)
    base = [subcommand] + BASE[subcommand]
    code, base_text = run_cli(tmp_path, *base)
    assert code == 0
    assert set(VALUES) == {f.name for f in fields(RunConfig)} - {"subcommand"}
    accepted = set()
    for option, value in VALUES.items():
        if option == "config":
            argv = ([subcommand] + BASE[subcommand][2:] + ["--config", str(cfg)]
                    + CONFIG_POINT.get(subcommand, []))
        else:
            argv = base + [f"--{option}", value]
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            assert exc.code == 2, option
            continue
        accepted.add(option)
        if option not in ("seed", "out"):
            code, text = run_cli(tmp_path, *argv)
            # a report or a failed certificate (exit 1), not an input refusal
            assert code in ((2,) if (subcommand, option) in REFUSED_VARIANTS else (0, 1)), option
            assert report_body(text) != report_body(base_text), option
    assert accepted == READS[subcommand] | {"seed", "out"}
