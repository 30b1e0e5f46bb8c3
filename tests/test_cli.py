import subprocess
import sys

import pytest

from netgen import ladder_spec
from riskmc import render_project

RISKMC = [sys.executable, "-m", "riskmc"]


def run_cli(*args):
    return subprocess.run(RISKMC + list(args), capture_output=True, text=True)


@pytest.fixture()
def project(figure3_path):
    return str(figure3_path)


def test_validate_reports_shape(project):
    result = run_cli("validate", "--project", project)
    assert result.returncode == 0
    assert "nodes: 8" in result.stdout
    assert "paths: 3" in result.stdout


def test_simulate_same_seed_byte_identical(project, tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        result = run_cli("simulate", "--project", project, "--runs", "2000",
                         "--seed", "42", "--out", str(out))
        assert result.returncode == 0, result.stderr
    for name in ("percentiles.csv", "endpoints.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_validate_counts_paths_without_listing_them(tmp_path):
    ladder = tmp_path / "ladder.project"
    ladder.write_text(render_project(ladder_spec(22)))
    result = run_cli("validate", "--project", str(ladder))
    assert result.returncode == 0, result.stderr
    assert "nodes: 46" in result.stdout
    assert "paths: 4194304" in result.stdout
    capped = run_cli("paths", "--project", str(ladder), "--max-paths", "1000")
    assert capped.returncode == 1
    assert "PathExplosion" in capped.stderr


def test_simulate_one_run_prints_no_nan(project):
    result = run_cli("simulate", "--project", project, "--runs", "1")
    assert result.returncode == 0, result.stderr
    assert "nan" not in result.stderr
    assert result.stderr.count("sd: n/a") == 2


def test_simulate_stdout_percentiles(project):
    result = run_cli("simulate", "--project", project, "--runs", "500", "--seed", "1")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "percentile,duration,cost"
    assert len(lines) == 1 + 19  # p = 5..95 step 5


def test_control_with_zero_ev_fails_domain(project):
    result = run_cli("control", "--project", project, "--runs", "200",
                     "--observe", "t=4,ev=0,ac=100")
    assert result.returncode == 1
    assert "EvZero" in result.stderr


def test_missing_project_file_is_io_error():
    result = run_cli("validate", "--project", "no-such-file.project")
    assert result.returncode == 2
    assert "IoError" in result.stderr


def test_bad_flags_are_config_errors(project):
    assert run_cli("frobnicate").returncode == 3
    assert run_cli("simulate", "--project", project, "--runs", "0").returncode == 3
    assert run_cli("control", "--project", project, "--runs", "100",
                   "--observe", "t=4").returncode == 3


def test_syntax_error_is_domain_error(tmp_path):
    bad = tmp_path / "bad.project"
    bad.write_text("[activities]\nA0 point(0) fixed=0 rate=0\n")
    result = run_cli("validate", "--project", str(bad))
    assert result.returncode == 1
    assert "bad.project:2" in result.stderr


def test_full_pipeline_commands(project, tmp_path):
    out = tmp_path / "artifacts"
    commands = [
        ["cpm", "--project", project, "--out", str(out)],
        ["paths", "--project", project, "--out", str(out)],
        ["simulate", "--project", project, "--runs", "500", "--out", str(out)],
        ["indices", "--project", project, "--runs", "500", "--out", str(out)],
        ["baseline", "--project", project, "--runs", "500", "--out", str(out)],
        ["control", "--project", project, "--runs", "500",
         "--observe", "t=4,ev=430,ac=440", "--out", str(out)],
        ["forecast", "--project", project, "--runs", "500",
         "--observe", "t=4,ev=430,ac=440", "--out", str(out)],
    ]
    for command in commands:
        result = run_cli(*command)
        assert result.returncode == 0, (command, result.stderr)
    for name in ("cpm.csv", "planned_value.csv", "paths.csv", "percentiles.csv",
                 "endpoints.csv", "sensitivity.csv", "baseline.csv", "ari.csv",
                 "control.csv", "forecast.csv", "neighbors.csv"):
        assert (out / name).exists(), name


def test_contingency_prints_number(project):
    result = run_cli("contingency", "--project", project, "--runs", "500",
                     "--percentile", "90", "--dimension", "cost")
    assert result.returncode == 0
    float(result.stdout.strip())


def test_plot_kinds_render(project, tmp_path):
    out = tmp_path / "plots"
    for kind in ("pv", "pdfcdf", "scatter", "ci_bars", "srb_crb"):
        result = run_cli("plot", "--project", project, "--runs", "300",
                         "--kind", kind, "--out", str(out))
        assert result.returncode == 0, (kind, result.stderr)
        assert (out / f"{kind}.svg").exists()
    for kind in ("triad", "sevm"):
        result = run_cli("plot", "--project", project, "--runs", "300", "--kind", kind,
                         "--observe", "t=4,ev=430,ac=440", "--out", str(out))
        assert result.returncode == 0, (kind, result.stderr)
        assert (out / f"{kind}.svg").exists()
    # triad/sevm without an observation is a flag problem
    assert run_cli("plot", "--project", project, "--kind", "triad").returncode == 3


def test_plot_rerun_byte_identical(project, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        result = run_cli("plot", "--project", project, "--runs", "300", "--kind",
                         "scatter", "--seed", "5", "--out", str(out))
        assert result.returncode == 0
    assert (a / "scatter.svg").read_bytes() == (b / "scatter.svg").read_bytes()


def test_convert_matrix(tmp_path):
    csv_path = tmp_path / "matrix.csv"
    csv_path.write_text(
        "pre,A0,B1,Af\nA0,0,0,0\nB1,1,0,0\nAf,0,1,0\n")
    out = tmp_path / "converted.project"
    result = run_cli("convert-matrix", "--matrix", str(csv_path), "--out", str(out))
    assert result.returncode == 0
    check = run_cli("validate", "--project", str(out))
    assert check.returncode == 0
    assert "nodes: 3" in check.stdout
