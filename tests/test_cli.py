import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import pytest

from netgen import ladder_spec
from riskmc import render_project
from riskmc.cli import main

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


@pytest.mark.parametrize("command", ["control", "forecast"])
@pytest.mark.parametrize("observe", ["t=10,ev=nan,ac=5", "t=nan,ev=100,ac=5",
                                     "t=inf,ev=100,ac=5", "t=10,ev=100,ac=-inf"])
def test_non_finite_observation_is_config_error(project, command, observe, capsys):
    assert main([command, "--project", project, "--runs", "100",
                 "--observe", observe]) == 3
    captured = capsys.readouterr()
    assert "ConfigError" in captured.err and "finite" in captured.err
    assert "nan" not in captured.out and "inf" not in captured.out


@pytest.mark.parametrize("command", [["plot", "--kind", "pv"], ["plot", "--kind", "srb_crb"],
                                     ["baseline"]])
def test_grid_below_two_is_only_a_config_error(project, command, tmp_path, capsys,
                                               monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("--grid must be rejected before any run is simulated")

    monkeypatch.setattr("riskmc.montecarlo.run_ensemble", no_simulation)
    assert main([*command, "--project", project, "--runs", "100", "--grid", "1",
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ConfigError:") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", [
    ["simulate"], ["indices"], ["contingency", "--percentile", "90"],
    ["control", "--observe", "t=4,ev=430,ac=440"],
    ["forecast", "--observe", "t=4,ev=430,ac=440"],
])
def test_grid_is_taken_only_by_commands_that_write_a_grid(project, command, capsys):
    # baseline and plot write a grid; on any other command --grid is unknown
    assert main([*command, "--project", project, "--runs", "100", "--grid", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ConfigError:") and "--grid" in err, err


@pytest.mark.parametrize("workers", ["0", "-7"])
def test_workers_below_one_is_a_config_error(project, workers, capsys):
    assert main(["simulate", "--project", project, "--runs", "100",
                 "--workers", workers]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ConfigError:") and err.count("\n") == 1, err


# costs near 1e16 spread over ~4 units: the float spacing there (2.0) is
# coarser than the tick step and than the histogram bins
HUGE_COST = """[activities]
A0 "start" point(0) fixed=0 rate=0
A1 "big" uniform(0,4) fixed=10000000000000000 rate=1
Af "finish" point(0) fixed=0 rate=0

[precedence]
A1 <- A0
Af <- A1
"""


@pytest.mark.parametrize("kind", ["triad", "pdfcdf", "scatter"])
def test_plots_at_float_resolution_never_hang(tmp_path, kind):
    project = tmp_path / "huge.project"
    project.write_text(HUGE_COST)
    # a hung tick loop fails here (TimeoutExpired) instead of stalling the suite
    result = subprocess.run(RISKMC + ["plot", "--kind", kind, "--project", str(project),
                                      "--runs", "200", "--observe", "t=1,ev=5e15,ac=5e15",
                                      "--out", str(tmp_path)],
                            capture_output=True, text=True, timeout=60)
    # the histograms fall back to fewer, wider bins than float spacing allows
    assert result.returncode == 0, result.stderr
    ET.parse(tmp_path / f"{kind}.svg")


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


@pytest.mark.parametrize("band, code", [("nan", 3), ("-5", 3), ("50.5", 3), ("inf", 3),
                                        ("0", 0), ("50", 0)])
def test_control_band_must_lie_in_zero_to_fifty(project, band, code, capsys):
    assert main(["control", "--project", project, "--runs", "100",
                 "--observe", "t=4,ev=100,ac=100", f"--band={band}"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith("ConfigError:") and "band" in captured.err
        assert captured.out == ""
    else:
        assert "schedule_status" in captured.out


@pytest.mark.parametrize("command", [["indices"], ["plot", "--kind", "ci_bars"]])
def test_sensitivity_at_one_run_is_only_a_config_error(project, command, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*command, "--project", project, "--runs", "1",
                     "--out", str(tmp_path)]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("ConfigError:") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", [
    ["simulate"], ["indices"], ["baseline"],
    ["contingency", "--percentile", "90"],
    ["control", "--observe", "t=4,ev=430,ac=440"],
    ["forecast", "--observe", "t=4,ev=430,ac=440"],
])
def test_two_runs_complete_without_nan(project, command, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*command, "--project", project, "--runs", "2", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    texts = [captured.out, captured.err]
    texts += [path.read_text() for path in sorted(out.glob("*"))] if out.exists() else []
    assert not any("nan" in text.lower() for text in texts)
