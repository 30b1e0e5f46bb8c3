import csv
import math
import re
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import pytest

from netgen import ladder_spec
from riskmc import csvout, render_project
from riskmc.cli import main
from riskmc.errors import MAX_BINS, _memory_ceiling

RISKMC = [sys.executable, "-m", "riskmc"]


def run_cli(*args):
    return subprocess.run(RISKMC + list(args), capture_output=True, text=True)


@pytest.fixture()
def project(figure3_path):
    return str(figure3_path)


@pytest.fixture()
def bom_project(figure3_path, tmp_path):
    """figure3 behind a UTF-8 byte-order mark, as Windows editors save it."""
    path = tmp_path / "bom.project"
    path.write_bytes(b"\xef\xbb\xbf" + figure3_path.read_bytes())
    return str(path)


def test_validate_reports_shape(project, bom_project):
    result = run_cli("validate", "--project", project)
    assert result.returncode == 0
    assert "nodes: 8" in result.stdout
    assert "paths: 3" in result.stdout
    assert run_cli("validate", "--project", bom_project).stdout == result.stdout


def test_simulate_same_seed_byte_identical(project, bom_project, tmp_path):
    runs = [(project, tmp_path / "one"), (project, tmp_path / "two"),
            (bom_project, tmp_path / "bom")]
    stdouts = set()
    for path, out in runs:
        result = run_cli("simulate", "--project", path, "--runs", "2000",
                         "--seed", "42", "--out", str(out))
        assert result.returncode == 0, result.stderr
        stdouts.add(result.stdout)
    assert len(stdouts) == 1
    for name in ("percentiles.csv", "endpoints.csv"):
        assert len({(out / name).read_bytes() for _, out in runs}) == 1


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


def test_paths_beyond_the_memory_ceiling_are_refused(tmp_path, capsys):
    # 2**40 paths of 82 nodes: a membership matrix of 82 TiB, refused with
    # the most paths that fit before any of it is allocated
    ladder = tmp_path / "ladder.project"
    ladder.write_text(render_project(ladder_spec(40)))
    fit = _memory_ceiling() // 82
    tracemalloc.start()
    try:
        code = main(["paths", "--project", str(ladder), "--max-paths", str(10**13)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 2**20
    err = capsys.readouterr().err
    assert re.fullmatch(rf"PathExplosion: {2**40} paths of 82 nodes need .* GiB, above the "
                        rf".* GiB memory ceiling; at most {fit} paths fit\n", err), err


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


@pytest.fixture()
def no_simulation(monkeypatch):
    def trap(*args, **kwargs):
        raise AssertionError("a bad flag must be rejected before any run is simulated")

    monkeypatch.setattr("riskmc.montecarlo.run_ensemble", trap)


@pytest.mark.parametrize("command", [["plot", "--kind", "pv"], ["plot", "--kind", "srb_crb"],
                                     ["baseline"]])
def test_grid_below_two_is_only_a_config_error(project, command, tmp_path, capsys,
                                               no_simulation):
    assert main([*command, "--project", project, "--runs", "100", "--grid", "1",
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ConfigError:") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", [
    ["plot", "--kind", "pdfcdf", "--bins", "0"],
    ["contingency", "--percentile", "150"],
    ["contingency", "--percentile", "nan"],
    ["forecast", "--observe", "t=4,ev=430,ac=440", "--neighbors", "0"],
    ["plot", "--kind", "sevm", "--observe", "t=4,ev=430,ac=440", "--neighbors", "-3"],
    ["control", "--observe", "t=4,ev=430,ac=440", "--band", "60"],
    ["control", "--observe", "t=1,t=4,ev=430,ac=445"],
    ["forecast", "--observe", "t=4,ev=430,ac=440", "--estimator", "linear", "--neighbors", "3"],
    # above the ceilings, whose arrays could not be allocated
    ["baseline", "--grid", str(csvout.MAX_GRID_POINTS + 1)],
    ["plot", "--kind", "pv", "--grid", "1000000000000"],
    ["plot", "--kind", "pdfcdf", "--bins", str(MAX_BINS + 1)],
    ["plot", "--kind", "pdfcdf", "--bins", "1000000000000"],
])
def test_out_of_range_flags_are_only_config_errors(project, command, tmp_path, capsys,
                                                   no_simulation):
    assert main([*command, "--project", project, "--runs", "100",
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ConfigError:") and err.count("\n") == 1, err


@pytest.mark.parametrize("max_paths", ["0", "-1"])
def test_max_paths_below_one_is_only_a_config_error(project, max_paths, tmp_path, capsys):
    # paths takes no --runs, so it is not a case of the test above
    assert main(["paths", "--project", project, "--max-paths", max_paths,
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ConfigError:") and "--max-paths" in err, err
    assert not any(tmp_path.iterdir())


def test_linear_estimator_checks_the_default_neighbors_before_simulating(
        project, tmp_path, capsys, no_simulation):
    # without --neighbors, 3 runs give 3 neighbors: too few for the linear fit
    assert main(["forecast", "--project", project, "--observe", "t=4,ev=430,ac=440",
                 "--estimator", "linear", "--runs", "3", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ConfigError:") and "at least 4 neighbors" in err, err


@pytest.mark.parametrize("command", [["forecast"], ["plot", "--kind", "sevm"]])
def test_neighbors_above_runs_are_refused_before_simulating(project, command, tmp_path,
                                                           capsys, no_simulation):
    assert main([*command, "--project", project, "--observe", "t=4,ev=430,ac=440",
                 "--runs", "200", "--neighbors", "300", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "KTooLarge: k_neighbors 300 exceeds n_runs 200\n", err


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


def test_runs_beyond_memory_are_one_config_error(project, tmp_path, capsys):
    # refused before any array is allocated, so nothing is written either
    out = tmp_path / "out"
    assert main(["simulate", "--project", project, "--runs", "1000000000000",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ConfigError:") and err.count("\n") == 1, err
    assert "runs fit" in err and not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "--runs", "100", "--workers", "0"], id="0"),
    pytest.param(["simulate", "--runs", "100", "--workers", "-7"], id="-7"),
    # checked while parsing: before the project is read (an IoError, exit 2)
    # and before --neighbors is checked against --runs (KTooLarge, exit 1)
    pytest.param(["simulate", "--project", "missing.project", "--workers", "0"],
                 id="missing-project"),
    pytest.param(["forecast", "--observe", "t=4,ev=430,ac=440", "--runs", "10",
                  "--neighbors", "20", "--workers", "0"], id="neighbors-above-runs"),
])
def test_workers_below_one_is_a_config_error(project, argv, capsys, no_simulation):
    if "--project" not in argv:
        argv = [*argv, "--project", project]
    assert main(argv) == 3
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
# every run costs 1e16 + 2 exactly: np.histogram's +-0.5 widening of a
# constant range is below the float spacing there
CONSTANT_HUGE_COST = HUGE_COST.replace("uniform(0,4)", "point(2)")
# durations whose padded axis spans more than the largest double
HUGE_DURATION = HUGE_COST.replace("uniform(0,4) fixed=10000000000000000 rate=1",
                                  "uniform(1.6e308,1.75e308) fixed=10 rate=0")


@pytest.mark.parametrize("kind", ["pv", "srb_crb", "triad", "pdfcdf", "scatter"])
def test_plots_at_float_resolution_never_hang(tmp_path, kind):
    for text, observe in ((HUGE_COST, "t=1,ev=5e15,ac=5e15"),
                          (CONSTANT_HUGE_COST, "t=1,ev=5e15,ac=5e15"),
                          (HUGE_DURATION, "t=1e308,ev=5,ac=5")):
        project = tmp_path / "huge.project"
        project.write_text(text)
        # a hung tick loop fails here (TimeoutExpired) instead of stalling the suite
        result = subprocess.run(RISKMC + ["plot", "--kind", kind, "--project", str(project),
                                          "--runs", "200", "--observe", observe,
                                          "--out", str(tmp_path)],
                                capture_output=True, text=True, timeout=60)
        if kind == "srb_crb" and text == CONSTANT_HUGE_COST:
            # a project without variance has no risk baselines to draw
            assert result.returncode == 1, result.stderr
            assert result.stderr.startswith("DegenerateProject:"), result.stderr
            continue
        # the histograms fall back to fewer, wider bins than float spacing allows,
        # and to one bin [x, x] for a constant sample; the axes stay in the floats
        assert result.returncode == 0, result.stderr
        svg = (tmp_path / f"{kind}.svg").read_text()
        ET.fromstring(svg)
        assert re.search(r"\b(inf|nan)\b", svg) is None


# the only cost is the smallest subnormal double: each money axis spans less
# than a tick step can divide
TINY_COST = HUGE_COST.replace("uniform(0,4) fixed=10000000000000000 rate=1",
                              "uniform(1,2) fixed=5e-324 rate=0")


@pytest.mark.parametrize("kind", ["pv", "pdfcdf", "scatter", "ci_bars", "srb_crb", "triad",
                                  "sevm"])
def test_plots_at_the_bottom_of_the_float_range_draw(tmp_path, kind, capsys):
    project = tmp_path / "tiny.project"
    project.write_text(TINY_COST)
    assert main(["plot", "--kind", kind, "--project", str(project), "--runs", "200",
                 "--observe", "t=1,ev=5e-324,ac=5e-324", "--out", str(tmp_path)]) == 0
    svg = (tmp_path / f"{kind}.svg").read_text()
    ET.fromstring(svg)
    assert re.search(r"\b(inf|nan)\b", svg) is None


# a project whose finish, or one run's duration, passes the largest double
OVERFLOWING = {
    "cpm": """[activities]
A0 "start" point(0) fixed=0 rate=0
A1 "one" uniform(1e308,1.5e308) fixed=0 rate=0
A2 "two" uniform(1e308,1.5e308) fixed=0 rate=0
A3 "three" uniform(1e308,1.5e308) fixed=0 rate=0
Af "finish" point(0) fixed=0 rate=0

[precedence]
A1 <- A0
A2 <- A1
A3 <- A2
Af <- A3
""",
    "simulate": """[activities]
A0 "start" point(0) fixed=0 rate=0
A1 "huge" normal(1e308,1e308) fixed=0 rate=0
Af "finish" point(0) fixed=0 rate=0

[precedence]
A1 <- A0
Af <- A1
""",
}


@pytest.mark.parametrize("command", sorted(OVERFLOWING))
def test_schedule_past_the_float_range_is_one_domain_error(command, tmp_path, capsys):
    project = tmp_path / "overflow.project"
    project.write_text(OVERFLOWING[command])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--project", str(project)]) == 1
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.err.startswith("DegenerateProject:") and captured.err.count("\n") == 1
    assert captured.out == ""


def _one_activity(law, rate=0):
    return ('[activities]\nA0 "start" point(0) fixed=0 rate=0\n'
            f'A1 "huge" {law} fixed=0 rate={rate}\nAf "finish" point(0) fixed=0 rate=0\n\n'
            "[precedence]\nA1 <- A0\nAf <- A1\n")


def test_a_mean_whose_sum_overflows_plans_finite(tmp_path, capsys):
    # uniform(1e308, 1.5e308) sums its ends past the largest double, but its
    # mean and every draw are finite
    project = tmp_path / "huge.project"
    project.write_text(_one_activity("uniform(1e308,1.5e308)"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["cpm", "--project", str(project)]) == 0
    assert [str(w.message) for w in caught] == []
    assert "planned duration: 1.25e+308\n" in capsys.readouterr().err


def test_simulate_prints_finite_moments_when_their_sums_overflow(tmp_path, capsys):
    # every run is finite, but 100 runs near 1e308 sum past the largest double
    project = tmp_path / "huge.project"
    project.write_text(_one_activity("normal(1e308,1e300)"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--project", str(project), "--runs", "100"]) == 0
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "inf" not in err and "nan" not in err
    mean, sd = re.search(r"duration mean: (\S+)  sd: (\S+)", err).groups()
    assert float(mean) == pytest.approx(1e308, rel=1e-9)
    assert 0.5e300 < float(sd) < 2e300


def test_baseline_of_a_constant_schedule_writes_nothing(tmp_path, capsys):
    # one point(2) activity and one cost risk: the cost varies, the duration
    # never does, so the ARI ranking is refused before the SRB/CRB table is
    # written, to stdout or to --out
    project = tmp_path / "constant.project"
    project.write_text(_one_activity("point(2)", rate=1)
                       + '\n[risks]\nR1 "spend" p=0.5 kind=cost target=A1 impact=uniform(1,2)\n')
    for out in ([], ["--out", str(tmp_path / "out")]):
        assert main(["baseline", "--project", str(project), "--runs", "200", *out]) == 1
        captured = capsys.readouterr()
        assert captured.err == "DegenerateProject: no schedule variance to rank\n"
        assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_indices_and_baseline_are_finite_when_per_node_sums_overflow(tmp_path):
    # the runs of one activity near 1e308 sum past the largest double, node
    # by node as well as in total; the reductions take the runs scaled below 1
    project = tmp_path / "huge.project"
    project.write_text(_one_activity("normal(1e308,1e300)"))
    runs = ["--project", str(project), "--runs", "200"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in ("indices", "baseline"):
            assert main([command, *runs, "--out", str(tmp_path / command)]) == 0, command
    assert [str(w.message) for w in caught] == []
    with open(tmp_path / "indices" / "sensitivity.csv", newline="") as fh:
        rows = {row["id"]: row for row in csv.DictReader(fh)}
    assert [rows["A1"][k] for k in ("CI", "CrI", "SSI")] == ["1", "1", "1"]
    assert 0.5e300 < float(rows["A1"]["sigma_i"]) < 2e300
    with open(tmp_path / "baseline" / "ari.csv", newline="") as fh:
        ari = {row["id"]: float(row["ari_percent"]) for row in csv.DictReader(fh)}
    assert ari["A1"] == 100.0
    for name in ("indices/sensitivity.csv", "baseline/baseline.csv", "baseline/ari.csv"):
        text = (tmp_path / name).read_text()
        assert "nan" not in text and "inf" not in text, name


@pytest.mark.parametrize("estimator", ["mean", "linear"])
def test_forecast_is_finite_when_its_sums_overflow(tmp_path, capsys, estimator):
    # one activity near 1e308 that costs its duration: the spread of the
    # cross-section and the neighbors' mean sum past the largest double
    project = tmp_path / "huge.project"
    project.write_text(_one_activity("normal(1e308,1e300)", rate=1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["forecast", "--project", str(project), "--runs", "200",
                     "--observe", "t=5e307,ev=5e307,ac=5e307", "--estimator", estimator]) == 0
    assert [str(w.message) for w in caught] == []
    rows = dict(csv.reader(capsys.readouterr().out.splitlines()))
    eac = [float(rows[key]) for key in ("EAC_duration", "EAC_cost")]
    assert all(0.0 < v < math.inf for v in eac), eac
    # all 200 runs are the neighbors, and each ends at twice its time at the
    # observed half of the budget, so both estimators forecast about 1e308
    assert eac == [pytest.approx(1e308, rel=1e-9)] * 2


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


AWKWARD_NAMES = {
    "A1": "design, phase 1",
    "A2": 'the "big" procurement',
    "A3": 'build \\"fast\\"',  # a backslash before each quote
    "A4": 'test, "QA" \\ sign-off',
    "A5": 'R1 slips, "badly"',  # duration risks become activities
    "A6": 'R2 \\"supplier\\" delay',
    "R3": 'rework, "budget" hit',
}


def _quoted(name):
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


@pytest.fixture()
def awkward_project(figure3_path, tmp_path):
    lines = []
    for line in figure3_path.read_text().splitlines():
        ident = line.split(" ", 1)[0]
        if ident in AWKWARD_NAMES:
            line = re.sub(r'"[^"]*"', lambda _: _quoted(AWKWARD_NAMES[ident]), line, count=1)
        lines.append(line)
    path = tmp_path / "awkward.project"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("command, primary", [
    (["cpm"], "cpm.csv"),
    (["paths"], "paths.csv"),
    (["simulate", "--runs", "300"], "percentiles.csv"),
    (["indices", "--runs", "300"], "sensitivity.csv"),
    (["baseline", "--runs", "300"], "baseline.csv"),
    (["control", "--runs", "300", "--observe", "t=4,ev=430,ac=440"], "control.csv"),
    (["forecast", "--runs", "300", "--observe", "t=4,ev=430,ac=440"], "forecast.csv"),
])
def test_awkward_names_round_trip_and_stdout_is_the_primary_file(
        awkward_project, command, primary, tmp_path):
    argv = [*RISKMC, command[0], "--project", awkward_project, *command[1:]]
    printed = subprocess.run(argv, capture_output=True)
    out = tmp_path / "out"
    written = subprocess.run([*argv, "--out", str(out)], capture_output=True)
    assert printed.returncode == written.returncode == 0, written.stderr
    assert printed.stdout == (out / primary).read_bytes()

    ids = ["A0", "A1", "A2", "A3", "A4", "A5", "A6", "Af"]
    for name in {"cpm.csv", "sensitivity.csv", "ari.csv"} & {p.name for p in out.iterdir()}:
        with open(out / name, newline="", encoding="utf-8") as fh:
            table = list(csv.DictReader(fh))
        assert sorted(row["id"] for row in table) == ids, name
        if name != "cpm.csv":  # the CPM table carries ids only
            names = {row["id"]: row["name"] for row in table}
            assert all(names[i] == AWKWARD_NAMES[i] for i in ids[1:-1]), name


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
    # a CSV saved with a byte-order mark converts to the same bytes
    bom_csv, bom_out = tmp_path / "bom.csv", tmp_path / "bom.project"
    bom_csv.write_bytes(b"\xef\xbb\xbf" + csv_path.read_bytes())
    result = run_cli("convert-matrix", "--matrix", str(bom_csv), "--out", str(bom_out))
    assert result.returncode == 0, result.stderr
    assert bom_out.read_bytes() == out.read_bytes()


SELF_PREDECESSOR = """[activities]
A0 "start" point(0) fixed=0 rate=0
A1 "work" point(1) fixed=0 rate=0
Af "finish" point(0) fixed=0 rate=0
"""


@pytest.mark.parametrize("command, data, error, needle", [
    ("validate", SELF_PREDECESSOR + "[precedence]\nA1 <- A0 A1\nAf <- A1\n",
     "BadPrecedence", "'A1'"),
    ("validate", SELF_PREDECESSOR + "[precedence-matrix]\ncols A0 A1 Af\n"
                                    "A0: 0 0 0\nA1: 1 1 0\nAf: 0 1 0\n",
     "BadPrecedence", "'A1'"),
    ("validate", SELF_PREDECESSOR.replace("work", "caf\xe9").encode("latin-1"),
     "ProjectSyntaxError", "input:3:"),
    ("validate", SELF_PREDECESSOR.replace('A1 "work"', '!1 "work"'),
     "BadDefinition", "input:3:"),
    ("validate", SELF_PREDECESSOR + '[risks]\nR1 "r" p=0.5 kind=schedule target=A1 '
                                    "impact=point(1)\n",
     "BadDefinition", "input:6:"),
    ("validate", SELF_PREDECESSOR.replace("point(1)", "uniform(1)"),
     "BadDistributionParams", "input:3:"),
    ("convert-matrix", "pre,A0,,Af\nA0,0,0,0\nB1,1,1,0\nAf,0,0,1\n",
     "ProjectSyntaxError", "input:3:"),
    ("convert-matrix", "pre,A0,B1,Zed\nA0,0,0,0\nB1,1,0,1\nAf,0,1,0\n",
     "UnknownPredecessor", "'Zed'"),
    ("convert-matrix", "pre,A0,Af\nA0,0,0\nAf \xe9t\xe9,1,0\n".encode("latin-1"),
     "ProjectSyntaxError", "input:3:"),
    ("convert-matrix", "pre,A0,B1,Af\nA0,0,0,0\nB1,1,1,0\nAf,0,1,0\n",
     "BadPrecedence", "input:3:"),
    ("convert-matrix", 'pre,A0,A1,Af\nA0,0,0,0\n"R1\nA1",1,0,0\nAf,0,1,0\n',
     "BadDefinition", "input:3:"),
])
def test_malformed_input_file_is_a_one_line_domain_error(command, data, error, needle,
                                                          tmp_path, capsys):
    path = tmp_path / "input"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    flag = "--project" if command == "validate" else "--matrix"
    assert main([command, flag, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{error}:") and captured.err.count("\n") == 1
    assert needle in captured.err, captured.err
    assert captured.out == ""


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
