"""Cold start: no riskmc command loads scipy, which is a test-only
dependency; parsing and validating load no numpy; and only the commands
that use them run the analysis modules, the SVG renderer and the thread
pool. Each case runs the commands in a fresh interpreter and lists the
modules it loaded, so an import anywhere on a command's path that the
command does not need fails here."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riskmc
from netgen import normal_pert_spec
from riskmc.projectfile import render_project

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# a riskmc module that the CLI registered to run on first use, and that no
# command used, is listed as not loaded
PROBE = """
import json, sys, types
import riskmc, riskmc.cli
codes = [riskmc.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m, v in sys.modules.items()
                                if not m.startswith("riskmc") or type(v) is types.ModuleType)]))
"""

# every law but normal and PERT, as durations and as risk impacts
NO_SPECIAL_LAWS = """[activities]
A0 "start" point(0) fixed=0 rate=0
A1 "one" uniform(1,3) fixed=10 rate=2
A2 "two" triangular(1,2,4) fixed=5 rate=1
A3 "three" discrete(1:0.25,2:0.75) fixed=0 rate=3
Af "finish" point(0) fixed=0 rate=0

[risks]
R1 "slip" p=0.5 kind=duration target=A1 impact=discrete(1:0.5,3:0.5)
R2 "spend" p=0.25 kind=cost target=A2 impact=triangular(0,5,10)

[precedence]
A1 <- A0
A2 <- A0
A3 <- A1 A2
Af <- A3
"""

# an observation inside both projects' plans (figure3: BAC 875, normal_pert: 68)
OBSERVE = {"figure3": "t=4,ev=430,ac=445", "normal_pert": "t=6,ev=30,ac=33"}


def loaded_modules(commands):
    """The modules loaded once `commands` have run, each by riskmc.cli.main
    and with exit code 0, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    codes, modules = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0] * len(commands), result.stderr
    return modules


def run_fresh(code, *args):
    """Run `code` in a fresh interpreter with riskmc importable; its stdout."""
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def bench_probe():
    """The benchmark's set-up probe, read from perfbench/run.py without running it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and node.targets[0].id == "PROBE")


def scipy_modules(commands):
    return [m for m in loaded_modules(commands) if m == "scipy" or m.startswith("scipy.")]


def test_commands_that_draw_nothing_on_one_thread_load_no_plot_or_pool(figure3_path,
                                                                       tmp_path):
    # one thread runs its chunks without a pool, and only plot draws
    sim = ["--project", str(figure3_path), "--runs", "400", "--out", str(tmp_path)]
    modules = loaded_modules([["validate", "--project", str(figure3_path)],
                              ["simulate", *sim], ["indices", *sim]])
    assert [m for m in modules if m == "riskmc.svgplot" or m == "concurrent.futures"
            or m.startswith("concurrent.futures.")] == []


def test_plot_loads_the_renderer_when_it_draws(figure3_path, tmp_path):
    modules = loaded_modules([["plot", "--project", str(figure3_path), "--kind", "pv",
                               "--out", str(tmp_path)]])
    assert "riskmc.svgplot" in modules
    # charts find their builder by type name, so the plan's chart runs no analysis module
    assert {"riskmc.control", "riskmc.indices", "riskmc.montecarlo"}.isdisjoint(modules)
    assert (tmp_path / "pv.svg").read_text().startswith("<svg")
    probe = ("import sys, riskmc\n"
             "assert 'riskmc.svgplot' not in sys.modules\n"
             "from riskmc import plot\n"
             "from riskmc.svgplot import plot as svg_plot\n"
             "assert plot is svg_plot and riskmc.plot is svg_plot\n")
    run_fresh(probe)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        riskmc.no_such_name  # noqa: B018


def test_validate_cpm_and_paths_load_no_scipy(figure3_path, tmp_path):
    project = str(figure3_path)
    assert scipy_modules([["validate", "--project", project],
                          ["cpm", "--project", project, "--out", str(tmp_path)],
                          ["paths", "--project", project, "--out", str(tmp_path)]]) == []


def test_simulate_without_normal_or_pert_loads_no_scipy(tmp_path):
    project = tmp_path / "laws.project"
    project.write_text(NO_SPECIAL_LAWS)
    assert scipy_modules([["simulate", "--project", str(project), "--runs", "500",
                           "--out", str(tmp_path)]]) == []


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", ["figure3", "normal_pert"])
def test_no_simulating_command_loads_scipy(figure3_path, tmp_path, name, workers):
    # both projects sample PERT laws, and normal_pert samples normal laws too,
    # as durations and as risk impacts
    if name == "figure3":
        project = str(figure3_path)
    else:
        project = str(tmp_path / "normal_pert.project")
        Path(project).write_text(render_project(normal_pert_spec()))
    sim = ["--project", project, "--runs", "400", "--workers", workers]
    observe = ["--observe", OBSERVE[name]]
    out = ["--out", str(tmp_path / "out")]
    commands = [
        ["simulate", *sim, *out],
        ["indices", *sim, "--cri-method", "spearman", *out],
        ["baseline", *sim, *out],
        ["contingency", *sim, "--percentile", "90"],
        ["control", *sim, *observe, *out],
        ["forecast", *sim, *observe, "--estimator", "linear", *out],
        ["plot", *sim, "--kind", "sevm", *observe, *out],
    ]
    assert scipy_modules(commands) == []


def test_simulate_contingency_and_forecast_load_no_numpy_ma(figure3_path, tmp_path):
    # their percentiles, and the Triad chart's medians, are riskmc's own;
    # np.percentile and np.median load numpy.ma
    sim = ["--project", str(figure3_path), "--runs", "400"]
    out = ["--out", str(tmp_path)]
    modules = loaded_modules([["simulate", *sim, *out],
                              ["contingency", *sim, "--percentile", "90"],
                              ["forecast", *sim, "--observe", OBSERVE["figure3"], *out],
                              ["forecast", *sim, "--observe", OBSERVE["figure3"],
                               "--estimator", "linear", *out],
                              ["plot", "--kind", "triad", *sim, "--observe", OBSERVE["figure3"],
                               *out]])
    assert [m for m in modules if m == "numpy.ma" or m.startswith("numpy.ma.")] == []


def test_parsing_and_validating_load_no_numpy(figure3_path, tmp_path):
    listing = "\nimport sys; print('numpy' in sys.modules)"
    assert run_fresh(bench_probe() + listing, str(figure3_path)).split()[-1] == "False"
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("pre,A0,B1,Af\nA0,0,0,0\nB1,1,0,0\nAf,0,1,0\n")
    modules = loaded_modules([["validate", "--project", str(figure3_path)],
                              ["convert-matrix", "--matrix", str(matrix),
                               "--out", str(tmp_path / "converted.project")]])
    assert [m for m in modules if m == "numpy" or m.startswith("numpy.")] == []
    assert {"riskmc.cpm", "riskmc.montecarlo", "riskmc.csvout"}.isdisjoint(modules)


def test_simulate_runs_no_analysis_module(figure3_path, tmp_path):
    modules = loaded_modules([["simulate", "--project", str(figure3_path), "--runs", "400",
                               "--out", str(tmp_path)]])
    assert "riskmc.montecarlo" in modules
    assert "riskmc.control" not in modules and "riskmc.indices" not in modules


def test_paths_runs_no_simulation_module(figure3_path, tmp_path):
    # the memory ceiling that bounds the path matrix lives in errors
    modules = loaded_modules([["paths", "--project", str(figure3_path), "--out", str(tmp_path)]])
    assert "riskmc.montecarlo" not in modules
    assert [m for m in modules if m == "hashlib" or m == "numpy.random"
            or m.startswith("numpy.random.")] == []


def test_every_public_name_is_its_defining_modules_object():
    for name in riskmc.__all__:
        obj = getattr(riskmc, name)
        assert obj.__module__.startswith("riskmc."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    namespace = {}
    exec("from riskmc import *", namespace)
    assert all(namespace[name] is getattr(riskmc, name) for name in riskmc.__all__)


def test_the_library_alone_registers_no_lazy_module():
    # only the CLI defers its modules; a library import runs each module it names
    probe = ("import sys, types, riskmc\n"
             "riskmc.run_ensemble\n"
             "print([m for m, v in sys.modules.items()\n"
             "       if m.startswith('riskmc') and type(v) is not types.ModuleType])\n"
             "print('riskmc.montecarlo' in sys.modules, 'riskmc.cli' in sys.modules)\n")
    assert run_fresh(probe).split("\n")[:2] == ["[]", "True False"]
