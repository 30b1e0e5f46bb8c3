"""Cold start: no riskmc command loads scipy, which is a test-only
dependency. Each case runs the commands in a fresh interpreter and lists
the scipy modules it loaded, so a scipy import anywhere on a command's
path fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from netgen import normal_pert_spec
from riskmc.projectfile import render_project

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import riskmc, riskmc.cli
codes = [riskmc.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules
                               if m == "scipy" or m.startswith("scipy."))]))
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


def scipy_modules(commands):
    """Exit codes of `commands` run by riskmc.cli.main in a fresh interpreter,
    and the scipy modules loaded by then."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    codes, modules = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0] * len(commands), result.stderr
    return modules


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
