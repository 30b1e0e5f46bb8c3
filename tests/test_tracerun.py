"""The traced benchmark runner wraps riskmc functions by name; each name must
resolve, and each module must be registered once ``riskmc.cli`` is imported."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACERUN = ROOT / "perfbench" / "tracerun.py"


def _traced():
    spec = importlib.util.spec_from_file_location("tracerun", TRACERUN)
    tracerun = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracerun)  # defines TRACED; patches nothing until main()
    return [(module, attr) for module, attr, *_ in tracerun.TRACED]


@pytest.mark.parametrize("module_name, attr", _traced())
def test_traced_function_resolves(module_name, attr):
    owner = importlib.import_module(f"riskmc.{module_name}")
    for part in attr.split("."):  # a module attribute or Class.method
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("command, spans", [
    (["validate"], {"network.validate"}),
    (["simulate", "--runs", "400"], {"montecarlo.run_ensemble", "distributions.inv_cdf"}),
])
def test_traced_command_records_its_layers(figure3_path, tmp_path, command, spans):
    # a fresh interpreter, as the benchmark runs it: install() finds every
    # traced module in sys.modules right after importing riskmc.cli
    spans_path = tmp_path / "spans.json"
    argv = [*command, "--project", str(figure3_path), "--out", str(tmp_path / "out")]
    result = subprocess.run([sys.executable, str(TRACERUN), str(spans_path), command[0],
                             "--", *argv], capture_output=True, text=True, timeout=120,
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert result.returncode == 0, result.stderr
    recorded = {span[2] for span in json.loads(spans_path.read_text())["spans"]}
    assert spans <= recorded
