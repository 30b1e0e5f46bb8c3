"""The traced benchmark runner wraps riskmc functions by name; each name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACERUN = Path(__file__).resolve().parents[1] / "perfbench" / "tracerun.py"


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
