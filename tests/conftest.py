import os
from pathlib import Path

import pytest

from riskmc import parse_project, validate

REPO = Path(__file__).resolve().parents[1]
# child interpreters (`python -m riskmc`) import the riskmc under test
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
FIGURE3 = REPO / "projects" / "figure3.project"


@pytest.fixture(scope="session")
def figure3_path():
    return FIGURE3


@pytest.fixture(scope="session")
def figure3_spec():
    return parse_project(FIGURE3)


@pytest.fixture(scope="session")
def figure3_network(figure3_spec):
    return validate(figure3_spec)
