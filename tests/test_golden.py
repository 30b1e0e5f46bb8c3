"""Golden fixture: sha256 of every CSV the figure3 pipeline writes at seed 42.

Any change to a simulated or derived number shows up here as a changed
hash. A deliberate numeric change regenerates the fixture with

    PYTHONPATH=src python tests/test_golden.py

and names the change in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

from riskmc.cli import main

FIXTURE = Path(__file__).with_name("golden_figure3.json")
PROJECT = Path(__file__).resolve().parents[1] / "projects" / "figure3.project"
OBSERVE = "t=4,ev=430,ac=445"
COMMANDS = (
    ["simulate"],
    ["indices"],
    ["baseline"],
    ["control", "--observe", OBSERVE],
    ["forecast", "--observe", OBSERVE, "--neighbors", "800"],
)


def pipeline_hashes(out):
    for command in COMMANDS:
        argv = [command[0], "--project", str(PROJECT), "--seed", "42", "--runs", "20000",
                "--out", str(out), *command[1:]]
        assert main(argv) == 0, argv
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.glob("*.csv"))}


def test_figure3_outputs_match_golden_hashes(tmp_path):
    expected = json.loads(FIXTURE.read_text())
    assert pipeline_hashes(tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = pipeline_hashes(Path(tmp))
    FIXTURE.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {FIXTURE}", file=sys.stderr)
