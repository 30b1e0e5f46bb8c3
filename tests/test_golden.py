"""Golden fixture: sha256 of every file the figure3 pipeline writes at seed 42.

Any change to a simulated or derived number, or to a chart's bytes, shows
up here as a changed hash. The pipeline commands write their CSVs into one
directory and are keyed by file name; the export commands below repeat
file names (grids of several sizes, plots), so each writes into its own
subdirectory and is keyed as `subdir/name`. A deliberate change
regenerates the fixture with

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
SIM = ["--seed", "42", "--runs", "20000"]
COMMANDS = (
    ["simulate"],
    ["indices"],
    ["baseline"],
    ["control", "--observe", OBSERVE],
    ["forecast", "--observe", OBSERVE, "--neighbors", "800"],
)
EXPORTS = {
    "cpm": ["cpm"],
    "paths": ["paths"],
    "baseline-grid37": ["baseline", *SIM, "--grid", "37"],
    "indices-spearman": ["indices", *SIM, "--cri-method", "spearman"],
    "forecast-linear": ["forecast", *SIM, "--observe", OBSERVE, "--estimator", "linear",
                        "--neighbors", "800"],
    "plot-pv": ["plot", "--kind", "pv"],
    "plot-pv-grid17": ["plot", "--kind", "pv", "--grid", "17"],
    "plot-srb_crb": ["plot", "--kind", "srb_crb", *SIM],
    "plot-srb_crb-grid17": ["plot", "--kind", "srb_crb", *SIM, "--grid", "17"],
    "plot-pdfcdf": ["plot", "--kind", "pdfcdf", *SIM],
    "plot-scatter": ["plot", "--kind", "scatter", *SIM],
    "plot-ci_bars": ["plot", "--kind", "ci_bars", *SIM],
    "plot-triad": ["plot", "--kind", "triad", *SIM, "--observe", OBSERVE],
    "plot-sevm": ["plot", "--kind", "sevm", *SIM, "--observe", OBSERVE, "--neighbors", "800"],
}


def _run(command, out):
    argv = [command[0], "--project", str(PROJECT), "--out", str(out), *command[1:]]
    assert main(argv) == 0, argv


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pipeline_hashes(out):
    for command in COMMANDS:
        _run([command[0], *SIM, *command[1:]], out)
    hashes = {path.name: _sha(path) for path in sorted(out.glob("*.csv"))}
    for subdir, command in EXPORTS.items():
        _run(command, out / subdir)
        hashes.update((f"{subdir}/{path.name}", _sha(path))
                      for path in sorted((out / subdir).iterdir()))
    return hashes


def test_figure3_outputs_match_golden_hashes(tmp_path):
    expected = json.loads(FIXTURE.read_text())
    assert pipeline_hashes(tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = pipeline_hashes(Path(tmp))
    FIXTURE.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {FIXTURE}", file=sys.stderr)
