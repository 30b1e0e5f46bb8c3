"""README's quick start and Python API example run as written, so a renamed
flag or a removed name fails here instead of leaving the docs stale."""

import re
import shlex
from pathlib import Path

from riskmc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(README.parent)  # the example reads projects/figure3.project
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out and "nan" not in out


def test_readme_quick_start_commands_run(monkeypatch, capsys, tmp_path):
    blocks = [b for b in re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.S | re.M)
              if "riskmc validate" in b]
    assert len(blocks) == 1
    monkeypatch.chdir(README.parent)
    commands = [shlex.split(line) for line in blocks[0].splitlines() if line.strip()]
    assert len(commands) >= 10 and all(c[0] == "riskmc" for c in commands)
    for argv in commands:
        argv = argv[1:]
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path / argv[argv.index("--out") + 1])
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        assert "nan" not in capsys.readouterr().out, argv
