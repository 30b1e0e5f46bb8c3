"""README's Python API example runs as written, so a renamed or removed
name fails here instead of leaving the docs stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(README.parent)  # the example reads projects/figure3.project
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out and "nan" not in out
