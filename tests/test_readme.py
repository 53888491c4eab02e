"""The README's API quick start runs against the current package."""

import re
from pathlib import Path

from diffrec import corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def api_quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start (API)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_api_quick_start_runs(fix4, tmp_path, monkeypatch, capsys):
    corpus.write_ratings(fix4, tmp_path / "ratings.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(api_quick_start(), str(README), "exec"), {})
    printed = capsys.readouterr().out.strip()
    # u1 (user 0) has one unseen item, i2, whose dense id is 3
    assert printed == "[3]"
