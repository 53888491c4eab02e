"""The README's API quick start runs against the current package, and its
config key table is the CLI's."""

import re
from pathlib import Path

from diffrec import corpus
from diffrec.cli import SETTINGS

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


def test_config_key_table_matches_the_cli():
    text = README.read_text(encoding="utf-8").split("| key | flag |", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| (`[^`]+`|none) \|$", text.split("\n\n", 1)[0], re.M)
    listed = [(key, None if flag == "none" else flag.strip("`")) for key, flag in rows]
    assert listed == [(key, flag) for key, (_, flag) in SETTINGS.items()]
