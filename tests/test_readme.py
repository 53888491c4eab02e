"""The README's API quick start runs against the current package, and its
per-command flag table and config key table are the CLI's."""

import re
from pathlib import Path

from diffrec import corpus
from diffrec.cli import COMMANDS, SETTINGS, SWEEPS

README = Path(__file__).resolve().parent.parent / "README.md"


def api_quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start (API)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def table(header: str) -> list[tuple[str, str]]:
    """The (first, second) cells of the README table under `header`."""
    text = README.read_text(encoding="utf-8").split(header, 1)[1]
    return re.findall(r"^\| `([\w-]+)` \| ([^|]+) \|$", text.split("\n\n", 1)[0], re.M)


def test_api_quick_start_runs(fix4, tmp_path, monkeypatch, capsys):
    corpus.write_ratings(fix4, tmp_path / "ratings.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(api_quick_start(), str(README), "exec"), {})
    printed = capsys.readouterr().out.strip()
    # u1 (user 0) has one unseen item, i2, whose dense id is 3
    assert printed == "[3]"


def test_command_flag_table_matches_the_cli():
    def flags(name, keys, own):
        lists = SWEEPS[name][2] if name in SWEEPS else {}
        names = [SETTINGS[key][1] for key in keys] + list(own) + list(lists)
        return f"`{' '.join(names)}`" if names else "none"

    assert table("| command | flags |") == [
        (name, flags(name, keys, own)) for name, (_, keys, own) in COMMANDS.items()
    ]


def test_config_key_table_matches_the_cli():
    listed = [(key, None if flag == "none" else flag.strip("`"))
              for key, flag in table("| key | flag |")]
    assert listed == [(key, flag) for key, (_, flag) in SETTINGS.items()]
