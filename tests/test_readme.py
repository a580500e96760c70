"""The README's examples run as documented.

The "Library quick start" block is executed as written, and every
``citom`` line of the "Command line" block runs through
``citom.cli.main`` in a temporary directory, so that its ``runs/``
outputs land there.  Together they pin the ``citom`` names and the
command-line flags that the documented workflows use.  The series-file
example under "Command line" parses to the columns it shows.
"""

from __future__ import annotations

import shlex
from pathlib import Path

from citom.cli import main
from citom.io import parse_series_csv

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(section: str, language: str) -> str:
    """The first ``language`` fenced block under the ``## section`` heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return body.split(f"```{language}\n", 1)[1].split("\n```", 1)[0]


def test_library_quick_start(capsys) -> None:
    exec(code_block("Library quick start", "python"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_command_line_examples(tmp_path: Path, monkeypatch, capsys) -> None:
    commands = [
        shlex.split(line)
        for line in code_block("Command line", "sh").splitlines()
        if line.startswith("citom ")
    ]
    assert {argv[1] for argv in commands} == {
        "simulate-triadic", "simulate-mp", "measure", "pikl-demo"
    }
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)
    capsys.readouterr()
    assert (tmp_path / "runs" / "measured" / "measures.json").is_file()


def test_series_file_example(tmp_path: Path) -> None:
    path = tmp_path / "series.csv"
    path.write_text(code_block("Command line", "csv") + "\n", encoding="utf-8")
    parsed = parse_series_csv(path)
    assert parsed.names == ("x1", "x2", "x3")
    components = parsed.series.components
    assert [c.symbols.tolist() for c in components] == [[0, 1], [1, 0], [2, 2]]
    assert [c.alphabet_size for c in components] == [2, 2, 3]
