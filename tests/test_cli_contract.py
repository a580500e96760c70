"""The command line's contract on generated input.

Whatever series bytes ``measure`` reads and whatever values a pikl-demo
config holds, ``main`` returns 0, 1 or 2 and raises nothing.  Exit 1
leaves exactly one ``error:`` line on stderr, and no ``*.tmp`` file is
left in the output directory.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from citom.cli import PIKL_DEMO_DEFAULTS, main

# Series bytes from digits, separators, line ends, blanks, comment marks,
# a sign, an underscore, a non-ASCII digit and a byte that is not UTF-8.
SERIES_PIECES = [b"0", b"1", b"7", b",", b"\n", b"\r", b" ", b"\t", b"#", b"-", b"_",
                 "٣".encode(), b"\xff"]
HEADERS = [b"", b"a\n", b"a,b\n", b"# alphabet_size: 2,2\na,b\n"]
TAUS = ["1", "1,2", "3", "0", "x"]


def run_main(argv: list[str], out: Path) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr, checking the output directory."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2), (code, err)
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert not list(out.glob("*.tmp"))
    return code, err


@settings(max_examples=150, deadline=None)
@given(
    header=st.sampled_from(HEADERS),
    body=st.lists(st.sampled_from(SERIES_PIECES), max_size=40).map(b"".join),
    taus=st.sampled_from(TAUS),
)
def test_measure_on_generated_series(header: bytes, body: bytes, taus: str) -> None:
    with tempfile.TemporaryDirectory() as directory:
        path, out = Path(directory) / "series.csv", Path(directory) / "out"
        path.write_bytes(header + body)
        out.mkdir()
        run_main(["measure", "--input", str(path), "--taus", taus, "--out", str(out)], out)


NUMBERS = st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0, -1.0, float("nan"), float("inf")])
JSON_LEAVES = st.none() | st.booleans() | st.integers() | NUMBERS | st.text(max_size=2)
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=9)


@st.composite
def nudged(draw, value):
    """``value`` with its numbers redrawn and its lists cut or grown by one."""
    if isinstance(value, list):
        items = [draw(nudged(item)) for item in value]
        change = draw(st.sampled_from(["keep", "keep", "drop", "repeat"]))
        if items and change == "drop":
            items.pop()
        elif items and change == "repeat":
            items.append(items[-1])
        return items
    if isinstance(value, float):
        return draw(st.just(value) | NUMBERS)
    if isinstance(value, int):
        return draw(st.integers(-1, 2))
    return value


def mutations(key: str):
    return st.tuples(st.just(key), JSON_VALUES | nudged(PIKL_DEMO_DEFAULTS[key]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(sorted(PIKL_DEMO_DEFAULTS)).flatmap(mutations), max_size=3))
def test_pikl_demo_on_mutated_configs(overrides: list) -> None:
    config = copy.deepcopy(PIKL_DEMO_DEFAULTS) | dict(overrides)
    with tempfile.TemporaryDirectory() as directory:
        path, out = Path(directory) / "config.json", Path(directory) / "out"
        path.write_text(json.dumps(config), encoding="utf-8")
        out.mkdir()
        code, err = run_main(["pikl-demo", "--config", str(path), "--out", str(out)], out)
        if code == 1:  # every key is known, so the value at fault is named
            assert err.startswith("error: config key"), err
