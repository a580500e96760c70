"""Row-by-row reference implementations of the CSV writers and parser.

These are the straightforward per-row renderings and the line-by-line
parser that ``citom.io`` replaced with block-wise columnar code.  The
property tests in ``test_io_oracles.py`` require the production code to
produce the same bytes, the same parsed series and the same error
messages as these.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from citom.info_measures import JointSeries, SymbolSeries
from citom.io import ALPHABET_KEY, ParseError, SeriesFile, format_float


def columns_csv_text(header, columns) -> str:
    """Per-row rendering: floats through ``format_float``, integers via ``str(int)``."""
    lines = [",".join(header)]
    for t in range(len(columns[0]) if columns else 0):
        lines.append(
            ",".join(
                format_float(float(column[t]))
                if column.dtype.kind == "f"
                else str(int(column[t]))
                for column in columns
            )
        )
    return "\n".join(lines) + "\n"


def series_csv_text(series_file: SeriesFile) -> str:
    series = series_file.series
    sizes = ",".join(str(c.alphabet_size) for c in series.components)
    lines = [f"# {ALPHABET_KEY}: {sizes}", ",".join(series_file.names)]
    stacked = np.stack([c.symbols for c in series.components], axis=1)
    for row in stacked:
        lines.append(",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def triadic_episode_csv_text(log) -> str:
    lines = ["step,signal,x1,coupling,x2,x3,u1,u2,u3,value"]
    for t in range(len(log)):
        fields = [
            str(t),
            str(int(log.signal[t])),
            format_float(float(log.x1[t])),
            format_float(float(log.coupling[t])),
            str(int(log.x2[t])),
            str(int(log.x3[t])),
            format_float(float(log.u1[t])),
            format_float(float(log.u2[t])),
            format_float(float(log.u3[t])),
            str(int(log.value[t])),
        ]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def matching_pennies_episode_csv_text(log) -> str:
    lines = ["trial,monkey,computer,monkey_reward,computer_reward"]
    for t in range(len(log)):
        fields = [
            str(t),
            str(int(log.monkey[t])),
            str(int(log.computer[t])),
            str(int(log.monkey_reward[t])),
            str(int(log.computer_reward[t])),
        ]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def _parse_alphabet_comment(line: str, line_no: int) -> tuple[int, ...] | None:
    body = line.lstrip("#").strip()
    if ":" not in body:
        return None
    key, _, value = body.partition(":")
    if key.strip() != ALPHABET_KEY:
        return None
    # Each size is spelled as a symbol is, with up to 19 digits (10**18).
    parts = [part.strip(" \t") for part in value.split(",")]
    if not all(part.isascii() and part.isdigit() and len(part) <= 19 for part in parts):
        raise ParseError(
            f"line {line_no}: malformed {ALPHABET_KEY} declaration: {value.strip()!r}"
        )
    sizes = tuple(int(part) for part in parts)
    if any(size < 1 for size in sizes):
        raise ParseError(f"line {line_no}: alphabet sizes must be >= 1")
    return sizes


def parse_series_csv(path: Path | str) -> SeriesFile:
    """Line by line: each data row holds the header's width of tokens of 1 to
    18 ASCII digits, with spaces or tabs around them."""
    path = Path(path)
    alphabet: tuple[int, ...] | None = None
    names: tuple[str, ...] | None = None
    columns: list[list[int]] = []
    with path.open("r", encoding="utf-8-sig") as handle:
        for line_no, raw in enumerate(handle, start=1):
            # A data row's blanks are spaces and tabs; the header's are any whitespace.
            line = raw.strip() if names is None else raw.rstrip("\n").strip(" \t")
            if not line:
                continue
            if line.startswith("#"):
                declared = _parse_alphabet_comment(line, line_no)
                if declared is not None:
                    if names is not None:
                        raise ParseError(
                            f"line {line_no}: {ALPHABET_KEY} must precede the header"
                        )
                    alphabet = declared
                continue
            if names is None:
                parts = [part.strip() for part in line.split(",")]
                if any(not part for part in parts):
                    raise ParseError(f"line {line_no}: empty column name in header")
                if len(set(parts)) != len(parts):
                    raise ParseError(f"line {line_no}: duplicate column names")
                names = tuple(parts)
                columns = [[] for _ in names]
                continue
            parts = [part.strip(" \t") for part in line.split(",")]
            if len(parts) != len(names):
                raise ParseError(
                    f"line {line_no}: expected {len(names)} fields, got {len(parts)}"
                )
            for column, part in zip(columns, parts):
                if not (part.isascii() and part.isdigit()):
                    raise ParseError(f"line {line_no}: not an integer symbol: {part!r}")
                if len(part) > 18:
                    raise ParseError(
                        f"line {line_no}: symbol longer than 18 digits: {part!r}"
                    )
                column.append(int(part))
    if names is None:
        raise ParseError("line 1: missing header row")
    if not columns[0]:
        raise ParseError(f"no data rows under header for {path}")
    if alphabet is not None and len(alphabet) != len(names):
        raise ParseError(
            f"{ALPHABET_KEY} declares {len(alphabet)} columns, header has {len(names)}"
        )
    components = []
    for position, column in enumerate(columns):
        values = np.asarray(column, dtype=np.int64)
        size = alphabet[position] if alphabet else int(values.max()) + 1
        if values.max() >= size:
            raise ParseError(
                f"column {names[position]!r} has symbol {int(values.max())} outside "
                f"alphabet of size {size}"
            )
        components.append(SymbolSeries(values, size))
    return SeriesFile(names, JointSeries(tuple(components)))
