"""On-disk formats: symbol-series CSV, episode CSV, report CSV/JSON.

Series files are plain CSV with one column per agent and one row per
step, after an optional alphabet declaration::

    # alphabet_size: 2,2,2
    x1,x2,x3
    0,1,1

A data row is the header's width of tokens joined by ``,``, each 1 to 18
ASCII digits with optional spaces or tabs around it; blank and ``#``
comment lines are skipped.  Without the declaration, each column's
alphabet is one more than its largest symbol.  A leading UTF-8 byte-order
mark is skipped.  A bad line is named by its 1-based number; errors found
once the whole body is read (no rows, a declaration of the wrong width, a
symbol outside its alphabet) name no line.  An episode CSV has the log's
step index, then one column per field of the log after its ``config``.

Parsing reads the file once, with ``\r\n`` and ``\r`` ending lines as in
text mode.  Each block of lines below the header goes to one digit reader:
strided arithmetic if its tokens have one width (as citom writes them),
array arithmetic otherwise.  A block holding anything else (a blank, a
comment) is first checked line by line, its blanks then dropped.  Columns
are kept read-only in the narrowest unsigned type that holds their
symbols, so a binary column takes one byte per step.

All writers go through an atomic write-then-rename so a crashed run
never leaves a truncated artifact, and streams to disk the chunks the CSV
writers yield, one per block of rows, so no file's whole text is held.
Floats get six decimals so identical runs give identical bytes.  Rows are
rendered and parsed ``BLOCK_ROWS`` at a time.  A block is one NUL-padded
byte matrix, NULs then dropped: a leading step index by digit place, the
rest of each row gathered from the text of the block's distinct rows.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .info_measures import JointSeries, MeasureReport, SymbolSeries

__all__ = [
    "ParseError",
    "SeriesFile",
    "parse_series_csv",
    "atomic_write_text",
    "format_float",
    "columns_csv_text",
    "series_csv_text",
    "triadic_episode_csv_text",
    "matching_pennies_episode_csv_text",
    "measure_rows",
    "measures_csv_text",
    "measures_json_payload",
    "dump_json_text",
]

ALPHABET_KEY = "alphabet_size"

# Rows rendered or parsed per step, and per chunk a CSV writer yields:
# bounds the cells, tokens and text held at once, however long the series.
BLOCK_ROWS = 4096
_WINDOW = 16 * BLOCK_ROWS  # bytes of a series file scanned at a time


class ParseError(ValueError):
    """A malformed input file; the message names the offending line."""


@dataclass(frozen=True)
class SeriesFile:
    """A named joint symbol series as stored on disk."""

    names: tuple[str, ...]
    series: JointSeries

    def __post_init__(self) -> None:
        if len(self.names) != self.series.n_agents:
            raise ValueError(
                f"{len(self.names)} column names for {self.series.n_agents} series"
            )


def format_float(value: float) -> str:
    """Fixed six-decimal rendering; negative zero normalises to zero."""
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def atomic_write_text(path: Path, content: str | bytes | Iterable[bytes]) -> None:
    """Write ``content`` (``str`` as UTF-8, ``bytes`` or ``bytearray`` as is, or
    byte chunks as they come) to a temporary sibling renamed into place; any
    failure, the chunk source's too, removes the sibling and keeps ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(content, (str, bytes, bytearray)):
        content = [content.encode("utf-8") if isinstance(content, str) else content]
    try:
        with open(tmp, "wb") as handle:
            handle.writelines(content)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _joined_tokens(digits: int) -> re.Pattern[bytes]:
    """Tokens of 1 to ``digits`` ASCII digits, spaces or tabs around each, joined by ``,``."""
    token = rb"[ \t]*[0-9]{1,%d}[ \t]*" % digits
    return re.compile(token + rb"(?:," + token + rb")*")


_ROW = _joined_tokens(18)  # a data row holds the header's width of these
_SIZES = _joined_tokens(19)  # the sizes declared: 10**18 holds every 18-digit symbol


def _parse_alphabet_comment(line: str, line_no: int) -> tuple[int, ...] | None:
    """Declared sizes, spelled as symbols are but up to 19 digits; else ``None``."""
    body = line.lstrip("#").strip()
    if ":" not in body:
        return None
    key, _, value = body.partition(":")
    if key.strip() != ALPHABET_KEY:
        return None
    if not _SIZES.fullmatch(value.encode("utf-8")):
        raise ParseError(
            f"line {line_no}: malformed {ALPHABET_KEY} declaration: {value.strip()!r}"
        )
    sizes = tuple(map(int, value.split(",")))
    if any(size < 1 for size in sizes):
        raise ParseError(f"line {line_no}: alphabet sizes must be >= 1")
    return sizes


def _read_header(data: bytearray, start: int):
    """Read ``data``'s lines from ``start`` through the header; return the declared
    alphabet, if any, the column names, the header's line number and its end."""
    alphabet: tuple[int, ...] | None = None
    for line_no, raw in enumerate(re.compile(rb".*\n?").finditer(data, start), start=1):
        line = _decoded(raw[0], line_no).strip()
        if line.startswith("#"):
            alphabet = _parse_alphabet_comment(line, line_no) or alphabet
        elif line:
            parts = [part.strip() for part in line.split(",")]
            if any(not part for part in parts):
                raise ParseError(f"line {line_no}: empty column name in header")
            if len(set(parts)) != len(parts):
                raise ParseError(f"line {line_no}: duplicate column names")
            return alphabet, tuple(parts), line_no, raw.end()
    raise ParseError("line 1: missing header row")


def _decoded(raw: bytes, line_no: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"line {line_no}: not valid UTF-8") from None


def _bad_row(line: bytes, line_no: int, width: int) -> str:
    """The message for a data row off the grammar: its field count, else its
    first token that is not 1 to 18 ASCII digits."""
    tokens = [part.strip(" \t") for part in _decoded(line, line_no).split(",")]
    if len(tokens) != width:
        return f"line {line_no}: expected {width} fields, got {len(tokens)}"
    token = next(t for t in tokens if not (t.isascii() and t.isdigit() and len(t) <= 18))
    if token.isascii() and token.isdigit():
        return f"line {line_no}: symbol longer than 18 digits: {token!r}"
    return f"line {line_no}: not an integer symbol: {token!r}"


def _convert_lines(lines: list[bytes], line_no: int, width: int) -> np.ndarray:
    """The data rows of ``lines``, the first being line ``line_no``, as
    :func:`_digit_rows` converts them once their blanks are dropped; blank and
    comment lines are skipped, and the first line off the grammar is named."""
    rows = []
    for line_no, line in enumerate(lines, start=line_no):
        line = line.strip(b" \t")
        if line.startswith(b"#"):
            if _parse_alphabet_comment(_decoded(line, line_no), line_no) is not None:
                raise ParseError(f"line {line_no}: {ALPHABET_KEY} must precede the header")
        elif line:
            if not _ROW.fullmatch(line) or line.count(b",") != width - 1:
                raise ParseError(_bad_row(line, line_no, width))
            rows.append(line)
    if not rows:
        return np.empty((0, width), dtype=np.uint8)
    digits = np.frombuffer(b"\n".join(rows).translate(None, b" \t"), dtype=np.uint8)
    return _digit_rows(digits, len(rows), width)


def _digit_rows(chunk: np.ndarray, lines: int, width: int) -> np.ndarray | None:
    """``chunk``'s lines as a ``(lines, width)`` array, uint8 for one-digit tokens
    and int64 otherwise, if each is ``width`` tokens of 1 to 18 ASCII digits
    joined by ``,``; else ``None``.  ``chunk`` holds its last line's line feed,
    if the file has one.  Tokens of one width are read as a ``(lines, width,
    span)`` byte matrix."""
    row_ends = (b"," * (width - 1) + b"\n") * lines
    separators = np.frombuffer(row_ends, dtype=np.uint8)
    if chunk[-1] != ord("\n"):  # the file's unterminated last line
        chunk = np.append(chunk, np.uint8(ord("\n")))
    span, rest = divmod(chunk.size, separators.size)
    if not rest and 2 <= span <= 19:  # maybe one token width: try strided
        cells = chunk.reshape(lines, width, span)
        digits = cells[:, :, :-1] - np.uint8(ord("0"))
        if digits.max() <= 9 and np.array_equal(cells[:, :, -1].ravel(), separators):
            values = digits[:, :, 0]  # uint8 until its first product
            for place in range(1, span - 1):
                values = np.multiply(values, 10, dtype=np.int64) + digits[:, :, place]
            return values
    digits = chunk - np.uint8(ord("0"))
    ends = np.flatnonzero(digits > 9)
    spans = np.ediff1d(ends, to_begin=ends[0] + 1)  # each token and its separator
    shortest, longest = spans.min() - 1, spans.max() - 1
    # 18 digits always fit in int64.
    if (
        ends.size != separators.size
        or not np.array_equal(chunk[ends], separators)
        or not 1 <= shortest <= longest <= 18
    ):
        return None
    values = np.zeros(ends.size, dtype=np.int64)
    for place in range(longest, 0, -1):
        live = spans > place if place > shortest else slice(None)  # a place every token has
        values[live] = values[live] * 10 + digits[ends[live] - place]
    return values.reshape(lines, width)


def _read_body(body: np.ndarray, width: int, line_no: int) -> np.ndarray:
    """The data rows of ``body``, whose first line is line ``line_no``, filled a block
    at a time into the columns of one read-only ``(width, rows)`` array: uint8 until a
    block needs a wider unsigned type to hold its symbols.  Line feeds are found a
    window at a time."""
    ends, lines = [], 0  # each block's end: past its last line feed
    for start in range(0, body.size, _WINDOW):
        feeds = np.flatnonzero(body[start : start + _WINDOW] == ord("\n"))
        ends += (feeds[BLOCK_ROWS - 1 - lines % BLOCK_ROWS :: BLOCK_ROWS] + start + 1).tolist()
        lines += feeds.size
    if body.size > (ends or [0])[-1]:  # the last block, through an unterminated last line
        ends.append(body.size)
        lines += int(body[-1] != ord("\n"))
    columns = np.empty((width, lines), dtype=np.uint8)
    filled = start = 0
    for first, end in zip(range(0, lines, BLOCK_ROWS), ends):
        chunk = body[start:end]
        rows = _digit_rows(chunk, min(BLOCK_ROWS, lines - first), width)
        if rows is None:
            rows = _convert_lines(chunk.tobytes().splitlines(), line_no + first, width)
        if rows.dtype != np.uint8:  # one-digit tokens, and no rows, come as uint8
            narrow = np.min_scalar_type(rows.max())  # unsigned: no symbol is negative
            columns = columns.astype(np.promote_types(columns.dtype, narrow), copy=False)
        columns[:, filled : filled + len(rows)] = rows.T
        filled, start = filled + len(rows), end
    columns.setflags(write=False)  # so each series keeps its row uncopied
    return columns[:, :filled]


def parse_series_csv(path: Path | str) -> SeriesFile:
    """Read a symbol-series CSV (see the module docstring for the format).

    The body is converted ``BLOCK_ROWS`` lines at a time.  A block whose
    lines each hold the header's width of 1- to 18-digit ASCII tokens
    joined by ``,`` takes array arithmetic, strided if its tokens have one
    width; any other block (a blank or comment line, a space or tab around
    a token, or a line off the grammar) is first checked line by line,
    which names the first bad line of a file.
    """
    path = Path(path)
    data = bytearray(path.stat().st_size)  # a regular file's size; 0 for a pipe
    with path.open("rb") as file:
        del data[file.readinto(data) :]
        while chunk := file.read(_WINDOW):  # a pipe, or what a growing file gained
            data += chunk
    if b"\r" in data:  # as in text mode, "\r\n" and a lone "\r" end a line; each
        read = write = 0  # becomes "\n" in place, a window at a time, so the file is held once
        while read < len(data):
            end = min(read + _WINDOW, len(data))
            end -= end < len(data) and data[end - 1] == ord("\r")  # its "\n" may start the next
            lines = data[read:end].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            data[write : write + len(lines)] = lines
            read, write = end, write + len(lines)
        del data[write:]
    start = 3 if data.startswith(b"\xef\xbb\xbf") else 0  # a byte-order mark, as "utf-8-sig"
    alphabet, names, line_no, start = _read_header(data, start)
    body = np.frombuffer(data, dtype=np.uint8)[start:]
    columns = _read_body(body, len(names), line_no + 1)
    del data, body  # the bytes are released before the checks
    if columns.shape[1] == 0:
        raise ParseError(f"no data rows under header for {path}")
    if alphabet is not None and len(alphabet) != len(names):
        raise ParseError(
            f"{ALPHABET_KEY} declares {len(alphabet)} columns, header has {len(names)}"
        )
    components = []
    for position, (name, values) in enumerate(zip(names, columns)):
        size = alphabet[position] if alphabet else int(values.max()) + 1
        if values.max() >= size:
            raise ParseError(
                f"column {name!r} has symbol {int(values.max())} outside "
                f"alphabet of size {size}"
            )
        components.append(SymbolSeries(values, size))
    return SeriesFile(names, JointSeries(tuple(components)))


_FEW_KEYS = 16  # distinct keys up to which a ">=" pass each beats ``searchsorted``


def _column_cells(steps: range, cells: np.ndarray) -> None:
    """Write a block of a non-negative step index into ``cells``, a ``(rows,
    width)`` uint8 view, by digit place: right-aligned behind leading NULs."""
    narrow = np.min_scalar_type(max(steps[0], steps[-1]))  # the fastest division
    magnitude = np.arange(steps.start, steps.stop, steps.step, dtype=narrow)
    last = cells.shape[1] - 1
    for place in range(last, -1, -1):  # units first
        tens = magnitude // 10 if place else 0
        digit = magnitude - tens * 10 + ord("0")
        cells[:, place] = digit * (magnitude > 0) if place < last else digit
        magnitude = tens


def _keys(values: np.ndarray) -> np.ndarray:
    """A column's keys: a float's bit pattern, an integer's or bool's value."""
    if values.dtype.kind == "f":
        return values.astype(np.float64, copy=False).view(np.uint64)
    return values.astype(np.int64 if values.dtype.kind == "i" else np.uint64, copy=False)


def _codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's position among the distinct ``keys``, sorted (no argsort), and
    those keys: one ``>=`` pass per distinct key while few, else ``searchsorted``."""
    distinct = np.sort(keys)
    distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
    if len(distinct) > _FEW_KEYS:
        return np.searchsorted(distinct, keys), distinct
    codes = np.zeros(len(keys), dtype=np.int64)
    for key in distinct[1:]:
        codes += keys >= key
    return codes, distinct


def _padded_rows(columns: Sequence[np.ndarray | range], start: int) -> bytearray:
    """The block of rows from ``start`` as one NUL-padded ``(rows, width)`` byte
    matrix: a leading ``range`` of non-negative steps by digit place, the rest
    gathered from the text of the block's distinct rows.  Each column's keys are
    rendered once and their codes combine, mixed-radix, into a row code,
    renumbered before it could pass ``2**63``."""
    block = [column[start : start + BLOCK_ROWS] for column in columns]
    rows, lead = len(block[0]), block[0]
    steps = block.pop(0) if isinstance(lead, range) and min(lead[0], lead[-1]) >= 0 else None
    row, radix, coded = np.zeros(rows, dtype=np.int64), 1, []
    for values in map(np.asarray, block):
        codes, distinct = _codes(_keys(values))
        if values.dtype.kind == "f":
            texts = list(map(format_float, distinct.view(np.float64).tolist()))
        else:
            texts = list(map(str, distinct.tolist()))
        if radix * len(texts) > 2**63:
            row, present = _codes(row)
            radix = len(present)
        row, radix = row * len(texts) + codes, radix * len(texts)
        coded.append((values, distinct, texts))
    row, present = _codes(row)
    sample = np.empty(len(present), dtype=np.intp)
    sample[row] = np.arange(rows)  # a row of each code, whose keys give its cells
    cells = [
        [texts[code] for code in np.searchsorted(distinct, _keys(values[sample])).tolist()]
        for values, distinct, texts in coded
    ]
    width = len(str(max(steps[0], steps[-1]))) if steps is not None else 0
    if steps is not None:  # NULs where the step goes, then a ","
        cells.insert(0, ["\0" * width] * len(present))
    table = np.array([",".join(line) + "\n" for line in zip(*cells)], dtype=np.bytes_)
    padded = bytearray(rows * table.itemsize)
    whole = f"V{table.itemsize}"  # a row as one item, so the gather copies it at once
    # The codes are in range; "clip" lets ``take`` write into ``out`` unbuffered.
    np.take(table.view(whole), row, out=np.frombuffer(padded, whole), mode="clip")
    if steps is not None:
        _column_cells(steps, np.frombuffer(padded, np.uint8).reshape(rows, -1)[:, :width])
    return padded


def columns_csv_text(
    header: Sequence[str], columns: Sequence[np.ndarray | range]
) -> Iterator[bytes]:
    """Yield a header line, then one chunk of UTF-8 CSV rows per block of the
    equal-length ``columns``; each column's cell format follows its dtype and
    each block drops its NULs in one flat ``translate``.  A block costs numpy
    passes over its rows plus one Python join per distinct row: a handful for
    citom's columns, but one per row, slower than rendering by column, in a
    block whose rows all differ."""
    yield (",".join(header) + "\n").encode("utf-8")
    for start in range(0, len(columns[0]), BLOCK_ROWS):
        yield _padded_rows(columns, start).translate(None, b"\0")


def series_csv_text(series_file: SeriesFile) -> Iterator[bytes]:
    """Yield a joint series' alphabet declaration, header and rows as chunks."""
    components = series_file.series.components
    sizes = ",".join(str(c.alphabet_size) for c in components)
    yield f"# {ALPHABET_KEY}: {sizes}\n".encode("utf-8")
    yield from columns_csv_text(series_file.names, [c.symbols for c in components])


def _episode_csv_text(log) -> Iterator[bytes]:
    """The log's step index, named ``log.index``, then each of its fields
    after ``config``, as chunks."""
    names = [field.name for field in fields(log)[1:]]
    columns = [range(len(log)), *(getattr(log, name) for name in names)]
    return columns_csv_text((log.index, *names), columns)


# Two functions, not one under two names: the benchmark's tracer wraps each
# name, and an alias would give every call two nested spans.
def triadic_episode_csv_text(log) -> Iterator[bytes]:
    """Full per-step record of a triadic episode, as chunks."""
    return _episode_csv_text(log)


def matching_pennies_episode_csv_text(log) -> Iterator[bytes]:
    """Full per-trial record of a matching-pennies episode, as chunks."""
    return _episode_csv_text(log)


def measure_rows(
    reports: Sequence[MeasureReport], agent_names: Sequence[str]
) -> list[list[str]]:
    """Header and one row of cells per lag: tau, joint and per-agent TDMI,
    excess."""
    rows = [["tau", "joint_tdmi", *(f"{name}_tdmi" for name in agent_names), "excess"]]
    for report in reports:
        if len(report.per_agent_tdmi) != len(agent_names):
            raise ValueError("agent_names must match the report arity")
        values = (report.joint_tdmi, *report.per_agent_tdmi, report.excess)
        rows.append([str(report.tau), *map(format_float, values)])
    return rows


def measures_csv_text(
    reports: Sequence[MeasureReport], agent_names: Sequence[str]
) -> str:
    """Tabulate reports: one row per lag, joint and per-agent TDMI, excess."""
    return "".join(",".join(row) + "\n" for row in measure_rows(reports, agent_names))


def measures_json_payload(
    reports: Sequence[MeasureReport], agent_names: Sequence[str]
) -> dict:
    """JSON-ready structure mirroring :func:`measures_csv_text`."""
    measures = []
    for report in reports:
        if len(report.per_agent_tdmi) != len(agent_names):
            raise ValueError("agent_names must match the report arity")
        per_agent = dict(zip(agent_names, report.per_agent_tdmi))
        measures.append(
            {"tau": report.tau, "joint_tdmi": report.joint_tdmi,
             "per_agent_tdmi": per_agent, "excess": report.excess}
        )
    return {"agents": list(agent_names), "measures": measures}


def dump_json_text(payload: dict) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
