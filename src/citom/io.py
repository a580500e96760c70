"""On-disk formats: symbol-series CSV, episode CSV, report CSV/JSON.

Series files are plain CSV with one column per agent and one row per
step, integer symbols only.  An optional leading comment line declares
the alphabet sizes::

    # alphabet_size: 2,2,2
    x1,x2,x3
    0,1,1

Without the declaration, each column's alphabet is inferred as one more
than its largest symbol.  A leading UTF-8 byte-order mark is skipped.
Parse failures always name the 1-based line number.  An episode CSV has
the log's step index, then one column per field of the log after its
``config``.

Parsing reads the file once, with ``\r\n`` and ``\r`` ending lines as
in text mode, and parses the header once.  One rule decides what a line
is; each block of lines below the header picks its converter: strided
arithmetic for digit rows of one token width (as citom writes them),
array arithmetic for other digit rows, or a line-by-line pass for
anything else (:func:`parse_series_csv` says when).  The columns are kept
read-only in the narrowest integer type that holds their symbols, so a
binary column takes one byte per step and is never widened.

All writers go through an atomic write-then-rename so a crashed run
never leaves a truncated artifact, and streams to disk the chunks the CSV
writers yield, one per block of rows, so no file's whole text is held.
Floats get six decimals so identical runs give identical bytes.  Rows are
rendered and parsed ``BLOCK_ROWS`` at a time; a block's cells fill one
NUL-padded byte matrix, NULs then dropped.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from io import BytesIO
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


def _parse_alphabet_comment(line: str, line_no: int) -> tuple[int, ...] | None:
    body = line.lstrip("#").strip()
    if ":" not in body:
        return None
    key, _, value = body.partition(":")
    if key.strip() != ALPHABET_KEY:
        return None
    try:
        sizes = tuple(int(part.strip()) for part in value.split(","))
    except ValueError as exc:
        raise ParseError(
            f"line {line_no}: malformed {ALPHABET_KEY} declaration: {value.strip()!r}"
        ) from exc
    if any(size < 1 for size in sizes):
        raise ParseError(f"line {line_no}: alphabet sizes must be >= 1")
    return sizes


def _read_header(buffer: BytesIO):
    """Consume ``buffer``'s lines through the header; return the declared
    alphabet, if any, the column names and the header's line number."""
    alphabet: tuple[int, ...] | None = None
    for line_no, raw in enumerate(buffer, start=1):
        line = _decoded(raw, line_no).strip()
        if line.startswith("#"):
            alphabet = _parse_alphabet_comment(line, line_no) or alphabet
        elif line:
            parts = [part.strip() for part in line.split(",")]
            if any(not part for part in parts):
                raise ParseError(f"line {line_no}: empty column name in header")
            if len(set(parts)) != len(parts):
                raise ParseError(f"line {line_no}: duplicate column names")
            return alphabet, tuple(parts), line_no
    raise ParseError("line 1: missing header row")


def _decoded(raw: bytes, line_no: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"line {line_no}: not valid UTF-8") from None


def _symbol_block(rows: list[tuple[int, str]], width: int) -> np.ndarray:
    """``(line number, data row)`` pairs as a ``(len(rows), width)`` int64 array.

    ``np.array`` converts each token as ``int()`` would.  Only when the
    block fails are its rows checked one by one, to name the first bad
    line.
    """
    try:
        tokens = [row.split(",") for _, row in rows]
        return np.array(tokens, dtype=np.int64).reshape(len(rows), width)
    except (ValueError, OverflowError):
        for line_no, row in rows:
            parts = [part.strip() for part in row.split(",")]
            if len(parts) != width:
                raise ParseError(
                    f"line {line_no}: expected {width} fields, got {len(parts)}"
                )
            for part in parts:
                try:
                    np.int64(part)
                except ValueError as exc:
                    raise ParseError(
                        f"line {line_no}: not an integer symbol: {part!r}"
                    ) from exc
                except OverflowError as exc:
                    raise ParseError(
                        f"line {line_no}: symbol out of int64 range: {part!r}"
                    ) from exc
        raise


def _convert_lines(lines: list[bytes], line_no: int, width: int) -> np.ndarray:
    """The data rows of ``lines``, the first being line ``line_no``, as a
    ``(rows, width)`` int64 array; blank and comment lines are skipped."""
    rows: list[tuple[int, str]] = []
    for line_no, raw in enumerate(lines, start=line_no):
        try:
            line = _decoded(raw, line_no).strip()
            if line.startswith("#"):
                if _parse_alphabet_comment(line, line_no) is not None:
                    raise ParseError(
                        f"line {line_no}: {ALPHABET_KEY} must precede the header"
                    )
            elif line:
                rows.append((line_no, line))
        except ParseError:
            # Errors in the rows above this line come first.
            _symbol_block(rows, width)
            raise
    return _symbol_block(rows, width)


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
    """The data rows of ``body``, whose first line is line ``line_no``, as
    the columns of one read-only ``(width, rows)`` array.  Each block is kept
    in the narrowest unsigned type up to uint32 that holds it, else int64
    (a symbol below 0 or of 2**32 or more), and joining takes the widest."""
    # Line r ends at stops[r]: its line feed, or the end of the file.
    stops = np.flatnonzero(body == ord("\n"))
    if body.size and body[-1] != ord("\n"):
        stops = np.append(stops, body.size)
    blocks, start = [np.empty((width, 0), dtype=np.uint8)], 0
    for first in range(0, stops.size, BLOCK_ROWS):
        block_stops = stops[first : first + BLOCK_ROWS]
        chunk = body[start : block_stops[-1] + 1]  # with its line feed, if any
        start = block_stops[-1] + 1
        rows = _digit_rows(chunk, block_stops.size, width)
        if rows is None:
            rows = _convert_lines(chunk.tobytes().splitlines(), line_no + first, width)
        if rows.dtype != np.uint8:  # one-digit tokens come as uint8
            low, high = rows.min(initial=0), rows.max(initial=0)  # 0 if no rows
            # No uint64, which would join int64 as float64.
            rows = rows.astype(np.min_scalar_type(high) if 0 <= low and high < 2**32 else np.int64)
        blocks.append(rows.T)
    columns = np.concatenate(blocks, axis=1)
    columns.setflags(write=False)  # so each series keeps its row uncopied
    return columns


def parse_series_csv(path: Path | str) -> SeriesFile:
    """Read a symbol-series CSV (see the module docstring for the format).

    The body is converted ``BLOCK_ROWS`` lines at a time.  A block whose
    lines each hold the header's width of 1- to 18-digit ASCII tokens
    joined by ``,`` takes array arithmetic, strided if its tokens have one
    width; any other block (a blank or comment line, a space, sign, longer
    token or non-ASCII digit) is converted line by line, which names the
    first bad line of a file.
    """
    path = Path(path)
    data = path.read_bytes()
    if b"\r" in data:  # as in text mode, "\r\n" and a lone "\r" end a line
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    buffer = BytesIO(data)
    if data.startswith(b"\xef\xbb\xbf"):  # a byte-order mark, skipped as "utf-8-sig" does
        buffer.seek(3)
    alphabet, names, line_no = _read_header(buffer)
    body = np.frombuffer(data, dtype=np.uint8)[buffer.tell() :]
    columns = _read_body(body, len(names), line_no + 1)
    del data, buffer, body  # the bytes are released before the checks
    if columns.shape[1] == 0:
        raise ParseError(f"no data rows under header for {path}")
    if alphabet is not None and len(alphabet) != len(names):
        raise ParseError(
            f"{ALPHABET_KEY} declares {len(alphabet)} columns, header has {len(names)}"
        )
    components = []
    for position, (name, values) in enumerate(zip(names, columns)):
        if values.min() < 0:
            raise ParseError(f"column {name!r} has negative symbols")
        size = alphabet[position] if alphabet else int(values.max()) + 1
        if values.max() >= size:
            raise ParseError(
                f"column {name!r} has symbol {int(values.max())} outside "
                f"alphabet of size {size}"
            )
        components.append(SymbolSeries(values, size))
    return SeriesFile(names, JointSeries(tuple(components)))


def _column_cells(column: np.ndarray | range) -> np.ndarray:
    """A block of a column (a ``range`` becomes an array only here) as a
    ``(rows, width)`` uint8 matrix of NUL-padded cells.  Floats call
    ``format_float`` once per distinct bit pattern.  Integers and bools are
    written by digit place: a sign column (``-`` or NUL) only if some value
    is negative, then the digits right-aligned behind leading NULs.  No cell
    text holds a NUL byte, so dropping a row's NULs leaves exactly its cells."""
    if isinstance(column, range):
        column = np.arange(column.start, column.stop, column.step)
    if column.dtype.kind == "f":
        keys = column.astype(np.float64).view(np.uint64)
        distinct, codes = np.unique(keys, return_inverse=True)
        texts = map(format_float, distinct.view(np.float64).tolist())
        table = np.array(list(texts), dtype=np.bytes_)
        return table[codes].view(np.uint8).reshape(len(column), table.itemsize)
    sign = int(column.dtype.kind == "i" and column.min() < 0)
    magnitude = column.astype(np.int64 if sign else np.uint64, copy=False)
    if sign:  # widened first (np.abs of int8 -128 is -128); the int64 minimum wraps to 2**63
        magnitude = np.abs(magnitude).view(np.uint64)
    cells = np.zeros((len(column), sign + len(str(magnitude.max()))), dtype=np.uint8)
    if sign:
        np.multiply(column < 0, ord("-"), out=cells[:, 0], dtype=np.uint8)
    for place in range(cells.shape[1] - 1, sign - 1, -1):  # units first
        tens = magnitude // 10 if place > sign else 0
        digit = magnitude - tens * 10 + ord("0")
        cells[:, place] = digit * (magnitude > 0) if place < cells.shape[1] - 1 else digit
        magnitude = tens
    return cells


def _padded_rows(columns: Sequence[np.ndarray | range], start: int) -> bytearray:
    """The block of rows from ``start``: each column's NUL-padded cells then
    ``,``, the last a line feed, filled through one ``(rows, width)`` matrix."""
    cells = [_column_cells(column[start : start + BLOCK_ROWS]) for column in columns]
    ends = np.cumsum([block.shape[1] + 1 for block in cells])
    padded = bytearray(b",") * (len(cells[0]) * int(ends[-1]))
    rows = np.frombuffer(padded, dtype=np.uint8).reshape(len(cells[0]), -1)
    for block, end in zip(cells, ends):
        rows[:, end - block.shape[1] - 1 : end - 1] = block
    rows[:, -1] = ord("\n")
    return padded


def columns_csv_text(
    header: Sequence[str], columns: Sequence[np.ndarray | range]
) -> Iterator[bytes]:
    """Yield a header line, then one chunk of UTF-8 CSV rows per block of the
    equal-length ``columns``; each column's cell format follows its dtype and
    each block drops its NULs in one flat ``translate``."""
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
