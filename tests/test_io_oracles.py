"""Block-wise CSV writer and parser against their row-by-row references.

``io_reference`` holds the per-row writers and the line-by-line parser;
the production code must give the same bytes, the same parsed series and
the same ``ParseError`` messages on random inputs, including lengths
that cross a ``BLOCK_ROWS`` boundary.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import io_reference as reference
from citom import io as citom_io
from citom.info_measures import JointSeries, SymbolSeries
from citom.io import (
    BLOCK_ROWS,
    ParseError,
    SeriesFile,
    columns_csv_text,
    matching_pennies_episode_csv_text,
    parse_series_csv,
    series_csv_text,
    triadic_episode_csv_text,
)
from citom.scenarios import (
    MatchingPenniesConfig,
    TriadicConfig,
    run_matching_pennies,
    run_triadic,
)


SPECIAL_FLOATS = [
    0.0, -0.0, -1e-9, 1e-9, -4e-7, 5e-7, -5e-7, 0.0390625, -0.1171875, 1e15, -1e17,
    1e300, float("inf"), float("-inf"), float("nan"), -float("nan"),
]
FLOATS = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    # j * 5/128 is exactly halfway between two six-decimal values for odd j.
    st.integers(-10**6, 10**6).map(lambda j: j * 5 / 128),
    # Decimal halfway points, which binary floats sit just off.
    st.integers(-10**7, 10**7).map(lambda k: k / 1e6 + 5e-7),
    st.floats(),
)

INT_DTYPES = (np.int64, np.int32, np.int8, np.uint8, np.uint64, np.bool_)


def int_range(dtype) -> tuple[int, int]:
    """The smallest and largest value of an integer or bool dtype."""
    if dtype is np.bool_:
        return 0, 1
    info = np.iinfo(dtype)
    return int(info.min), int(info.max)


@st.composite
def column(draw, length: int) -> np.ndarray:
    """``length`` values drawn with repetition from a small random pool, of
    fewer or more values than a block codes with one pass each."""
    if draw(st.booleans()):
        pool = np.array(draw(st.lists(FLOATS, min_size=1, max_size=24)))
    else:
        dtype = draw(st.sampled_from(INT_DTYPES))
        values = st.integers(*int_range(dtype))
        pool = np.array(draw(st.lists(values, min_size=1, max_size=24)), dtype=dtype)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(pool, size=length)


@st.composite
def columns(draw) -> list[np.ndarray]:
    """One to four columns, short or running into a second block."""
    length = draw(st.one_of(st.integers(0, 12), st.integers(BLOCK_ROWS - 2, BLOCK_ROWS + 40)))
    return [draw(column(length)) for _ in range(draw(st.integers(1, 4)))]


class TestWriterMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(columns())
    def test_random_int_and_float_columns(self, cols: list[np.ndarray]) -> None:
        header = [f"c{i}" for i in range(len(cols))]
        expected = reference.columns_csv_text(header, cols).encode("utf-8")
        assert b"".join(columns_csv_text(header, cols)) == expected

    @pytest.mark.parametrize(
        "length", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]
    )
    def test_lengths_around_block_boundaries(self, length: int) -> None:
        rng = np.random.default_rng(length)
        cols = [
            np.arange(length),
            rng.choice(np.array(SPECIAL_FLOATS), size=length),
            rng.normal(scale=1e-5, size=length),
            rng.integers(-3, 3, size=length).astype(np.int32),
        ]
        header = ["step", "special", "small", "int"]
        expected = reference.columns_csv_text(header, cols).encode("utf-8")
        chunks = list(columns_csv_text(header, cols))
        assert len(chunks) == 1 + math.ceil(length / BLOCK_ROWS)  # the header, then a block each
        assert b"".join(chunks) == expected

    def test_floats_rendered_once_per_distinct_value_per_block(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        log = run_triadic(TriadicConfig(mode="b", steps=2 * BLOCK_ROWS + 3, seed=3))
        calls: list[float] = []
        format_float = citom_io.format_float

        def counting(value: float) -> str:
            calls.append(value)
            return format_float(value)

        monkeypatch.setattr(citom_io, "format_float", counting)
        text = b"".join(triadic_episode_csv_text(log))
        monkeypatch.undo()
        assert text == reference.triadic_episode_csv_text(log).encode("utf-8")
        expected = 0
        for name in ("x1", "coupling", "u1", "u2", "u3"):
            values = getattr(log, name).view(np.uint64)
            for start in range(0, len(log), BLOCK_ROWS):
                expected += len(np.unique(values[start : start + BLOCK_ROWS]))
        assert len(calls) == expected
        assert expected < len(log)

    @settings(max_examples=6, deadline=None)
    @given(
        st.sampled_from("ab"),
        st.integers(2, 2 * BLOCK_ROWS + 3),
        st.integers(0, 3),
        st.integers(0, 1000),
    )
    def test_triadic_episode_and_series(
        self, mode: str, steps: int, delay: int, seed: int
    ) -> None:
        log = run_triadic(
            TriadicConfig(mode=mode, steps=steps, seed=seed, delay=delay, taus=(1,))
        )
        expected = reference.triadic_episode_csv_text(log).encode("utf-8")
        assert b"".join(triadic_episode_csv_text(log)) == expected
        series = SeriesFile(log.agent_names, log.joint_series())
        expected = reference.series_csv_text(series).encode("utf-8")
        assert b"".join(series_csv_text(series)) == expected

    @settings(max_examples=4, deadline=None)
    @given(st.sampled_from([0, 1, 2]), st.sampled_from([2, 9, BLOCK_ROWS + 1]))
    def test_matching_pennies_episode(self, algorithm_id: int, steps: int) -> None:
        log = run_matching_pennies(
            MatchingPenniesConfig(algorithm_id=algorithm_id, steps=steps, taus=(1,))
        )
        expected = reference.matching_pennies_episode_csv_text(log).encode("utf-8")
        assert b"".join(matching_pennies_episode_csv_text(log)) == expected


def edge_values(dtype) -> np.ndarray:
    """The extremes of ``dtype``, 0, +-1, and +-(10**d - 1), +-10**d at
    every digit count it holds, in increasing order."""
    low, high = int_range(dtype)
    values = {low, high, 0, 1, -1}
    for d in range(1, len(str(high)) + 1):
        values |= {10**d - 1, 10**d, 1 - 10**d, -(10**d)}
    return np.array(sorted(v for v in values if low <= v <= high), dtype=dtype)


class TestIntegerCells:
    """Integer and bool cells, rendered once per distinct value, against ``str(int(v))``."""

    def test_bools_render_as_zero_and_one(self) -> None:
        assert b"".join(columns_csv_text(["b"], [np.array([True, False])])) == b"b\n1\n0\n"

    @pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: np.dtype(d).name)
    def test_extremes_and_digit_count_boundaries(self, dtype) -> None:
        edges = edge_values(dtype)
        cols = [edges, edges[::-1].copy(), np.roll(edges, 1)]
        expected = reference.columns_csv_text(["a", "b", "c"], cols).encode("utf-8")
        assert b"".join(columns_csv_text(["a", "b", "c"], cols)) == expected
        small = [edges[(edges >= -1) & (edges <= 1)]]  # -1 alone needs a sign
        expected = reference.columns_csv_text(["s"], small).encode("utf-8")
        assert b"".join(columns_csv_text(["s"], small)) == expected

    @pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: np.dtype(d).name)
    def test_mixed_widths_across_block_boundaries(self, dtype) -> None:
        edges = edge_values(dtype)
        rng = np.random.default_rng(len(edges))
        column = rng.choice(edges, size=2 * BLOCK_ROWS + 3)
        # The first block mixes every width up to its last row, the second
        # is one digit wide with no sign, the third holds both extremes.
        column[BLOCK_ROWS - 2 * len(edges) : BLOCK_ROWS] = np.tile(edges, 2)
        one_digit = edges[(edges >= 0) & (edges <= 9)]
        column[BLOCK_ROWS : 2 * BLOCK_ROWS] = rng.choice(one_digit, size=BLOCK_ROWS)
        column[-3:] = [edges[0], 0, edges[-1]]
        cols = [column, column[::-1].copy()]
        expected = reference.columns_csv_text(["a", "b"], cols).encode("utf-8")
        assert b"".join(columns_csv_text(["a", "b"], cols)) == expected


def gather_cases() -> dict[str, list[np.ndarray]]:
    """Columns at the edges of coding a block by its distinct rows."""
    rng = np.random.default_rng(11)
    steps = np.arange(512)
    int64 = np.iinfo(np.int64)
    return {
        "uint64 top": [np.array([2**64 - 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64)],
        "int64 extremes": [np.array([int64.min, int64.max, int64.min, 0], dtype=np.int64)],
        "int8 minimum": [np.array([-128, 127, -128, 0], dtype=np.int8)],
        "bools only": [np.array([True, False, False, True]), np.zeros(4, dtype=bool)],
        "one row": [np.array([-0.5]), np.array([-7], dtype=np.int32), np.array([True])],
        "all rows distinct": [
            rng.permutation(BLOCK_ROWS + 5) * 7 - 9000,
            rng.normal(size=BLOCK_ROWS + 5),
            rng.integers(0, 3, BLOCK_ROWS + 5).astype(np.int8),
        ],
        # Rows 2k and 2k + 1 differ only in the first column, whose code
        # would be shifted out of 64 bits if the row code were not renumbered.
        "renumbered, 256 values": [steps % 256, *[(steps // 2 % 256).astype(np.uint8)] * 8],
        "renumbered, 2 values": [steps % 2, *[(steps // 2 % 2).astype(bool)] * 64],
    }


class TestGatheredRows:
    """Blocks rendered from their distinct rows, with or without a leading
    step index, against the per-row reference."""

    @pytest.mark.parametrize("case", list(gather_cases()))
    def test_same_bytes_as_the_reference(self, case: str) -> None:
        cols = gather_cases()[case]
        header = [f"c{i}" for i in range(len(cols))]
        expected = reference.columns_csv_text(header, cols).encode("utf-8")
        assert b"".join(columns_csv_text(header, cols)) == expected
        n = len(cols[0])
        expected = reference.columns_csv_text(["i", *header], [np.arange(n), *cols])
        assert b"".join(columns_csv_text(["i", *header], [range(n), *cols])) == expected.encode()

    @pytest.mark.parametrize(
        "steps",
        [range(250, 260), range(65_530, 65_540), range(2**32 - 3, 2**32 + 3), range(9, -3, -1)],
        ids=["uint8 to uint16", "uint16 to uint32", "uint32 to uint64", "negative"],
    )
    def test_step_index_across_integer_widths(self, steps: range) -> None:
        values = np.zeros(len(steps), dtype=np.int8)
        expected = reference.columns_csv_text(["i", "v"], [np.array(steps), values])
        assert b"".join(columns_csv_text(["i", "v"], [steps, values])) == expected.encode()


# Token spellings that int() accepts.  The series grammar takes the
# zero-led ones and those padded with spaces or tabs, and rejects the rest.
TOKEN_FORMS = (
    lambda v: f"+{v}",
    lambda v: f" {v} ",
    lambda v: f"\t{v}",
    lambda v: f"0{v}",
    lambda v: f"{v}_0" if v else "0_0",
    lambda v: f"\f{v}",
    lambda v: f"{v}\u3000",
)
# Replacements for a whole data row that make it malformed.
CORRUPTIONS = (
    lambda row: row + ",0",
    lambda row: row.rpartition(",")[0] or ",",
    lambda row: row.replace("0", "x", 1) if "0" in row else "x" + row,
    lambda row: row + ",1.0",
    lambda row: "-1" + row[row.find(",") :] if "," in row else "-1",
    lambda row: "99" + row[row.find(",") :] if "," in row else "99",
)
# Lines the parser skips, or rejects when they follow the header.
EXTRA_LINES = ("", "   ", " \t", "\f", "#", "# a note", "# alphabet_size: 3", "# alphabet_size: x")


@st.composite
def series_texts(draw) -> str:
    width = draw(st.integers(1, 4))
    n_rows = draw(st.one_of(st.integers(1, 20), st.sampled_from([BLOCK_ROWS + 2])))
    sizes = [draw(st.integers(1, 11)) for _ in range(width)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    symbols = rng.integers(0, sizes, (n_rows, width)).tolist()
    cells = [[str(v) for v in row] for row in symbols]
    for _ in range(draw(st.integers(0, 6))):
        row, col = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, width - 1))
        cells[row][col] = draw(st.sampled_from(TOKEN_FORMS))(int(cells[row][col]))
    lines = [",".join(row) for row in cells]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(0, n_rows - 1))
        lines[row] = draw(st.sampled_from(CORRUPTIONS))(lines[row])
    extra = st.tuples(st.integers(0, n_rows), st.sampled_from(EXTRA_LINES))
    extras = draw(st.lists(extra, max_size=4))
    for position, text in sorted(extras, reverse=True):
        lines.insert(position, text)
    header = [",".join(f" a{i}" for i in range(width))]
    declared = draw(st.sampled_from(["none", "exact", "larger", "smaller", "count"]))
    if declared != "none":
        shift = {"exact": 0, "larger": 2, "smaller": -1, "count": 0}[declared]
        declared_sizes = [max(1, size + shift) for size in sizes]
        if declared == "count":
            declared_sizes.append(2)
        text = ",".join(map(str, declared_sizes))
        header = [f"# alphabet_size: {text}", "", *header]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    mark = draw(st.sampled_from(["", "\ufeff"]))  # a leading byte-order mark, or none
    return mark + newline.join(["# produced by a test", *header, *lines]) + newline


# Tokens the fast path takes: 1 to 18 ASCII digits, leading zeros allowed.
FAST_TOKENS = st.one_of(
    st.sampled_from(["0", "1", "007", "0" * 18, "9" * 18]),
    st.text("0123456789", min_size=1, max_size=18),
)


def _with_first_cell(row: str, token: str) -> str:
    return token + row[len(row.split(",", 1)[0]) :]


# Changes to one data row, each of which sends the file to the
# line-by-line parser.
FAST_PATH_DEFECTS = (
    lambda row: _with_first_cell(row, "0" * 18 + "7"),
    lambda row: _with_first_cell(row, "1" + "0" * 18),
    lambda row: _with_first_cell(row, "-1"),
    lambda row: _with_first_cell(row, "-0"),
    lambda row: _with_first_cell(row, ""),
    lambda row: row + " ",
    lambda row: " " + row,
    lambda row: row.replace(",", " ", 1),
    lambda row: row + "\r",
    lambda row: "\n" + row,
    lambda row: "# a note\n" + row,
    lambda row: "# alphabet_size: 2\n" + row,
    lambda row: row.rpartition(",")[0],
    lambda row: row + ",0",
    lambda row: _with_first_cell(row, "\u0663"),
    lambda row: _with_first_cell(row, "\uff11\uff12"),
    lambda row: _with_first_cell(row, "9" * 20),
)


@st.composite
def fast_series_texts(draw) -> str:
    """Digits-and-LF series files, some with one defect past the first
    block of rows."""
    width = draw(st.integers(1, 16))
    around_blocks = [k * BLOCK_ROWS + d for k in (1, 2) for d in (-1, 0, 1)]
    n_rows = draw(st.one_of(st.integers(1, 5), st.sampled_from(around_blocks)))
    pool = draw(st.lists(FAST_TOKENS, min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    picks = rng.integers(0, len(pool), size=(n_rows, width))
    lines = [",".join(pool[i] for i in row) for row in picks.tolist()]
    defect = draw(st.one_of(st.none(), st.sampled_from(FAST_PATH_DEFECTS)))
    if defect is not None:
        row = draw(st.integers(min(BLOCK_ROWS, n_rows - 1), n_rows - 1))
        lines[row] = defect(lines[row])
    header = [",".join(f"a{i}" for i in range(width))]
    # No declaration, the exact alphabets, or alphabets one too small.
    shift = draw(st.sampled_from([None, 1, 0]))
    if shift is not None:
        values = np.array([int(token) for token in pool], dtype=np.int64)[picks]
        sizes = ",".join(str(max(1, int(top) + shift)) for top in values.max(axis=0))
        header = ["# produced by a test", f"# alphabet_size: {sizes}", "", *header]
    ending = draw(st.sampled_from(["\n", ""]))
    mark = draw(st.sampled_from(["", "\ufeff"]))  # a leading byte-order mark, or none
    return mark + "\n".join([*header, *lines]) + ending


def parse_outcome(parse, path: Path):
    """The parsed names and columns, or the ParseError message."""
    try:
        parsed = parse(path)
    except ParseError as exc:
        return str(exc)
    columns = [(c.symbols.tolist(), c.alphabet_size) for c in parsed.series.components]
    return parsed.names, columns


class TestParserMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(series_texts())
    def test_same_series_or_same_error(self, text: str) -> None:
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "series.csv"
            path.write_bytes(text.encode("utf-8"))
            expected = parse_outcome(reference.parse_series_csv, path)
            assert parse_outcome(parse_series_csv, path) == expected


class TestFastPathMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(fast_series_texts())
    def test_same_series_or_same_error(self, text: str) -> None:
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "series.csv"
            path.write_bytes(text.encode("utf-8"))
            expected = parse_outcome(reference.parse_series_csv, path)
            assert parse_outcome(parse_series_csv, path) == expected

    @pytest.mark.parametrize("defect", FAST_PATH_DEFECTS)
    def test_each_defect_past_the_first_block(self, defect, tmp_path: Path) -> None:
        rng = np.random.default_rng(5)
        symbols = rng.integers(0, 12, size=(2 * BLOCK_ROWS + 1, 3)).tolist()
        lines = [",".join(map(str, row)) for row in symbols]
        lines[BLOCK_ROWS + 7] = defect(lines[BLOCK_ROWS + 7])
        path = tmp_path / "series.csv"
        path.write_text("a,b,c\n" + "\n".join(lines) + "\n", encoding="utf-8")
        expected = parse_outcome(reference.parse_series_csv, path)
        assert parse_outcome(parse_series_csv, path) == expected

    def test_digits_file_skips_the_line_parser(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # Shaped like the benchmark's measure-wide input, as citom writes it.
        rng = np.random.default_rng(9)
        names = tuple(f"a{i + 1}" for i in range(12))
        joint = JointSeries(
            tuple(SymbolSeries(rng.integers(0, 2, 2 * BLOCK_ROWS + 5), 2) for _ in names)
        )
        text = b"".join(series_csv_text(SeriesFile(names, joint))).decode("utf-8")
        lines = text.split("\n")
        lines[BLOCK_ROWS + 9] = " " + lines[BLOCK_ROWS + 9]
        # One block of 1- and 18-digit tokens, the last line unterminated.
        tokens = rng.choice(np.array(["7", "0", "9" * 18, "1" + "0" * 17]), (BLOCK_ROWS, 3))
        mixed = "a,b,c\n" + "\n".join(",".join(row) for row in tokens.tolist())
        passed: list[int] = []
        convert_lines = citom_io._convert_lines

        def spy(lines, line_no, width):
            passed.append(len(lines))
            return convert_lines(lines, line_no, width)

        monkeypatch.setattr(citom_io, "_convert_lines", spy)
        # Blocks that ``_digit_rows`` reads by their separators' positions
        # (``np.ediff1d`` spans the tokens) rather than as one byte matrix.
        ragged: list[int] = []
        ediff1d = np.ediff1d

        def ragged_spy(*args, **kwargs):
            ragged[-1] += 1
            return ediff1d(*args, **kwargs)

        monkeypatch.setattr(np, "ediff1d", ragged_spy)
        path = tmp_path / "series.csv"
        # Rows sent line by line: none for digit rows, one block at most
        # for a block holding another kind of line.
        for variant, least, most in [
            (text, 0, 0),
            (text.replace("\n", "\r\n"), 0, 0),
            (mixed, 0, 0),
            (text + "\n# end\n", 0, BLOCK_ROWS),
            ("\n".join(lines), 1, BLOCK_ROWS),
        ]:
            path.write_bytes(variant.encode("utf-8"))
            passed.clear()
            expected = parse_outcome(reference.parse_series_csv, path)
            ragged.append(0)
            assert parse_outcome(parse_series_csv, path) == expected
            assert least <= sum(passed) <= most
        # Uniform blocks skip it: the mixed block and the one block holding
        # another kind of line do not.
        assert ragged == [0, 0, 1, 1, 1]


# Replacements for one digit byte: the bytes just below and above the
# ASCII digits, a space (a blank the grammar allows around a token), a
# letter and a sign.
NON_DIGITS = (b"/", b":", b" ", b"x", b"-")


def uniform_lines(digits: int, rows: int, width: int, seed: int) -> list[str]:
    """``rows`` lines of ``width`` tokens of exactly ``digits`` digits."""
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 10, size=(rows, width, digits)).astype(str)
    return [",".join("".join(token) for token in row) for row in cells.tolist()]


class TestUniformWidthBlocks:
    """Blocks whose tokens all have one width, read as one strided byte
    matrix, against the line-by-line reference: the same columns or the
    same error, word for word."""

    ROWS = BLOCK_ROWS + 3  # two blocks, the second of three lines

    def check(self, text: str | bytes, path: Path) -> None:
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        expected = parse_outcome(reference.parse_series_csv, path)
        assert parse_outcome(parse_series_csv, path) == expected

    @pytest.mark.parametrize("digits", range(1, 19))
    @pytest.mark.parametrize("ending", ["\n", "\r\n", ""])
    def test_token_widths_and_line_ends(self, digits: int, ending: str, tmp_path: Path) -> None:
        lines = uniform_lines(digits, self.ROWS, 3, seed=digits)
        newline = ending or "\n"  # no ending: the last line is unterminated
        self.check(newline.join(["a,b,c", *lines]) + ending, tmp_path / "series.csv")

    @pytest.mark.parametrize("digits", [2, 3, 4, 18])
    @pytest.mark.parametrize("row", [0, BLOCK_ROWS - 1, BLOCK_ROWS + 2])
    def test_moved_separators(self, digits: int, row: int, tmp_path: Path) -> None:
        # ``12,34`` beside ``1,234`` and ``123,4``: equal lengths,
        # separators elsewhere.
        lines = uniform_lines(digits, self.ROWS, 2, seed=row)
        head, tail = lines[row].split(",")
        lines[row] = f"{head[:-1]},{head[-1]}{tail}"
        self.check("\n".join(["a,b", *lines]) + "\n", tmp_path / "series.csv")
        lines[row] = f"{head}{tail[0]},{tail[1:]}"
        self.check("\n".join(["a,b", *lines]) + "\n", tmp_path / "series.csv")

    @pytest.mark.parametrize("digits", [1, 2, 18])
    @pytest.mark.parametrize("non_digit", NON_DIGITS)
    def test_one_non_digit_byte(self, digits: int, non_digit: bytes, tmp_path: Path) -> None:
        lines = [line.encode() for line in uniform_lines(digits, self.ROWS, 3, seed=digits)]
        lines[BLOCK_ROWS + 1] = lines[BLOCK_ROWS + 1][:-1] + non_digit
        self.check(b"\n".join([b"a,b,c", *lines]) + b"\n", tmp_path / "series.csv")
