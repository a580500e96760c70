"""File-format and command-line tests.

The CLI is exercised through ``main(argv)`` in temporary directories;
determinism is asserted as byte equality of emitted artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from traced_peak import traced_peak

import citom
from citom import io as citom_io
from citom.cli import PIKL_DEMO_DEFAULTS, build_parser, main
from citom.info_measures import JointSeries, SymbolSeries, excess_tdmi
from citom.io import (
    BLOCK_ROWS,
    ParseError,
    SeriesFile,
    atomic_write_text,
    dump_json_text,
    format_float,
    matching_pennies_episode_csv_text,
    measures_csv_text,
    measures_json_payload,
    parse_series_csv,
    series_csv_text,
    triadic_episode_csv_text,
)
from citom.scenarios import (
    MatchingPenniesConfig,
    TriadicConfig,
    measure_log,
    run_matching_pennies,
    run_triadic,
)


class TestFormatFloat:
    def test_fixed_six_decimals(self) -> None:
        assert format_float(0.5) == "0.500000"
        assert format_float(1 / 3) == "0.333333"
        assert format_float(-1.25) == "-1.250000"

    def test_negative_zero_is_normalised(self) -> None:
        assert format_float(-0.0) == "0.000000"
        assert format_float(-1e-9) == "0.000000"


class TestAtomicWrite:
    def test_writes_and_leaves_no_temporary(self, tmp_path: Path) -> None:
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        atomic_write_text(target, "replaced\n")
        assert target.read_text() == "replaced\n"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize(
        "payload",
        [
            "caf\u00e9,1\n",
            b"caf\xc3\xa9,1\n",
            bytearray(b"caf\xc3\xa9,1\n"),
            (b"caf\xc3", bytearray(b"\xa9,1"), b"\n"),  # a character split across chunks
        ],
        ids=["str", "bytes", "bytearray", "chunks"],
    )
    def test_str_is_utf8_and_bytes_are_verbatim(self, tmp_path: Path, payload) -> None:
        target = tmp_path / "out.csv"
        atomic_write_text(target, payload)
        assert target.read_bytes() == b"caf\xc3\xa9,1\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_rename_leaves_target_and_no_temporary(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        target = tmp_path / "out.txt"
        target.write_text("kept\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write_text(target, "lost\n")
        assert target.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize(
        "payload", ["lost\n", b"lost\n", bytearray(b"lost\n")], ids=["str", "bytes", "bytearray"]
    )
    def test_failed_write_leaves_target_and_no_temporary(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch, payload
    ) -> None:
        target = tmp_path / "out.txt"
        target.write_text("kept\n")

        class TornFile:
            """Stores two bytes of the first chunk, then fails as a full disk would."""

            def __init__(self, path, mode):
                self.handle = open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def writelines(self, chunks):
                self.handle.write(bytes(next(iter(chunks)))[:2])  # a torn temporary file
                raise OSError("disk full")

        monkeypatch.setattr(citom_io, "open", TornFile, raising=False)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(target, payload)
        assert target.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_failing_chunk_source_leaves_target_and_no_temporary(self, tmp_path: Path) -> None:
        target = tmp_path / "out.txt"
        target.write_text("kept\n")

        def chunks():
            yield b"lost\n"
            raise RuntimeError("renderer failed")

        with pytest.raises(RuntimeError, match="renderer failed"):
            atomic_write_text(target, chunks())
        assert target.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [target]


def child_env() -> dict[str, str]:
    """The environment of a child interpreter that imports this citom."""
    src = str(Path(citom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def write_series(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "series.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestParseSeriesCsv:
    def test_declared_alphabet(self, tmp_path: Path) -> None:
        path = write_series(
            tmp_path, "# alphabet_size: 3,2\na,b\n0,1\n1,0\n2,1\n"
        )
        parsed = parse_series_csv(path)
        assert parsed.names == ("a", "b")
        sizes = [c.alphabet_size for c in parsed.series.components]
        assert sizes == [3, 2]
        np.testing.assert_array_equal(parsed.series.components[0].symbols, [0, 1, 2])

    def test_inferred_alphabet(self, tmp_path: Path) -> None:
        path = write_series(tmp_path, "x,y\n0,0\n1,2\n")
        parsed = parse_series_csv(path)
        sizes = [c.alphabet_size for c in parsed.series.components]
        assert sizes == [2, 3]

    def test_declaration_can_exceed_observed_symbols(self, tmp_path: Path) -> None:
        path = write_series(tmp_path, "# alphabet_size: 4\nx\n0\n1\n")
        parsed = parse_series_csv(path)
        assert parsed.series.components[0].alphabet_size == 4

    def test_declared_sizes_take_blanks_and_nineteen_digits(self, tmp_path: Path) -> None:
        # 10**18 is the alphabet of an 18-digit symbol, as series_csv_text declares it.
        text = f"# alphabet_size:\t3 ,{10**18}\t, 002\na,b,c\n0,{10**18 - 1},1\n"
        parsed = parse_series_csv(write_series(tmp_path, text))
        assert [c.alphabet_size for c in parsed.series.components] == [3, 10**18, 2]

    def test_blank_lines_and_plain_comments_ignored(self, tmp_path: Path) -> None:
        path = write_series(
            tmp_path, "# produced by a test\n\nx,y\n0,1\n\n1,0\n"
        )
        parsed = parse_series_csv(path)
        assert len(parsed.series) == 2

    def test_round_trip_is_byte_stable(self, tmp_path: Path) -> None:
        series = SeriesFile(
            ("x1", "x2"),
            JointSeries(
                (
                    SymbolSeries(np.array([0, 1, 1, 0]), 2),
                    SymbolSeries(np.array([2, 0, 1, 2]), 3),
                )
            ),
        )
        text = b"".join(series_csv_text(series)).decode("utf-8")
        path = write_series(tmp_path, text)
        parsed = parse_series_csv(path)
        assert parsed.names == series.names
        for ours, theirs in zip(series.series.components, parsed.series.components):
            np.testing.assert_array_equal(ours.symbols, theirs.symbols)
            assert ours.alphabet_size == theirs.alphabet_size
        assert b"".join(series_csv_text(parsed)) == text.encode("utf-8")

    def test_leading_byte_order_mark_is_skipped(self, tmp_path: Path) -> None:
        log = run_triadic(TriadicConfig(mode="b", steps=50))
        series = SeriesFile(log.agent_names, log.joint_series())
        path = tmp_path / "series.csv"
        path.write_bytes(b"\xef\xbb\xbf" + b"".join(series_csv_text(series)))
        parsed = parse_series_csv(path)
        assert parsed.names == series.names
        for ours, theirs in zip(series.series.components, parsed.series.components, strict=True):
            np.testing.assert_array_equal(ours.symbols, theirs.symbols)
            assert ours.alphabet_size == theirs.alphabet_size
        # A mark before the comment or before the header alike.
        for text, size in (("\ufeff# alphabet_size: 3\nx\n0\n1\n0\n", 3), ("\ufeffx\n0\n1\n0\n", 2)):
            parsed = parse_series_csv(write_series(tmp_path, text))
            assert parsed.names == ("x",)
            component = parsed.series.components[0]
            assert (component.symbols.tolist(), component.alphabet_size) == ([0, 1, 0], size)

    @pytest.mark.parametrize(
        ("text", "match"),
        [
            ("x,x\n0,0\n", "line 1: duplicate column names"),
            ("x,\n0,0\n", "line 1: empty column name"),
            ("x,y\n0\n", "line 2: expected 2 fields, got 1"),
            ("x,y\n0,1\n1,oops\n", "line 3: not an integer symbol"),
            ("x\n0\n99999999999999999999\n", "line 3: symbol longer than 18 digits"),
            ("x\n0\n# alphabet_size: 2\n", "line 3: .* must precede the header"),
            ("# alphabet_size: two\nx\n0\n", "line 1: malformed"),
            # Declared sizes are spelled as symbols are, with up to 19 digits.
            (
                "# alphabet_size: +2,1_0,٣\nx,y,z\n0,0,0\n",
                r"^line 1: malformed alphabet_size declaration: '\+2,1_0,٣'$",
            ),
            ("# alphabet_size: +2\nx\n0\n", r"^line 1: malformed .*: '\+2'$"),
            ("# alphabet_size: 2, 1_0\nx,y\n0,0\n", "^line 1: malformed .*: '2, 1_0'$"),
            ("#\n# alphabet_size: ٣\nx\n0\n", "^line 2: malformed .*: '٣'$"),
            ("# alphabet_size: １\nx\n0\n", "^line 1: malformed .*: '１'$"),
            ("# alphabet_size: 1" + "0" * 19 + "\nx\n0\n", "^line 1: malformed .*: '10{19}'$"),
            ("x\n0\n# alphabet_size: +2\n", r"^line 3: malformed .*: '\+2'$"),
            ("# alphabet_size: 0\nx\n0\n", "line 1: alphabet sizes must be >= 1"),
            ("# alphabet_size: 2,2\nx\n0\n", "declares 2 columns, header has 1"),
            ("x\n-1\n", "^line 2: not an integer symbol: '-1'$"),
            # The series grammar: 1 to 18 ASCII digits, spaces or tabs around them.
            ("x\n0\n+1\n", r"^line 3: not an integer symbol: '\+1'$"),
            ("x\n-0\n", "^line 2: not an integer symbol: '-0'$"),
            ("x\n1_0\n", "^line 2: not an integer symbol: '1_0'$"),
            ("x\n\u0663\n", "^line 2: not an integer symbol: '\u0663'$"),
            ("x\n\uff11\n", "^line 2: not an integer symbol: '\uff11'$"),
            ("x\n" + "0" * 18 + "7\n", "^line 2: symbol longer than 18 digits: '0{18}7'$"),
            ("x,y\n0,1\n0,\f1\n", r"^line 3: not an integer symbol: '\\x0c1'$"),
            pytest.param(
                "# alphabet_size: 2,2\nx,y\n 7 ,\t3\n",
                "^column 'x' has symbol 7 outside alphabet of size 2$",
                id="blanks around tokens",
            ),
            ("# alphabet_size: 2\nx\n0\n5\n", "symbol 5 outside alphabet of size 2"),
            # Range errors read exact values, whatever type a column is kept in.
            (
                "# alphabet_size: 2\nx\n0\n300\n",
                "^column 'x' has symbol 300 outside alphabet of size 2$",
            ),
            (
                "# alphabet_size: 2\nx\n0\n999999999999999999\n",
                "^column 'x' has symbol 999999999999999999 outside alphabet of size 2$",
            ),
            pytest.param(
                "# alphabet_size: 2,2\nx,y\n" + "999999999999999999,0\n" * BLOCK_ROWS + "0,1\n",
                "^column 'x' has symbol 999999999999999999 outside alphabet of size 2$",
                id="18-digit block joined with a one-digit one",
            ),
            ("", "line 1: missing header row"),
            ("x,y\n", "no data rows"),
        ],
    )
    def test_malformed_inputs_name_the_line(
        self, tmp_path: Path, text: str, match: str
    ) -> None:
        path = write_series(tmp_path, text)
        with pytest.raises(ParseError, match=match):
            parse_series_csv(path)

    def test_columns_take_the_narrowest_type(self, tmp_path: Path) -> None:
        # A block of one-digit tokens, a block of comments, a block of wider tokens.
        one_digit, comments = "0,1,2\n" * BLOCK_ROWS, "#\n" * BLOCK_ROWS
        text = "x,y,z\n" + one_digit + comments + "70000,0,999999999999999999\n"
        components = parse_series_csv(write_series(tmp_path, text)).series.components
        assert [c.symbols.dtype for c in components] == [np.uint32, np.uint8, np.uint64]
        assert [int(c.symbols[-1]) for c in components] == [70_000, 0, 999_999_999_999_999_999]
        assert [c.alphabet_size for c in components] == [70_001, 2, 10**18]

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r", b"\r\r\n"], ids=["crlf", "cr", "cr-crlf"])
    def test_line_end_across_rewrite_windows(self, tmp_path: Path, ending: bytes) -> None:
        # Line ends are rewritten in place one window at a time; here the
        # window's last byte is the "\r" that opens ``ending``.  A "\r\n" split
        # into two line ends would add a blank line, so a later error names
        # the wrong line.
        lead = b"x,y\r\n0,1\r#"
        comment = lead + b"-" * (citom_io._WINDOW - 1 - len(lead))
        assert len(comment) == citom_io._WINDOW - 1
        path = tmp_path / "series.csv"
        path.write_bytes(comment + ending + b"1,0\r\n0,0\r1,1\n")
        parsed = parse_series_csv(path)
        assert [c.symbols.tolist() for c in parsed.series.components] == [
            [0, 1, 0, 1], [1, 0, 0, 1]
        ]
        line = 4 + ending.count(b"\r")  # the bad row after "1,0"
        path.write_bytes(comment + ending + b"1,0\r\n0,x\r\n")
        with pytest.raises(ParseError, match=f"^line {line}: not an integer symbol"):
            parse_series_csv(path)

    def test_series_file_name_arity(self) -> None:
        joint = JointSeries((SymbolSeries(np.array([0, 1]), 2),))
        with pytest.raises(ValueError):
            SeriesFile(("a", "b"), joint)


class TestEpisodeRenderers:
    def test_triadic_rows(self) -> None:
        log = run_triadic(TriadicConfig(mode="b", steps=5, seed=0, taus=(1,)))
        text = b"".join(triadic_episode_csv_text(log)).decode("utf-8")
        lines = text.splitlines()
        assert lines[0] == "step,signal,x1,coupling,x2,x3,u1,u2,u3,value"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == str(int(log.signal[0]))
        assert first[3] == format_float(float(log.coupling[0]))

    def test_matching_pennies_rows(self) -> None:
        log = run_matching_pennies(
            MatchingPenniesConfig(algorithm_id=0, steps=4, seed=0, taus=(1,))
        )
        lines = b"".join(matching_pennies_episode_csv_text(log)).decode("utf-8").splitlines()
        assert lines[0] == "trial,monkey,computer,monkey_reward,computer_reward"
        assert len(lines) == 5
        for t, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert fields[0] == str(t)
            assert int(fields[3]) == int(log.monkey[t] == log.computer[t])

    def test_rendering_and_writing_hold_a_few_blocks(self, tmp_path: Path) -> None:
        # Each block is rendered, written and dropped before the next, and
        # the step index is built a block at a time, so the traced peak stays
        # near 2.1 blocks of text (535 KB here, 538 KB at 24 blocks) however
        # many rows there are; the whole 2 MB file is never held.
        steps = 8 * BLOCK_ROWS + 3
        log = run_triadic(TriadicConfig(mode="b", steps=steps, seed=0))
        target = tmp_path / "episode.csv"
        _, peak = traced_peak(atomic_write_text, target, triadic_episode_csv_text(log))
        block_bytes = target.stat().st_size * BLOCK_ROWS / steps
        assert peak < 3 * block_bytes


class TestMeasureRenderers:
    def make_reports(self):
        log = run_triadic(TriadicConfig(mode="b", steps=2000, seed=0, taus=(1, 2)))
        return measure_log(log), log.agent_names

    def test_csv_layout(self) -> None:
        reports, names = self.make_reports()
        lines = measures_csv_text(reports, names).splitlines()
        assert lines[0] == "tau,joint_tdmi,x1_tdmi,x2_tdmi,x3_tdmi,excess"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[0] == "1"
        assert fields[-1] == format_float(reports[0].excess)

    def test_json_payload_mirrors_csv(self) -> None:
        reports, names = self.make_reports()
        payload = measures_json_payload(reports, names)
        assert payload["agents"] == list(names)
        entry = payload["measures"][0]
        assert entry["tau"] == 1
        assert entry["excess"] == reports[0].excess
        assert set(entry["per_agent_tdmi"]) == set(names)

    def test_arity_mismatch_rejected(self) -> None:
        reports, _ = self.make_reports()
        with pytest.raises(ValueError):
            measures_csv_text(reports, ("only",))
        with pytest.raises(ValueError):
            measures_json_payload(reports, ("a", "b"))

    def test_dump_json_is_canonical(self) -> None:
        text = dump_json_text({"b": 1, "a": [1.5]})
        assert text == '{\n  "a": [\n    1.5\n  ],\n  "b": 1\n}\n'


class TestCliSimulate:
    def test_triadic_writes_all_artifacts(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        out = tmp_path / "run"
        code = main(
            [
                "simulate-triadic",
                "--mode", "b",
                "--steps", "2000",
                "--seed", "0",
                "--taus", "1,2",
                "--out", str(out),
            ]
        )
        assert code == 0
        for name in ("episode.csv", "series.csv", "measures.csv", "measures.json"):
            assert (out / name).is_file()
        assert not list(out.glob("*.tmp"))
        captured = capsys.readouterr()
        assert "tau" in captured.out and "excess" in captured.out
        payload = json.loads((out / "measures.json").read_text())
        assert payload["agents"] == ["x1", "x2", "x3"]
        assert payload["measures"][0]["excess"] > 0.9
        assert payload["config"]["mode"] == "b"

    def test_matching_pennies_writes_all_artifacts(self, tmp_path: Path) -> None:
        out = tmp_path / "mp"
        code = main(
            [
                "simulate-mp",
                "--algo", "0",
                "--steps", "500",
                "--taus", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "measures.json").read_text())
        assert payload["agents"] == ["monkey", "computer"]
        assert payload["config"]["algorithm_id"] == 0

    @pytest.mark.parametrize(
        ("argv", "config"),
        [
            (["simulate-mp", "--algo", "1"], MatchingPenniesConfig(1)),
            (["simulate-triadic", "--mode", "b"], TriadicConfig("b")),
        ],
        ids=["simulate-mp", "simulate-triadic"],
    )
    def test_absent_flags_take_the_config_defaults(
        self, tmp_path: Path, capsys, argv: list[str], config
    ) -> None:
        assert main([*argv, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "measures.json").read_text())
        assert payload["config"] == json.loads(json.dumps(dataclasses.asdict(config)))

    def test_every_simulate_flag_names_a_config_field(self) -> None:
        # A flag whose value no config field takes would be dropped silently.
        commands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        simulate = {
            name: sub for name, sub in commands.choices.items()
            if sub.get_default("config_type") is not None
        }
        assert set(simulate) == {"simulate-triadic", "simulate-mp"}
        for name, sub in simulate.items():
            fields = {field.name for field in dataclasses.fields(sub.get_default("config_type"))}
            for action in sub._actions:
                if not {"-h", "--out"} & set(action.option_strings):
                    assert action.dest in fields, (name, action.option_strings)

    def test_identical_invocations_are_byte_identical(self, tmp_path: Path) -> None:
        argv = ["simulate-triadic", "--mode", "b", "--steps", "1500", "--seed", "7"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([*argv, "--out", str(out_a)]) == 0
        assert main([*argv, "--out", str(out_b)]) == 0
        for name in ("episode.csv", "series.csv", "measures.csv", "measures.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_measure_reproduces_the_simulators_numbers(
        self, tmp_path: Path
    ) -> None:
        sim_out = tmp_path / "sim"
        assert main(
            [
                "simulate-triadic",
                "--mode", "b",
                "--steps", "1200",
                "--taus", "1,2",
                "--out", str(sim_out),
            ]
        ) == 0
        measure_out = tmp_path / "measured"
        assert main(
            [
                "measure",
                "--input", str(sim_out / "series.csv"),
                "--taus", "1,2",
                "--out", str(measure_out),
            ]
        ) == 0
        assert (
            (measure_out / "measures.csv").read_bytes()
            == (sim_out / "measures.csv").read_bytes()
        )

    def test_measure_defaults_to_the_configs_lags(self, tmp_path: Path, capsys) -> None:
        # With no --taus, citom measure takes the lags every config takes,
        # so it reproduces a simulate run's measures with no flag either.
        sim_out, measure_out = tmp_path / "sim", tmp_path / "measured"
        assert main(["simulate-triadic", "--mode", "b", "--steps", "300", "--out", str(sim_out)]) == 0
        series = str(sim_out / "series.csv")
        assert main(["measure", "--input", series, "--out", str(measure_out)]) == 0
        capsys.readouterr()
        payload = json.loads((measure_out / "measures.json").read_text())
        assert payload["config"]["taus"] == [entry["tau"] for entry in payload["measures"]]
        assert tuple(payload["config"]["taus"]) == TriadicConfig("b").taus
        assert tuple(payload["config"]["taus"]) == MatchingPenniesConfig(0).taus
        assert (measure_out / "measures.csv").read_bytes() == (sim_out / "measures.csv").read_bytes()

    def test_measure_matches_direct_computation(self, tmp_path: Path) -> None:
        rng = np.random.default_rng(5)
        joint = JointSeries(
            (
                SymbolSeries(rng.integers(0, 2, 400), 2),
                SymbolSeries(rng.integers(0, 3, 400), 3),
            )
        )
        path = tmp_path / "input.csv"
        path.write_bytes(b"".join(series_csv_text(SeriesFile(("p", "q"), joint))))
        out = tmp_path / "out"
        assert main(["measure", "--input", str(path), "--taus", "2", "--out", str(out)]) == 0
        payload = json.loads((out / "measures.json").read_text())
        report = excess_tdmi(joint, 2)
        assert payload["measures"][0]["excess"] == report.excess
        assert payload["measures"][0]["joint_tdmi"] == report.joint_tdmi


    def test_measure_large_declared_alphabet(self, tmp_path: Path) -> None:
        # A joint alphabet of 10**6 symbols: the dense lag-pair table of
        # 10**12 cells used to end in an allocation traceback.
        path = write_series(tmp_path, "# alphabet_size: 1000,1000\nx,y\n0,999\n999,0\n0,999\n")
        out = tmp_path / "out"
        assert main(["measure", "--input", str(path), "--taus", "1,2", "--out", str(out)]) == 0
        payload = json.loads((out / "measures.json").read_text())
        assert [entry["joint_tdmi"] for entry in payload["measures"]] == [1.0, 0.0]

    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")
    @pytest.mark.parametrize(
        "data",
        [b"a,b\r\n1,0\r\n0,1\r\n1,1\r\n", b"a,b\n1,0\n 0,1\n1,1\n"],
        ids=["crlf", "space-padded row"],
    )
    def test_measure_reads_a_pipe(self, tmp_path: Path, data: bytes) -> None:
        # The file can be read only once, as from a shell pipe.
        path = tmp_path / "series.csv"
        path.write_bytes(data)
        measures = []
        for source, stdin in [("/dev/stdin", data), (str(path), b"")]:
            out = tmp_path / f"out{len(measures)}"
            result = subprocess.run(
                [sys.executable, "-m", "citom.cli", "measure", "--input", source,
                 "--taus", "1", "--out", str(out)],
                input=stdin, env=child_env(), capture_output=True,
            )
            assert result.returncode == 0, result.stderr
            measures.append((out / "measures.csv").read_bytes())
        assert measures[0] == measures[1]


class TestCliPiklDemo:
    def test_default_instance(self, tmp_path: Path, capsys) -> None:
        out = tmp_path / "demo"
        assert main(["pikl-demo", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["selected_message"] == 0
        np.testing.assert_allclose(
            report["posterior_by_message"][0], [0.8, 0.2], atol=1e-12
        )
        np.testing.assert_allclose(
            report["message_expected_utility"], [0.552, 0.468], atol=1e-12
        )
        top = 1.0 / (1.0 + np.exp(-1.0))
        np.testing.assert_allclose(
            report["pikl_policy"][0], [top, 1 - top], atol=1e-12
        )
        assert "selected message: 0" in capsys.readouterr().out

    def test_each_step_runs_once(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # The report's utilities and mixtures are the ones the selection used.
        calls: list[str] = []
        for module in (citom.cli, citom.tom_policy):
            for name in ("induced_message_policy", "message_expected_utilities"):
                original = getattr(module, name)

                def spy(*args, _name=name, _original=original, **kwargs):
                    calls.append(_name)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, spy)
        assert main(["pikl-demo", "--out", str(tmp_path / "demo")]) == 0
        assert sorted(calls) == ["induced_message_policy", "message_expected_utilities"]

    def test_config_override(self, tmp_path: Path) -> None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"lambda_tom": 0.0}))
        out = tmp_path / "demo"
        assert main(
            ["pikl-demo", "--config", str(config_path), "--out", str(out)]
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["unified_objective"] == report["anchor_objective"]

    def test_coupled_mode_changes_the_value(self, tmp_path: Path) -> None:
        out_a, out_b = tmp_path / "diag", tmp_path / "coup"
        assert main(["pikl-demo", "--out", str(out_a)]) == 0
        assert main(["pikl-demo", "--mode", "coupled", "--out", str(out_b)]) == 0
        diag = json.loads((out_a / "report.json").read_text())
        coup = json.loads((out_b / "report.json").read_text())
        assert diag["anchor_objective"] == coup["anchor_objective"]
        assert diag["unified_objective"] != coup["unified_objective"]

    def test_defaults_are_not_mutated_by_overrides(self, tmp_path: Path) -> None:
        before = json.dumps(PIKL_DEMO_DEFAULTS, sort_keys=True)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"lambda_anchor": 9.0}))
        assert main(
            ["pikl-demo", "--config", str(config_path), "--out", str(tmp_path / "o")]
        ) == 0
        assert json.dumps(PIKL_DEMO_DEFAULTS, sort_keys=True) == before


TRIAD_ARGV = ["simulate-triadic", "--mode", "b", "--steps", "5000"]


class TestCliProcess:
    """The CLI as its own process: ``main`` freezes the import-time heap once,
    and shutdown still flushes and closes everything."""

    def run_child(self, code: str) -> dict:
        result = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    def test_first_main_freezes_the_heap_once(self, tmp_path: Path) -> None:
        # A fresh interpreter, so this test leaves the test process unfrozen.
        facts = self.run_child(f"""
import contextlib, gc, io, json
import citom, citom.cli
facts = {{"unreachable": gc.collect(), "before": gc.get_freeze_count()}}
with contextlib.redirect_stdout(io.StringIO()):
    for run in ("first", "second"):
        citom.cli.main({TRIAD_ARGV!r} + ["--out", {str(tmp_path)!r}])
        facts[run] = gc.get_freeze_count()
facts["enabled"] = gc.isenabled()
print(json.dumps(facts))
""")
        # The premise: the imports leave no garbage for the freeze to keep.
        assert facts["unreachable"] == 0 and facts["before"] == 0
        assert facts["first"] > 0 and facts["enabled"]
        assert facts["second"] == facts["first"]

    def test_library_leaves_the_collector_alone(self) -> None:
        facts = self.run_child("""
import gc, json
import citom
from citom.io import columns_csv_text
log = citom.run_triadic(citom.TriadicConfig(mode="b", steps=2000))
reports = citom.measure_log(log)
b"".join(columns_csv_text(["x1"], [log.x1]))
print(json.dumps({"frozen": gc.get_freeze_count(), "enabled": gc.isenabled()}))
""")
        assert facts == {"frozen": 0, "enabled": True}

    def test_shutdown_flushes_and_closes_every_artifact(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        out = tmp_path / "child"
        result = subprocess.run(
            [sys.executable, "-m", "citom.cli", *TRIAD_ARGV, "--out", str(out)],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert result.returncode == 0, result.stderr
        same = tmp_path / "in-process"
        assert main([*TRIAD_ARGV, "--out", str(same)]) == 0
        table, wrote = capsys.readouterr().out.rsplit("\n", 2)[:2]
        assert result.stdout == f"{table}\n{wrote.replace(str(same), str(out))}\n"
        assert result.stdout.startswith("tau  joint_tdmi")
        assert not list(out.glob("*.tmp"))
        names = ["episode.csv", "series.csv", "measures.csv", "measures.json"]
        assert sorted(path.name for path in out.iterdir()) == sorted(names)
        for name in names:
            assert (out / name).read_bytes() == (same / name).read_bytes(), name

    def test_failing_run_exits_one_with_one_error_line(self, tmp_path: Path) -> None:
        result = subprocess.run(
            [sys.executable, "-m", "citom.cli", "measure", "--input",
             str(tmp_path / "missing.csv"), "--out", str(tmp_path / "out")],
            env=child_env(), capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "config",
        [
            {"q_values": [[1e308, -1e308]]},
            {"lambda_anchor": 1e-320},
            # The anchor rules out the best action by 1000 nats.
            {"q_values": [[1000.0, 0.0]], "anchor_policy": [[0.0, 1.0]]},
        ],
        ids=["q_values", "lambda_anchor", "unsupported_best_action"],
    )
    def test_extreme_finite_pikl_config_runs_without_warnings(
        self, tmp_path: Path, config: dict
    ) -> None:
        # A child without the test run's warning filters: nothing reaches stderr.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        result = subprocess.run(
            [sys.executable, "-m", "citom.cli", "pikl-demo", "--config", str(config_path),
             "--out", str(tmp_path / "out")],
            env=child_env(), capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stderr == ""


class TestCliFailureModes:
    def test_usage_errors_exit_two(self, tmp_path: Path, capsys) -> None:
        cases = [
            [],
            ["simulate-triadic", "--mode", "z", "--out", str(tmp_path)],
            ["simulate-triadic", "--mode", "a"],
            ["simulate-triadic", "--mode", "a", "--taus", "1,x", "--out", str(tmp_path)],
            ["simulate-triadic", "--mode", "a", "--steps", "1", "--out", str(tmp_path)],
            ["simulate-triadic", "--mode", "a", "--taus", "0", "--out", str(tmp_path)],
            ["simulate-mp", "--algo", "9", "--out", str(tmp_path)],
            ["simulate-triadic", "--mode", "a", "--seed", "-1", "--out", str(tmp_path)],
            ["simulate-mp", "--algo", "0", "--seed", "-1", "--out", str(tmp_path)],
            ["no-such-command"],
        ]
        for argv in cases:
            assert main(argv) == 2, argv
        capsys.readouterr()

    def test_measure_lag_longer_than_series_exits_two(
        self, tmp_path: Path, capsys
    ) -> None:
        path = write_series(tmp_path, "x\n0\n1\n")
        code = main(
            ["measure", "--input", str(path), "--taus", "5", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("tau", ["0", "-1"])
    def test_measure_non_positive_lag_exits_two(
        self, tmp_path: Path, capsys, tau: str
    ) -> None:
        path = write_series(tmp_path, "x\n0\n1\n0\n1\n0\n")
        code = main(
            ["measure", "--input", str(path), "--taus", tau, "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert f"lags must be >= 1, got {tau}" in capsys.readouterr().err

    def test_missing_input_exits_one(self, tmp_path: Path, capsys) -> None:
        code = main(
            [
                "measure",
                "--input", str(tmp_path / "absent.csv"),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_input_exits_one_with_line_number(
        self, tmp_path: Path, capsys
    ) -> None:
        path = write_series(tmp_path, "x,y\n0,nope\n")
        code = main(
            ["measure", "--input", str(path), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("data", "message"),
        [
            (b"# alphabet_size: 2,2\na,\xffb\n0,1\n", "line 2: not valid UTF-8"),
            (b"a,b\n0,\xff\n1,1\n", "line 2: not valid UTF-8"),
            (
                b"a,b\n" + b"0,1\n" * (BLOCK_ROWS + 3) + b"1,1\xff\n0,0\n",
                f"line {BLOCK_ROWS + 5}: not valid UTF-8",
            ),
            # Errors keep file order.
            (b"a,b\n0,1\n0\n1,\xff\n", "line 3: expected 2 fields, got 1"),
        ],
        ids=["header", "first row", "past the first block", "after a bad row"],
    )
    def test_invalid_utf8_names_its_line(
        self, tmp_path: Path, capsys, data: bytes, message: str
    ) -> None:
        path = tmp_path / "series.csv"
        path.write_bytes(data)
        code = main(["measure", "--input", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_pikl_config_exits_one(self, tmp_path: Path, capsys) -> None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"no_such_key": 1}))
        code = main(
            ["pikl-demo", "--config", str(config_path), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err
        config_path.write_text("{not json")
        code = main(
            ["pikl-demo", "--config", str(config_path), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        for override, key in [
            ({"state": 5}, "state"),
            ({"lambda_anchor": None}, "lambda_anchor"),
            ({"type_labels": 3}, "type_labels"),
            ({"q_values": [[1.0, 0.0], [1.0, 0.0]]}, "q_values"),
            ({"lambda_anchor": float("nan")}, "lambda_anchor"),
            ({"prior": [float("nan"), 1.0]}, "prior"),
            ({"lambda_tom": float("inf")}, "lambda_tom"),
            ({"speaker_utility": [[float("nan"), 0.0], [0.0, 1.0]]}, "speaker_utility"),
            ({"rewards": [[float("nan"), 0.0]]}, "rewards"),
            ({"q_values": [[float("nan"), 0.0]]}, "q_values"),
            ({"state": 0.7}, "state"),
        ]:
            capsys.readouterr()
            config_path.write_text(json.dumps(override))
            code = main(
                ["pikl-demo", "--config", str(config_path), "--out", str(tmp_path / "o")]
            )
            assert code == 1, override
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and f"'{key}'" in err, err

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"prior": ["0.5", "0.5"]}, "config key 'prior': expected a number, got '0.5'"),
            ({"prior": [0.5, True]}, "config key 'prior': expected a number, got True"),
            ({"prior": None}, "config key 'prior': expected a number, got None"),
            ({"channel": [[0.8, 0.2], [0.2, "0.8"]]},
             "config key 'channel': expected a number, got '0.8'"),
            ({"rewards": [[False, 0.0]]}, "config key 'rewards': expected a number, got False"),
            ({"lambda_tom": "2"}, "config key 'lambda_tom': expected a number, got '2'"),
            ({"lambda_anchor": True}, "config key 'lambda_anchor': expected a number, got True"),
            ({"state": True}, "config key 'state': expected a number, got True"),
            ({"state": "0"}, "config key 'state': expected a number, got '0'"),
        ],
        ids=["string prior", "boolean in prior", "null prior", "string in channel",
             "boolean reward", "string lambda", "boolean lambda", "boolean state",
             "string state"],
    )
    def test_numbers_must_be_json_numbers(
        self, tmp_path: Path, capsys, override: dict, message: str
    ) -> None:
        # ``float`` and numpy would read "0.5" as 0.5 and true as 1.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(override))
        code = main(["pikl-demo", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "labels",
        ["ab", {"aligned": 1, "adversarial": 2}, "", [1, 2], ["aligned", 2], 3],
        ids=["string", "dict", "empty string", "numbers", "mixed", "number"],
    )
    def test_type_labels_must_be_null_or_strings(
        self, tmp_path: Path, capsys, labels
    ) -> None:
        # A string or a dict would be taken apart into labels; only JSON
        # null or a list of strings names the types.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"type_labels": labels}))
        code = main(["pikl-demo", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: config key 'type_labels': must be null or a list of strings, "
            f"got {labels!r}\n"
        )

    @pytest.mark.parametrize("labels", [None, ["a", "b"]], ids=["null", "strings"])
    def test_type_labels_null_or_strings_run(self, tmp_path: Path, labels) -> None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"type_labels": labels}))
        out = tmp_path / "o"
        assert main(["pikl-demo", "--config", str(config_path), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["config"]["type_labels"] == labels

    @pytest.mark.parametrize("agents", [40, 64])
    def test_alphabet_too_large_exits_one(
        self, tmp_path: Path, capsys, agents: int
    ) -> None:
        rows = "\n".join(",".join(str((t + i) % 2) for i in range(agents)) for t in range(20))
        header = ",".join(f"a{i}" for i in range(agents))
        path = write_series(
            tmp_path, f"# alphabet_size: {','.join(['2'] * agents)}\n{header}\n{rows}\n"
        )
        code = main(["measure", "--input", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1 and "too large" in captured.err
        assert captured.err.count("\n") == 1

    def test_out_of_memory_exits_one(
        self, tmp_path: Path, capsys, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr("citom.cli.excess_tdmi", exhausted)
        path = write_series(tmp_path, "x\n0\n1\n0\n1\n")
        code = main(["measure", "--input", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_help_exits_zero(self, capsys) -> None:
        assert main(["--help"]) == 0
        assert "simulate-triadic" in capsys.readouterr().out
