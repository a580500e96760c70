"""Golden bytes: a small fixed run of every command, pinned by SHA-256.

Each case runs ``main(argv)`` inside a temporary working directory with
relative paths, so stdout (which names the files written) and
``measures.json`` (which records ``--input``) do not depend on where the
test runs.  Every artifact in the output directory and the captured
stdout are hashed and compared with digests recorded before the CSV
writers and parser were rewritten; a change to any of them is a change
to the program's output format.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from citom.cli import main

# A hand-written series: a plain comment, a blank line, a padded token,
# no alphabet declaration (so both alphabets are inferred).
MEASURE_INPUT = (
    "# hand-written series for the golden test\n"
    "p,q\n"
    "0,1\n"
    "\n"
    "1,2\n"
    "1, 0\n"
    "0,2\n"
    "1,1\n"
    "0,0\n"
    "1,2\n"
    "0,1\n"
)

CASES = {
    "triadic-a": (
        "simulate-triadic --mode a --steps 1000 --seed 3 --taus 1,2 --out out".split(),
        {
            "episode.csv": "bc652b02d1314f3542820e2a2d29448cd9eb85fd8950c91ab66d651ff46b73be",
            "measures.csv": "165a52dd32d861c0cd47bf2b3fcbf8323a77923a063c4c37f24e3b854869da2b",
            "measures.json": "57a223576f412f5db227b7afb8aed4d4705fab9dbe6f08ace9d9e12b05227e26",
            "series.csv": "002cbd4b6505aa995c5e5a5151df07cfdce694dfcb898d4a9c86a13b97312aba",
            "stdout": "bd4acf115ee4ae82cc7270f77a680681b9a73d604425567314dbd8fe717e0145",
        },
    ),
    "triadic-b": (
        "simulate-triadic --mode b --steps 5000 --delay 2 --seed 11 --taus 1,2,3 --out out".split(),
        {
            "episode.csv": "27086d4eba1a014071778973bbc6d48af06508c03ef396d511c1e4864a6317ef",
            "measures.csv": "c8f73ce1bfd5d38c60edcc23ac5f97b871201822bbe38c51e125cb0eda5181e8",
            "measures.json": "5c4ae2c80b95f98651ca3ad36bc7589e125a3c7df3203a55165728b10e053ac7",
            "series.csv": "5916bf213a0193e1337583f866e2ed4ef52d96c4d1b1187983f21a71b46ece8f",
            "stdout": "2445f2ade87c27ae97b5d84598a17f158caf8bc446e59816eb0b5aff81adba41",
        },
    ),
    "mp-algo0": (
        "simulate-mp --algo 0 --steps 4500 --seed 5 --taus 1 --out out".split(),
        {
            "episode.csv": "5e2ddb3050770b8535f9ad6719346363cf5c9a0e69b4bf544f78f7d3017ef115",
            "measures.csv": "f14dfa467dd3c45750871ad06cadc00cf4b7a521f40c9a2edefadeed9baa9595",
            "measures.json": "d6f931bb913ad3021a5cb6bf6b3647f215fe634c591e959695efb33c1d53578a",
            "series.csv": "21a1acc3bf32c1ae309eae037a16187ab084c11f800abd299a25890406c62676",
            "stdout": "c8e19bad845b7a0af0d85a6a5986a782da1c5b428aff3e445355ec3e6c44f78a",
        },
    ),
    "mp-algo1": (
        "simulate-mp --algo 1 --steps 600 --seed 6 --taus 1,2 --out out".split(),
        {
            "episode.csv": "3788792b7622ac6792ff54e6efd193dd68ea42b17a94dec34cc69daf1f92e874",
            "measures.csv": "4b405f76d5587417db17d121a5478d17f703d45dc52208e381bb8b3ea9b55417",
            "measures.json": "0b94ae749622f5cd13aa7b418879e5bcbabbce795cfa572d3e0df31be0da5ef7",
            "series.csv": "3d5475869aa6911e50a2e5e4ca7ed5c6be7b69a715d4d49e6e84ec38d435789a",
            "stdout": "3e134a6757607747d178d70983d6e788e2b28a228dc09fffd41e09bf951f37c5",
        },
    ),
    "mp-algo2": (
        "simulate-mp --algo 2 --steps 600 --seed 7 --taus 1,2 --out out".split(),
        {
            "episode.csv": "aaf0cd33ffc0e6aa4f88bc915b23333b65e86abc624a77555e0da60a3a0475bc",
            "measures.csv": "d65295c3a4de8463ba6cea6ca4277dd5b7289b32ef58582b95224c79be9cfa98",
            "measures.json": "667c6a6fbc022059f4352f2158ee5b141528b3afa3ea20b2679d5c9a7f62fe9f",
            "series.csv": "cbc8bb37081bd900d54299cc05b55ed1444cd79d03d7d57a448332ed8f2a7604",
            "stdout": "c6bee08429211d39191035747a8efd873d58ed7cd53324a096e5425b65458a5d",
        },
    ),
    "measure": (
        "measure --input input.csv --taus 1,2 --out out".split(),
        {
            "measures.csv": "4de2c6b1bf8c5343d571d36f99832aeccf499593210e0758093793b786224537",
            "measures.json": "feb4a9eb43c6c7cd7ebe3959f53678a6055fd9f02e8568bb2008512b06222234",
            "stdout": "a51e3a899008b80b9240bb4a2edfa1072c5d1f6a4a1f898c8b2e0a2638beec39",
        },
    ),
    "pikl-diagnostic": (
        "pikl-demo --out out".split(),
        {
            "report.json": "e2f0f7ae0e7a0ccc3f1615be2da361b8524aa7279a94b31e3e5852895074213a",
            "stdout": "fee063412706dd9062597b01340b1044deb7e56f4b208638777fdf7d7b8afe92",
        },
    ),
    "pikl-coupled": (
        "pikl-demo --mode coupled --out out".split(),
        {
            "report.json": "925b4bfda5cd2243b6afaa5e705f8018374e7754dc6b6229165e3d96ef078573",
            "stdout": "1f66db90c0d584317aefabc35becdf8306fbfff42a11ee94b4baf28205a3a795",
        },
    ),
}


def run_case(argv: list[str], tmp_path: Path, monkeypatch, capsys) -> dict[str, str]:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "input.csv").write_text(MEASURE_INPUT, encoding="utf-8")
    assert main(argv) == 0
    out = tmp_path / "out"
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }
    digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_and_stdout_match_golden_digests(
    case: str, tmp_path: Path, monkeypatch, capsys
) -> None:
    argv, expected = CASES[case]
    assert run_case(argv, tmp_path, monkeypatch, capsys) == expected
