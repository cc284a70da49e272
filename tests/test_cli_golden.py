"""Byte-for-byte golden outputs of the command-line interface.

Every subcommand is run through `cli.run` in each output format, and its
stdout and exit status are compared with the files under tests/golden/
(named `<case>.<format>`).  A change to any rendered byte fails here.

To record the named cases after a deliberate output change, or a new case:

    PYTHONPATH=src python tests/test_cli_golden.py --record [CASE ...]

With no case named, every case is re-recorded.  An unknown case name is
refused before anything is written.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from kreckstolz.cli import run

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("text", "tsv", "json")
R19513 = ("-r", "19513", "--s1=-5/14", "--s2=-204887/234156", "--s3=-58543/117078")

# case name -> (argv without --format, expected exit status)
CASES = {
    "invariants_sphere": (("invariants", "sphere:2,-1"), 0),
    "invariants_circle_flags": (("invariants", "--family", "circle", "-t", "1", "-a", "1", "-b", "1"), 0),
    "classify_fixture_circle": (("classify", "eschenburg:1,1,-2|0,0,0", "circle:1,1,1"), 0),
    "ediffeo_r3": (("ediffeo", "-r", "3", "--s1", "1/112", "--s2=-1/36", "--s3", "1/18"), 0),
    "ediffeo_r19513": (("ediffeo",) + R19513, 0),
    "ediffeo_r19513_reversing": (("ediffeo",) + R19513 + ("--orientation", "reversing"), 0),
    "match_sphere_period_r41": (("match", "--left", "fixtures", "--right", "sphere:r=41,start=0,stop=6888"), 0),
    "match_sphere_fixtures_r41": (
        ("match", "--left", "sphere:r=41,start=-7000,stop=7000", "--right", "fixtures"),
        0,
    ),
    "match_empty": (("match", "--left", "fixtures", "--right", "sphere:r=3,start=0,stop=2", "--ignore-pi4"), 0),
    "match_fixtures_circle_r17": (("match", "--left", "fixtures", "--right", "circle:r=17,bound=700"), 0),
    "match_circle_sphere_r17": (
        ("match", "--left", "circle:r=17,bound=8", "--right", "sphere:r=17,start=-100,stop=100"),
        0,
    ),
    "match_circle_sphere_r13": (
        ("match", "--left", "circle:r=13,bound=10", "--right", "sphere:r=13,start=0,stop=2184"),
        0,
    ),
    "match_circle_sphere_solved_r17": (
        ("match", "--left", "circle:r=17,bound=1", "--right", "sphere:r=17,start=0,stop=2856"),
        0,
    ),
    "match_sphere_next_period_r3": (
        ("match", "--left", "sphere:r=3,start=0,stop=60", "--right", "sphere:r=3,start=504,stop=564"),
        0,
    ),
    "tables_A": (("tables", "A"), 0),
    "tables_B": (("tables", "B"), 0),
    "enumerate_r12": (("enumerate", "--r-max", "12"), 0),
    "enumerate_r40": (("enumerate", "--r-max", "40"), 0),
}


def _golden_path(case: str, fmt: str) -> Path:
    return GOLDEN / f"{case}.{fmt}"


def _argv(case: str, fmt: str) -> list[str]:
    return list(CASES[case][0]) + ["--format", fmt]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, fmt, capsys):
    code = run(_argv(case, fmt))
    out = capsys.readouterr().out
    assert code == CASES[case][1]
    assert out == _golden_path(case, fmt).read_text(encoding="utf-8")


def _record(cases: list[str]) -> None:
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown golden case(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(set(cases) or CASES):
        expected = CASES[case][1]
        for fmt in FORMATS:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = run(_argv(case, fmt))
            if code != expected:
                raise SystemExit(f"{case} ({fmt}) exited {code}, expected {expected}")
            _golden_path(case, fmt).write_text(buffer.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_cli_golden.py --record [CASE ...]")
    _record(sys.argv[2:])
