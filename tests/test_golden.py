"""Golden CLI outputs: stdout, stderr and exit code of compute --trace,
compute --oracle --trace and check --trace, in structured format, on every
shipped problem file, compared byte for byte.

A change meant to leave behaviour alone must leave these files alone.  A
change that alters printed output on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and the diff of tests/golden/ shows exactly what moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from coincidence_kit import cli
from golden_cases import MODES, PROBLEM_FILES

GOLDEN = Path(__file__).resolve().parent / "golden"


def capture(path: Path, mode: str) -> dict:
    """One in-process run; stdout and stderr as lists of lines, so that
    joining them with newlines gives back the exact bytes."""
    command, *flags = MODES[mode]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(path), *flags, "--format", "structured"])
    return {
        "exit": code,
        "stdout": out.getvalue().split("\n"),
        "stderr": err.getvalue().split("\n"),
    }


def capture_all(path: Path) -> dict:
    return {mode: capture(path, mode) for mode in MODES}


def test_every_problem_has_a_golden_file():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == [p.name for p in PROBLEM_FILES]


@pytest.mark.parametrize("path", PROBLEM_FILES, ids=lambda p: p.stem)
@pytest.mark.parametrize("mode", list(MODES))
def test_output_matches_golden(path, mode):
    expected = json.loads((GOLDEN / path.name).read_text(encoding="utf-8"))[mode]
    assert capture(path, mode) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for path in PROBLEM_FILES:
        text = json.dumps(capture_all(path), indent=1, sort_keys=True) + "\n"
        (GOLDEN / path.name).write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN.name}/{path.name}", file=sys.stderr)
