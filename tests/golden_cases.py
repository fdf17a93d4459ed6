"""The shipped problems and CLI modes that tests/golden/ pins.

Kept free of pytest so that tests/output_digest.py, which replays the same
runs, works on any interpreter with only the package installed.
"""

from __future__ import annotations

from pathlib import Path

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
PROBLEM_FILES = sorted(PROBLEMS.glob("*.json"))
MODES = {
    "compute --trace": ["compute", "--trace"],
    "compute --oracle --trace": ["compute", "--oracle", "--trace"],
    "check --trace": ["check", "--trace"],
}
