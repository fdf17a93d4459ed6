"""Pinned Smith transforms: s, t and d of about forty seeded matrices, from
the Smith loop run with its transforms (_smith_with_transforms).

The values in smith_transforms.json come from _smith_divisors given t: each
row carries its row of s and the column operations act on the columns of t.
They must not move unnoticed: central_extension_data's adapted basis reads
t, and a change of pivot order or of the operations the loop records would
change it without changing any divisor.
The cases cover empty, zero, singular square, nonsingular square, wide, tall
and unimodular inputs.  A change meant to alter the transforms on purpose
regenerates the file with

    PYTHONPATH=src python tests/test_smith_transforms.py

and the diff shows exactly which transforms moved.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from coincidence_kit.exact_linalg import IntMatrix, _smith_with_transforms, determinant

PINS = Path(__file__).resolve().parent / "smith_transforms.json"


def _entries(rng, rows, cols, bound):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def cases():
    """(name, rows) for every pinned matrix, built from one seed."""
    rng = random.Random(1313)
    out = [
        ("empty 0x0", []),
        ("empty 0x3", None),
        ("empty 3x0", [[], [], []]),
        ("zero 1x1", [[0]]),
        ("zero 2x3", [[0] * 3 for _ in range(2)]),
        ("zero 3x2", [[0] * 2 for _ in range(3)]),
        ("zero 3x3", [[0] * 3 for _ in range(3)]),
    ]
    for n in (2, 3, 4, 5, 6, 7):
        rows = _entries(rng, n - 1, n, 12)
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        rows.insert(rng.randrange(n), [a * x + b * y for x, y in zip(rows[0], rows[-1])])
        out.append((f"singular {n}x{n}", rows))
    for n in (1, 2, 3, 4, 5, 6, 7, 8):
        while True:
            rows = _entries(rng, n, n, 15)
            if determinant(IntMatrix(rows)):
                break
        out.append((f"nonsingular {n}x{n}", rows))
    for r, c in ((1, 3), (2, 5), (3, 4), (4, 7), (5, 6), (3, 8)):
        out.append((f"wide {r}x{c}", _entries(rng, r, c, 20)))
    for r, c in ((3, 1), (5, 2), (4, 3), (7, 4), (6, 5), (8, 3)):
        out.append((f"tall {r}x{c}", _entries(rng, r, c, 20)))
    for n in (2, 3, 4, 5, 6, 8):
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(2 * n + 6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                m[i] = [-x for x in m[i]]
            else:
                q = rng.randint(-3, 3)
                m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        out.append((f"unimodular {n}x{n}", m))
    return out


def _matrix(rows):
    return IntMatrix([], cols=3) if rows is None else IntMatrix(rows)


def decomposition(rows) -> dict:
    m = _matrix(rows)
    res = _smith_with_transforms(m)
    return {
        "divisors": list(res.divisors),
        "s": res.s.to_lists(),
        "t": res.t.to_lists(),
        "d": res.d.to_lists(),
    }


def _load():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("name, rows", cases(), ids=[name for name, _ in cases()])
def test_transforms_are_pinned(name, rows):
    pinned = _load()[name]
    assert pinned["m"] == _matrix(rows).to_lists()
    got = decomposition(rows)
    assert got == {key: pinned[key] for key in got}


def test_every_case_is_pinned():
    assert sorted(_load()) == sorted(name for name, _ in cases())


if __name__ == "__main__":
    pins = {
        name: {"m": _matrix(rows).to_lists(), **decomposition(rows)}
        for name, rows in cases()
    }
    # one case per line, so that a diff names the cases that moved
    lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(pins.items()))
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
