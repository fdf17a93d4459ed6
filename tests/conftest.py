"""Shared test references and fixtures.

elementary_divisors_via_minors is the textbook route to the invariant
factors: d_k is the gcd of all k x k minors, d_0 = 1, and the k-th divisor
is d_k / d_{k-1} while d_k is nonzero.  It shares nothing with the Smith
elimination but the Bareiss determinant, and it forms
C(rows + cols, rows) - 1 minors, so tests keep it to small matrices.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

import pytest

from coincidence_kit import exact_linalg
from coincidence_kit.exact_linalg import IntMatrix, determinant


def elementary_divisors_via_minors(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors of m from gcds of its k x k minors."""
    divisors = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for row_idx in combinations(range(m.rows), k):
            for col_idx in combinations(range(m.cols), k):
                minor = IntMatrix([[m[i, j] for j in col_idx] for i in row_idx])
                g = gcd(g, determinant(minor))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return tuple(divisors)


@pytest.fixture
def doubled_last_divisor(monkeypatch):
    """Make the elimination, when it tracks transforms, scale the last
    nonzero row of both d and s by 2: s @ m @ t == d and the divisor chain
    still hold, but det s is +-2 and the last divisor is twice too big."""
    original = exact_linalg._eliminate

    def eliminate(a, s=None, t=None):
        divisors = original(a, s, t)
        if s is not None and divisors:
            r = len(divisors) - 1
            a[r] = [2 * x for x in a[r]]
            s[r] = [2 * x for x in s[r]]
            divisors = divisors[:r] + (2 * divisors[r],)
        return divisors

    monkeypatch.setattr(exact_linalg, "_eliminate", eliminate)
