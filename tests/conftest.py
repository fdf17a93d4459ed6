"""Shared test references and fixtures.

The references recount by routes the engines do not take, so they live here
rather than in the package:

- elementary_divisors_via_minors is the textbook route to the invariant
  factors: d_k is the gcd of all k x k minors, d_0 = 1, and the k-th divisor
  is d_k / d_{k-1} while d_k is nonzero.  It shares nothing with the Smith
  elimination but the Bareiss determinant, and it forms
  C(rows + cols, rows) - 1 minors, so tests keep it to small matrices.
- rank reduces the rows to Hermite form, avoiding the Smith routine.
- ker_psi_order_bruteforce lists the stacked cokernel's classes and tests
  blockwise membership one by one.
- conjugacy_class_count sweeps the conjugation orbits of a finite group.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import gcd

import pytest

from coincidence_kit import exact_linalg
from coincidence_kit.abelian import AbelianSystem, stacked_difference
from coincidence_kit.cardinal import Cardinal
from coincidence_kit.exact_linalg import (
    IntMatrix,
    determinant,
    enumerate_cokernel,
    hermite_basis,
    lattice_coordinates,
)
from coincidence_kit.finite import FiniteGroup


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


def rank(m: IntMatrix) -> int:
    """Rank over the rationals, by Hermite reduction of the rows."""
    return len(hermite_basis(m.iter_rows(), m.cols))


def ker_psi_order_bruteforce(system: AbelianSystem, cap: int = 1_000_000) -> Cardinal:
    """|ker Psi| by listing the residue classes of the stacked cokernel and
    testing blockwise membership directly.  An infinite cokernel raises
    ValueError from the listing and more than cap classes raise
    SizeCapError; no Smith form is computed."""
    classes = enumerate_cokernel(stacked_difference(system), cap=cap)
    n = system.target_rank
    base = system.homs[0]
    block_bases = []
    for h in system.homs[1:]:
        diff = h - base
        block_bases.append(hermite_basis((diff.column(j) for j in range(diff.cols)), n))
    count = sum(
        all(
            lattice_coordinates(basis, rep[j * n : (j + 1) * n]) is not None
            for j, basis in enumerate(block_bases)
        )
        for rep in classes
    )
    return Cardinal(count)


def conjugacy_class_count(g: FiniteGroup) -> int:
    """Number of conjugacy classes, by a direct orbit sweep (no twisting)."""
    visited = [False] * g.order
    count = 0
    for x in range(g.order):
        if visited[x]:
            continue
        count += 1
        for z in range(g.order):
            visited[g.mul(g.mul(z, x), g.inv(z))] = True
    return count


def count_kernel_calls(monkeypatch, *names) -> Counter:
    """Wrap each of exact_linalg's functions names to count its calls in the
    returned Counter.  The Smith loop counts as "_smith_divisors" when it
    runs without transforms and as "_smith_divisors with t" when it is
    given t and tracks them."""
    calls = Counter()
    for name in names:
        original = getattr(exact_linalg, name)
        if name == "_smith_divisors":

            def counting(rows, t=None, _original=original):
                calls["_smith_divisors" if t is None else "_smith_divisors with t"] += 1
                return _original(rows, t)

        else:

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

        monkeypatch.setattr(exact_linalg, name, counting)
    return calls


@pytest.fixture
def doubled_last_divisor(monkeypatch):
    """Make the Smith loop, when it tracks transforms, scale the row of s of
    its last divisor by 2 and double that divisor, so d doubles with it:
    s @ m @ t == d and the divisor chain still hold, but det s is +-2 and
    the last divisor is twice too big."""
    original = exact_linalg._smith_divisors

    def doubled(rows, t=None):
        divisors = original(rows, t)
        if t is not None and divisors:
            r = len(divisors) - 1
            rows[r] = [2 * x for x in rows[r]]
            divisors = divisors[:r] + (2 * divisors[r],)
        return divisors

    monkeypatch.setattr(exact_linalg, "_smith_divisors", doubled)
