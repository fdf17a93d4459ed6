"""Exact linear algebra: frozen worked values, plus dual-route property tests.

The gcd-of-minors reference (tests/conftest.py) and the brute-force cokernel
enumerator act as independent oracles for the elimination-based Smith form,
and sympy's invariant factors a third one where sympy is installed.  The
enumerator lists the Hermite box; a breadth-first closure checks that listing.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import coincidence_kit.exact_linalg as el
from coincidence_kit.abelian import AbelianSystem, stacked_difference
from coincidence_kit.cardinal import Cardinal, INFINITE, cardinal_product
from coincidence_kit.errors import (
    ConsistencyError,
    ContainmentError,
    ShapeError,
    SizeCapError,
)
from coincidence_kit.exact_linalg import (
    IntMatrix,
    certify_smith,
    cokernel_order,
    determinant,
    enumerate_cokernel,
    hermite_basis,
    kernel_basis,
    lattice_coordinates,
    lattice_index,
    smith_normal_form,
    unimodular_inverse,
)
from conftest import count_kernel_calls, elementary_divisors_via_minors, rank

WORKED = IntMatrix([[2, 4, 1], [2, 6, 2]])
# WORKED's rows, their sum and a zero column: rank 2 of 3 rows, so
# smith_normal_form reduces the Hermite rows of L + d * Z^3 for the gcd d of
# the 2 x 2 minors of its first two rows
DEFICIENT = IntMatrix([[2, 4, 1, 0], [2, 6, 2, 0], [4, 10, 3, 0]])


def bfs_cokernel(m, cap):
    """Reference enumeration of Z^rows modulo the column lattice of m: close
    {0} under unit steps, reducing each vector by the row-HNF basis."""
    n = m.rows
    basis = hermite_basis((m.column(j) for j in range(m.cols)), n)
    if len(basis) < n:
        raise ValueError("cokernel is infinite")
    if math.prod(basis[i][i] for i in range(n)) > cap:
        raise SizeCapError("over the cap")

    def reduce(vec):
        v = list(vec)
        for row in basis:
            p = next(j for j, x in enumerate(row) if x)
            q = v[p] // row[p]
            for j in range(n):
                v[j] -= q * row[j]
        return tuple(v)

    start = reduce([0] * n)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                for step in (1, -1):
                    w = reduce(v[:i] + (v[i] + step,) + v[i + 1 :])
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt
    return sorted(seen)


def random_matrix(rng, max_dim=6, lo=-20, hi=20, rows=None, cols=None):
    r = rows if rows is not None else rng.randint(1, max_dim)
    c = cols if cols is not None else rng.randint(1, max_dim)
    return IntMatrix([[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])


def random_unimodular(rng, n):
    """A unimodular matrix built from random elementary operations."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n + 6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            m[i] = [-x for x in m[i]]
        elif rng.random() < 0.2:
            m[i], m[j] = m[j], m[i]
        else:
            q = rng.randint(-3, 3)
            for c in range(n):
                m[i][c] += q * m[j][c]
    return IntMatrix(m)


def random_nonsingular(rng, n, lo=-9, hi=9):
    while True:
        m = random_matrix(rng, lo=lo, hi=hi, rows=n, cols=n)
        if determinant(m):
            return m


class TestCardinal:
    def test_finite_arithmetic(self):
        assert Cardinal.finite(6) * Cardinal.finite(7) == Cardinal.finite(42)
        assert Cardinal.finite(10).divide_exact(Cardinal.finite(2)) == Cardinal.finite(5)
        with pytest.raises(ValueError):
            Cardinal.finite(10).divide_exact(Cardinal.finite(3))

    def test_infinite_absorbs_nonzero(self):
        assert INFINITE * Cardinal.finite(5) == INFINITE
        assert Cardinal.finite(5) * INFINITE == INFINITE
        assert INFINITE * INFINITE == INFINITE

    def test_zero_empties_even_infinite_products(self):
        assert INFINITE * Cardinal.finite(0) == Cardinal.finite(0)

    def test_ordering_puts_infinite_on_top(self):
        assert Cardinal.finite(10**100) < INFINITE
        assert INFINITE >= Cardinal.finite(0)
        assert Cardinal.finite(3) <= Cardinal.finite(4)

    def test_no_negative_cardinals(self):
        with pytest.raises(ValueError):
            Cardinal.finite(-1)

    def test_json_round_trip(self):
        assert Cardinal.from_json(Cardinal.finite(9).to_json()) == Cardinal.finite(9)
        assert Cardinal.from_json(INFINITE.to_json()) == INFINITE

    def test_product_helper(self):
        vals = [Cardinal.finite(2), Cardinal.finite(3), Cardinal.finite(5)]
        assert cardinal_product(vals) == Cardinal.finite(30)
        assert cardinal_product([]) == Cardinal.finite(1)

    def test_divides(self):
        assert Cardinal.finite(9).divides(INFINITE)
        assert not Cardinal.finite(9).divides(Cardinal.finite(120))
        assert Cardinal.finite(2).divides(Cardinal.finite(10))


class TestSmithWorkedValues:
    def test_worked_two_by_three(self):
        res = smith_normal_form(WORKED)
        assert res.divisors == (1, 2)
        assert cokernel_order(WORKED) == Cardinal.finite(2)

    def test_identity(self):
        res = smith_normal_form(IntMatrix.identity(3))
        assert res.divisors == (1, 1, 1)

    def test_frozen_from_minors_oracle(self):
        # frozen after computing with elementary_divisors_via_minors:
        # gcd of entries 2, gcd of 2x2 minors |det| = 20 -> (2, 10)
        m = IntMatrix([[4, 6], [2, 8]])
        assert elementary_divisors_via_minors(m) == (2, 10)
        assert smith_normal_form(m).divisors == (2, 10)

    def test_zero_matrix(self):
        assert smith_normal_form(IntMatrix.zeros(2, 3)).divisors == ()

    def test_cokernel_order_read_off_the_result(self):
        assert smith_normal_form(WORKED).cokernel_order() == Cardinal.finite(2)
        assert smith_normal_form(IntMatrix.zeros(2, 3)).cokernel_order() == INFINITE
        assert smith_normal_form(IntMatrix([], cols=0)).cokernel_order() == Cardinal.finite(1)

    def test_transforms_reconstruct(self):
        # WORKED has full row rank, so smith_normal_form leaves its
        # transforms unset; the transform route is read directly
        res = el._smith_with_transforms(WORKED)
        assert res.divisors == smith_normal_form(WORKED).divisors
        assert (res.s @ WORKED) @ res.t == res.d
        assert abs(determinant(res.s)) == 1
        assert abs(determinant(res.t)) == 1


class TestSmithCertificate:
    def test_certifies_large_shapes(self):
        rng = random.Random(4848)
        for rows, cols in ((16, 16), (48, 48), (20, 26), (26, 20)):
            m = random_matrix(rng, lo=-4, hi=4, rows=rows, cols=cols)
            start = time.perf_counter()
            res = certify_smith(m)
            assert time.perf_counter() - start < 2
            assert res.divisors == smith_normal_form(m).divisors
            assert (res.s @ m) @ res.t == res.d
            if rows == cols:
                assert math.prod(res.divisors) == abs(determinant(m))

    def test_certifies_rank_deficient_and_empty(self):
        for m in (IntMatrix.zeros(3, 4), IntMatrix([[1, 2], [2, 4]]), IntMatrix([], cols=0)):
            assert certify_smith(m).divisors == smith_normal_form(m).divisors

    def test_non_unimodular_transform_is_refused(self, doubled_last_divisor):
        for m, doubled in ((WORKED, (1, 4)), (IntMatrix([[4, 6], [2, 8]]), (2, 20))):
            res = el._smith_with_transforms(m)
            assert res.divisors == doubled
            assert (res.s @ m) @ res.t == res.d
            with pytest.raises(ConsistencyError, match="not unimodular"):
                certify_smith(m)

    def test_divisors_must_be_the_diagonal_of_d(self, monkeypatch):
        # d is built from the divisors, so doubled divisors miss s @ m @ t
        original = el._smith_divisors

        def doubled(rows, t=None):
            return tuple(2 * x for x in original(rows, t))

        monkeypatch.setattr(el, "_smith_divisors", doubled)
        with pytest.raises(ConsistencyError, match="s@m@t != d"):
            certify_smith(DEFICIENT)

    def test_every_divisor_must_be_positive(self, monkeypatch):
        original = el._smith_divisors

        def negated(rows, t=None):
            divisors = original(rows, t)
            r = len(divisors) - 1
            rows[r] = [-x for x in rows[r]]  # the row of s of that divisor
            return divisors[:r] + (-divisors[r],)

        monkeypatch.setattr(el, "_smith_divisors", negated)
        with pytest.raises(ConsistencyError, match="chain"):
            certify_smith(DEFICIENT)  # s @ m @ t == d holds with d = [1, -2]


class TestSmithProperties:
    def test_against_minors_oracle_and_invariants(self):
        rng = random.Random(20260816)
        for _ in range(100):
            m = random_matrix(rng)
            res = smith_normal_form(m)
            assert res.divisors == elementary_divisors_via_minors(m)
            full = el._smith_with_transforms(m)
            assert full.divisors == res.divisors
            assert (full.s @ m) @ full.t == full.d
            assert abs(determinant(full.s)) == 1
            assert abs(determinant(full.t)) == 1
            assert all(d > 0 for d in res.divisors)
            for a, b in zip(res.divisors, res.divisors[1:]):
                assert b % a == 0

    def test_rank_matches_divisor_count(self):
        rng = random.Random(7)
        for _ in range(200):
            m = random_matrix(rng, max_dim=5, lo=-9, hi=9)
            assert rank(m) == len(smith_normal_form(m).divisors)

    def test_square_cokernel_is_absolute_determinant(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 4)
            m = random_matrix(rng, lo=-9, hi=9, rows=n, cols=n)
            det = determinant(m)
            order = cokernel_order(m)
            if det == 0:
                assert order == INFINITE
            else:
                assert order == Cardinal.finite(abs(det))


class TestLazyTransforms:
    """An input of full row rank gets its divisors without transforms, from
    the index's Bareiss pass and, when gcd(g, D) > 1, the Smith loop without
    t on an R x R Hermite basis, checked against |det m| when square or its
    Hermite index when wide; its s, t and d stay None.  An input of rank
    rho short of full row rank runs the loop without t on the R x R
    Hermite rows modulo a gcd of rho x rho minors, and only certify_smith
    runs the loop with t.  The divisors are computed, and every check runs,
    at their first read: the order comes from the pass alone."""

    @pytest.fixture
    def with_transforms(self, monkeypatch):
        original = el._smith_with_transforms
        calls = []

        def counting(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(el, "_smith_with_transforms", counting)
        return calls

    @pytest.fixture
    def divisor_kernel(self, monkeypatch):
        """(rows, width, tracked) of each Smith loop run; tracked when given
        t, and then each row carries its row of s past the matrix entries."""
        original = el._smith_divisors
        calls = []

        def counting(rows, t=None):
            calls.append((len(rows), len(rows[0]), t is not None))
            return original(rows, t)

        monkeypatch.setattr(el, "_smith_divisors", counting)
        return calls

    def test_nonsingular_square_leaves_transforms_unset(self, with_transforms, divisor_kernel):
        m = random_nonsingular(random.Random(3), 7)
        doubled = _scaled(m, 2)
        for a, eliminated in ((m, []), (doubled, [(7, 7, False)])):
            del divisor_kernel[:]
            res = smith_normal_form(a)
            assert res.cokernel_order() == Cardinal.finite(abs(determinant(a)))
            assert (with_transforms, divisor_kernel) == ([], [])
            # gcd(g, D) is 1 for m; 2 divides every divisor of 2m, so the
            # first read reduces the 7 x 7 Hermite basis modulo gcd(g, D)
            assert math.prod(res.divisors) == abs(determinant(a))
            assert (res.s, res.t, res.d) == (None, None, None)
            assert (with_transforms, divisor_kernel) == ([], eliminated)
        # kernel_basis triangulates the graph lattice and runs no Smith loop
        del divisor_kernel[:]
        assert kernel_basis(m) == []
        assert (with_transforms, divisor_kernel) == ([], [])

    def test_full_row_rank_wide_leaves_transforms_unset(self, with_transforms, divisor_kernel):
        m = random_matrix(random.Random(4), lo=-4, hi=4, rows=6, cols=9)
        tripled = _scaled(m, 3)
        # the loop runs on the 6 x 6 Hermite basis, never on the 6 x 9 input
        for a, eliminated in ((m, []), (tripled, [(6, 6, False)])):
            del divisor_kernel[:]
            res = smith_normal_form(a)
            assert res.cokernel_order() == cokernel_order(a) != INFINITE
            assert (with_transforms, divisor_kernel) == ([], [])
            assert Cardinal.finite(math.prod(res.divisors)) == res.cokernel_order()
            assert (res.s, res.t, res.d) == (None, None, None)
            assert (with_transforms, divisor_kernel) == ([], eliminated)

    def test_rank_deficient_input_reduces_its_hermite_rows(
        self, monkeypatch, with_transforms, divisor_kernel
    ):
        # the read's row-dropping pass keeps DEFICIENT's first 2 rows, whose
        # 2 x 2 minors have gcd d = 2 = d_1 d_2, and the loop reduces the
        # 3 x 3 Hermite rows of L + 2 * Z^3 without t, ending in d; doubled,
        # d = 8.  No exact Hermite basis and no second Smith form
        moduli = []
        original = el._hermite_rows

        def recording(vectors, width, d):
            moduli.append(d)
            return original(vectors, width, d)

        monkeypatch.setattr(el, "_hermite_rows", recording)
        others = count_kernel_calls(monkeypatch, "hermite_basis", "smith_normal_form")
        for a, divisors, d in ((DEFICIENT, (1, 2), 2), (_scaled(DEFICIENT, 2), (2, 4), 8)):
            del divisor_kernel[:]
            res = smith_normal_form(a)
            assert (moduli, divisor_kernel) == ([], [])
            assert res.divisors == divisors
            assert (res.s, res.t, res.d) == (None, None, None)
            assert (with_transforms, divisor_kernel) == ([], [(3, 3, False)])
            assert moduli.pop() == d and not moduli
        assert others == {}

    @pytest.mark.parametrize(
        "m",
        # singular, zero, and short of full row rank wide and, through its
        # transpose, tall
        [
            IntMatrix([[1, 2], [2, 4]]),
            IntMatrix.zeros(3, 3),
            DEFICIENT,
            DEFICIENT.transpose(),
        ],
    )
    def test_singular_and_non_square_inputs_take_no_transforms(self, with_transforms, m):
        res = smith_normal_form(m)
        assert with_transforms == []
        assert (res.s, res.t, res.d) == (None, None, None)
        assert res.divisors == el._smith_with_transforms(m).divisors

    def test_full_rank_chain_behind_a_dependent_row_is_refused(self, monkeypatch):
        # an index pass that stops at a row that is not dependent sends a
        # nonsingular matrix to the rank-deficient route, whose row-dropping
        # pass then keeps all its rows; the square index alone is broken, so
        # the wide Hermite rows of DEFICIENT still find their index.  The
        # refusal comes at the first read of the divisors.
        original = el._column_index
        monkeypatch.setattr(
            el,
            "_column_index",
            lambda a, **kwargs: (0, 0, None) if a.is_square else original(a, **kwargs),
        )
        res = smith_normal_form(IntMatrix([[2, 0], [0, -6]]))
        with pytest.raises(ConsistencyError, match="rank 2 is not below the 2 rows"):
            res.divisors
        assert smith_normal_form(DEFICIENT).divisors == (1, 2)

    def test_a_modulus_below_the_minor_gcd_is_refused(self, monkeypatch):
        # halving the last row of the row-dropping pass halves the minor gcd
        # of 2 * DEFICIENT from 8 to 4, no multiple of d_1 d_2 = 8: the loop
        # modulo 4 ends in 4, but (2, 4) multiplies to no divisor of 4.  The
        # refusal comes at every read of the divisors, not at the order's
        original = el._bareiss

        def halving(a, **kwargs):
            result = original(a, **kwargs)
            if kwargs.get("drop"):
                a[-1] = [x // 2 for x in a[-1]]
            return result

        monkeypatch.setattr(el, "_bareiss", halving)
        res = smith_normal_form(_scaled(DEFICIENT, 2))
        assert res.cokernel_order() == INFINITE
        for _ in range(2):
            with pytest.raises(ConsistencyError, match=r"\(2, 4\) .* divisor of the minor gcd 4"):
                res.divisors

    def test_unimodular_inverse_triangulates_once(self, monkeypatch, divisor_kernel):
        # one Hermite basis of the 8 graph vectors, of width 16; no Smith loop
        triangulations = counting_calls(monkeypatch, "hermite_basis")
        m = random_unimodular(random.Random(8), 8)
        assert m @ unimodular_inverse(m) == IntMatrix.identity(8)
        assert (triangulations, divisor_kernel) == ([(8, 16)], [])

    @pytest.mark.parametrize(
        "chain, complaint",
        [
            ((2, 12), "det"),  # a chain of 2 divisors, but 24 != |det| = 12
            ((1, 12), "gcd"),  # product 12, but the entries have gcd 2
            ((12,), "divisors for a nonsingular"),
            ((4, 3), "chain"),
        ],
    )
    def test_wrong_chain_is_refused(self, monkeypatch, chain, complaint):
        monkeypatch.setattr(el, "_certified_divisors", lambda a, index, g, basis: chain)
        res = smith_normal_form(IntMatrix([[2, 0], [0, -6]]))
        assert res.cokernel_order() == Cardinal.finite(12)
        for _ in range(2):  # refused at every read, not only the first
            with pytest.raises(ConsistencyError, match=complaint):
                res.divisors

    @pytest.mark.parametrize(
        "chain, complaint",
        [
            ((2, 12), "Hermite index"),  # 24 != the Hermite index 12
            ((1, 12), "gcd"),  # product 12, but the entries have gcd 2
            ((12,), "divisors for a full-rank"),
            ((4, 3), "chain"),
        ],
    )
    def test_wrong_wide_chain_is_refused(self, monkeypatch, chain, complaint):
        m = IntMatrix([[2, 0, 4], [0, -6, 0]])
        assert smith_normal_form(m).divisors == (2, 6)
        monkeypatch.setattr(el, "_certified_divisors", lambda a, index, g, basis: chain)
        res = smith_normal_form(m)
        assert res.cokernel_order() == Cardinal.finite(12)
        with pytest.raises(ConsistencyError, match=complaint):
            res.divisors

    @pytest.mark.parametrize(
        "m", [IntMatrix([[2, 0], [0, -6]]), IntMatrix([[2, 0, 4], [0, -6, 0]])], ids=["square", "wide"]
    )
    def test_a_lying_certificate_waits_for_the_first_read(self, monkeypatch, m):
        # the order and the Hermite basis come from the index pass, so
        # reading them runs no certificate; the lie (1, 12), whose first
        # divisor is not the entries' gcd 2, is refused at the divisors'
        # first read
        calls = []

        def lying(a, index, g, basis):
            calls.append(index)
            return (1,) * (a.rows - 1) + (index,)

        monkeypatch.setattr(el, "_certified_divisors", lying)
        res = smith_normal_form(m)
        assert res.cokernel_order() == Cardinal.finite(12)
        assert math.prod(row[0] for row in res._lattice_basis()) == 12
        assert calls == []
        with pytest.raises(ConsistencyError, match="not the gcd of the entries"):
            res.divisors
        assert calls == [12]


def counting_calls(monkeypatch, name):
    """Replace exact_linalg's name by a wrapper; return the list of the
    shapes (rows, cols) of the first argument of each call, an IntMatrix or
    a list of rows."""
    original = getattr(el, name)
    calls = []

    def counting(a, *rest, **kwargs):
        if isinstance(a, IntMatrix):
            calls.append((a.rows, a.cols))
        else:
            calls.append((len(a), len(a[0]) if a else 0))
        return original(a, *rest, **kwargs)

    monkeypatch.setattr(el, name, counting)
    return calls


class TestShapeRoutes:
    """_column_index picks the index route by shape, for cokernel_order and
    for smith_normal_form's check: a tall matrix is infinite with no
    arithmetic, a square one takes |det m| from one Bareiss pass, and a wide
    one the product of its Hermite pivots."""

    def test_both_callers_take_the_one_index(self, monkeypatch):
        square = random_nonsingular(random.Random(41), 4)
        wide = random_matrix(random.Random(42), lo=-4, hi=4, rows=3, cols=5)
        calls = counting_calls(monkeypatch, "_column_index")
        passes = counting_calls(monkeypatch, "_bareiss")
        eliminated = count_kernel_calls(monkeypatch, "_smith_divisors")
        results = []
        for m in (square, wide, wide.transpose()):
            cokernel_order(m)
            results.append(smith_normal_form(m))
        # a tall Smith form is infinite by shape, with no Bareiss pass
        assert calls == [(4, 4)] * 2 + [(3, 5)] * 2 + [(5, 3)] * 2
        assert passes == [(4, 4)] * 2 + [(3, 5)] * 2
        for res in results:
            res.divisors
        # reading the divisors runs no second pass; a tall Smith form checks
        # the index of its transpose then.  One Bareiss pass per index: the
        # Smith forms read their minors' gcd off it, and here the
        # certificate decides every one of them
        assert calls == [(4, 4)] * 2 + [(3, 5)] * 2 + [(5, 3)] * 2 + [(3, 5)]
        assert passes == [(4, 4)] * 2 + [(3, 5)] * 2 + [(3, 5)]
        assert eliminated == {}

    def test_very_wide_passes_two_windows(self, monkeypatch):
        # 96 > 2 * (6 + 16) columns: passes over the leading and trailing 22
        # columns decide a full rank, and none runs over all 96; with both
        # windows zero, the pass over all 96 decides it
        rng = random.Random(4696)
        lit = random_matrix(rng, lo=-4, hi=4, rows=6, cols=96).to_lists()
        dark = [[0] * 22 + row[22:74] + [0] * 22 for row in lit]
        passes = counting_calls(monkeypatch, "_bareiss")
        for data, expected in ((lit, [(6, 22)] * 2), (dark, [(6, 22)] * 2 + [(6, 96)])):
            m = IntMatrix(data)
            divisors = el._smith_divisors(m.to_lists())
            passes.clear()
            assert cokernel_order(m) == Cardinal.finite(math.prod(divisors))
            assert len(divisors) == 6
            assert passes == expected

    def test_wide_modulus_divides_det_and_the_index_divides_it(self, monkeypatch):
        # the modulus is the gcd of the maximal minors in the pass's last
        # row, not |det| of its pivot columns
        moduli = []
        original = el._hermite_rows

        def recording(vectors, width, d):
            moduli.append(d)
            return original(vectors, width, d)

        monkeypatch.setattr(el, "_hermite_rows", recording)
        rng = random.Random(4898)
        smaller = 0
        for _ in range(20):
            m = random_matrix(rng, lo=-4, hi=4, rows=8, cols=9)
            det = abs(el._bareiss(m.to_lists())[0])
            if not det:
                continue
            divisors = el._smith_divisors(m.to_lists())
            moduli.clear()
            assert cokernel_order(m) == Cardinal.finite(math.prod(divisors))
            (d,) = moduli
            assert det % d == 0 and d % math.prod(divisors) == 0
            smaller += d < det
        assert smaller > 10

    def test_tall_smith_forms_take_no_transforms(self, monkeypatch):
        # a tall matrix runs no Bareiss pass until the first read of its
        # divisors, then one over its transpose, and a second, row-dropping
        # one only when that falls short of full row rank; never an exact
        # Hermite basis
        rng = random.Random(4343)
        eliminated = count_kernel_calls(
            monkeypatch, "_smith_divisors", "hermite_basis", "_bareiss"
        )
        kinds = set()
        for i in range(120):
            cols = rng.randint(1, 5)
            rows = cols + rng.randint(1, 4)
            data = random_matrix(rng, lo=-6, hi=6, rows=rows, cols=cols).to_lists()
            if i % 2 and cols > 1:
                # a column that combines two others: rank below cols
                for row in data:
                    row[-1] = row[0] - 2 * row[1 % (cols - 1)]
            m = IntMatrix(data)
            deficient = rank(m) < cols
            kinds.add(deficient)
            expected = el._smith_with_transforms(m).divisors
            eliminated.clear()
            res = smith_normal_form(m)
            assert res.cokernel_order() == INFINITE
            assert eliminated == {}
            assert res.divisors == expected
            assert eliminated["_smith_divisors with t"] == 0
            assert eliminated["hermite_basis"] == 0
            assert eliminated["_bareiss"] == 1 + deficient
            assert res.s is None
        assert kinds == {True, False}

    def test_square_order_is_the_determinant_without_hermite(self, monkeypatch):
        pivots = counting_calls(monkeypatch, "_hermite_index_rows")
        rng = random.Random(44)
        singular = 0
        for _ in range(100):
            n = rng.randint(1, 6)
            m = random_matrix(rng, lo=-3, hi=3, rows=n, cols=n)
            det = determinant(m)
            singular += not det
            assert cokernel_order(m) == (Cardinal.finite(abs(det)) if det else INFINITE)
        assert singular and pivots == []

    def test_tall_order_is_infinite_without_bareiss(self, monkeypatch):
        passes = counting_calls(monkeypatch, "_bareiss")
        doubled = IntMatrix.identity(3).hstack(IntMatrix.identity(3)).transpose()
        for m in (WORKED.transpose(), doubled, IntMatrix([[], [], []], cols=0)):
            assert m.rows > m.cols
            assert cokernel_order(m) == INFINITE
        assert passes == []

    def test_square_enumeration_lists_the_determinant(self):
        rng = random.Random(45)
        for n in (1, 2, 3):
            for _ in range(20):
                m = random_nonsingular(rng, n, lo=-4, hi=4)
                det = abs(determinant(m))
                if det > 2000:
                    continue
                reps = enumerate_cokernel(m, cap=2000)
                assert len(reps) == det
                assert reps == bfs_cokernel(m, cap=2000)


@pytest.fixture
def sympy_divisors():
    """sympy's invariant factors, zeros dropped; the test skips without sympy."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    def divisors(m):
        factors = invariant_factors(sympy.Matrix(m.to_lists()), domain=sympy.ZZ)
        return tuple(int(f) for f in factors if f)

    return divisors


class TestSympyOracle:
    """sympy's invariant factors as a third route, test-only."""

    def test_random_nonsingular_square(self, sympy_divisors):
        rng = random.Random(32)
        signs = set()
        for n in range(1, 33):
            m = random_nonsingular(rng, n, lo=-5, hi=5)
            signs.add(determinant(m) > 0)
            assert smith_normal_form(m).divisors == sympy_divisors(m)
        assert signs == {True, False}

    def test_negative_determinant(self, sympy_divisors):
        rng = random.Random(5)
        for n in (2, 5, 9):
            m = random_nonsingular(rng, n)
            rows = m.to_lists()
            if determinant(m) > 0:
                rows[0] = [-x for x in rows[0]]
            m = IntMatrix(rows)
            assert determinant(m) < 0
            assert smith_normal_form(m).divisors == sympy_divisors(m)

    def test_unimodular(self, sympy_divisors):
        rng = random.Random(12)
        for n in (1, 4, 8, 16):
            m = random_unimodular(rng, n)
            assert smith_normal_form(m).divisors == sympy_divisors(m) == (1,) * n

    def test_hidden_diagonal(self, sympy_divisors):
        rng = random.Random(2)
        diag = IntMatrix([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 4, 0], [0, 0, 0, 12]])
        for _ in range(5):
            m = random_unimodular(rng, 4) @ diag @ random_unimodular(rng, 4)
            assert smith_normal_form(m).divisors == sympy_divisors(m) == (1, 2, 12, 12)

    def test_singular_on_the_hermite_row_route(self, sympy_divisors):
        rng = random.Random(6)
        rows = random_matrix(rng, lo=-9, hi=9, rows=6, cols=6).to_lists()
        rows[5] = [a - 2 * b for a, b in zip(rows[0], rows[3])]
        m = IntMatrix(rows)
        assert determinant(m) == 0
        res = smith_normal_form(m)
        assert res.s is None
        assert res.divisors == sympy_divisors(m)
        assert len(res.divisors) == 5


def kernel_cases():
    """(kind, matrix) for 400 seeded matrices up to 8x8, entries within 1,
    2, 4 or 30: square, wide, tall, and singular ones with a row that is a
    combination of two others."""
    rng = random.Random(19)
    out = []
    for i in range(400):
        bound = (1, 2, 4, 30)[i % 4]
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        data = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        kind = "square" if rows == cols else "wide" if rows < cols else "tall"
        if rows >= 3 and i % 3 == 0:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            data[-1] = [a * x + b * y for x, y in zip(data[0], data[1])]
            kind = "singular " + kind
        out.append((kind, IntMatrix(data, cols=cols)))
    return out


class TestSmithDivisors:
    """The Smith loop without t against its run with t, the pinned
    transform cases and sympy."""

    def test_matches_the_transform_route(self):
        kinds = set()
        for kind, m in kernel_cases():
            kinds.add(kind)
            want = el._smith_with_transforms(m).divisors
            assert el._smith_divisors(m.to_lists()) == want, m
            assert smith_normal_form(m).divisors == want
        assert {"square", "wide", "tall", "singular square", "singular wide"} <= kinds

    def test_pinned_transform_cases(self):
        pins = json.loads((Path(__file__).parent / "smith_transforms.json").read_text())
        assert len(pins) == 39
        for name, pin in pins.items():
            assert el._smith_divisors(pin["m"]) == tuple(pin["divisors"]), name

    def test_sympy_invariant_factors(self, sympy_divisors):
        for kind, m in kernel_cases()[:120]:
            assert el._smith_divisors(m.to_lists()) == sympy_divisors(m), (kind, m)


class TestHermiteRowRoute:
    """smith_normal_form on inputs of rank rho short of full row rank reduces
    the Hermite rows of L + d * Z^R, for a gcd d of rho x rho minors from a
    row-dropping Bareiss pass, and unimodular_inverse reads the graph
    lattice's Hermite rows; the Smith loop with transforms is the reference
    for both."""

    @staticmethod
    def _deficient_cases():
        """(kind, scale, matrix) for 2 400 seeded inputs: products of r x k
        and k x c factors with k below min(r, c), short of full row rank
        (through the transpose when tall), scaled by 1, 2, 3, 6 or 12; zero
        matrices; the empty 0 x n and n x 0 shapes; and square or wide
        stacked torus systems whose second map repeats the first, so one
        block is zero."""
        rng = random.Random(3802)
        out = []
        for i in range(2400):
            kind = ("square", "wide", "tall", "zero", "empty", "torus")[i % 6]
            scale = (1, 2, 3, 6, 12)[i // 6 % 5]
            n = rng.randint(1, 6)
            if kind == "zero":
                m = IntMatrix.zeros(n, rng.randint(1, 6))
            elif kind == "empty":
                m = IntMatrix([], cols=n) if i % 12 < 6 else IntMatrix([()] * n)
            elif kind == "torus":
                # square or wide, so the zero block leaves the rank short
                rows, k = rng.randint(1, 3), rng.randint(2, 4)
                cols = rows * (k - 1) + rng.randint(0, 2)
                maps = [random_matrix(rng, lo=-4, hi=4, rows=rows, cols=cols) for _ in range(k)]
                system = AbelianSystem([maps[0], maps[0], *maps[2:]])
                m = _scaled(stacked_difference(system), scale)
            else:
                rows = n + (kind == "tall") * rng.randint(1, 3)
                cols = n + (kind == "wide") * rng.randint(1, 3)
                k = rng.randint(0, n - 1)
                m = IntMatrix.zeros(rows, cols)
                if k:
                    left = random_matrix(rng, lo=-3, hi=3, rows=rows, cols=k)
                    m = _scaled(left @ random_matrix(rng, lo=-3, hi=3, rows=k, cols=cols), scale)
            out.append((kind, scale, m))
        return out

    def test_divisors_equal_the_transform_reference(self, monkeypatch):
        tracked = count_kernel_calls(monkeypatch, "_smith_divisors")
        seen = Counter()
        for kind, scale, m in self._deficient_cases():
            want = el._smith_with_transforms(m).divisors
            tracked.clear()
            res = smith_normal_form(m)
            assert res.divisors == want, (kind, m)
            assert (res.s, res.t, res.d) == (None, None, None)
            assert tracked["_smith_divisors with t"] == 0
            a = m.transpose() if m.rows > m.cols else m
            if a.rows:
                assert len(want) < a.rows and res.cokernel_order() == INFINITE
            seen[kind, scale] += 1
        assert len(seen) == 30 and min(seen.values()) >= 80, seen

    def test_unimodular_inverse_equals_the_transform_reference(self):
        rng = random.Random(3803)
        sizes = set()
        for _ in range(300):
            n = rng.randint(1, 12)
            m = random_unimodular(rng, n)
            snf = el._smith_with_transforms(m)
            assert snf.divisors == (1,) * n
            assert unimodular_inverse(m) == snf.t @ snf.s
            sizes.add(n)
        assert sizes == set(range(1, 13))


def _scaled(m, scale):
    return IntMatrix([[scale * x for x in row] for row in m.iter_rows()], cols=m.cols)


def _block_diagonal(blocks):
    width = sum(b.cols for b in blocks)
    rows, offset = [], 0
    for b in blocks:
        for row in b.iter_rows():
            rows.append([0] * offset + list(row) + [0] * (width - offset - b.cols))
        offset += b.cols
    return IntMatrix(rows, cols=width)


def _diagonal(entries):
    return IntMatrix([[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)])


def tracked_cases():
    """(kind, m) for the Smith loop with t: empty and zero shapes; four
    small inputs that force a branch, a remainder step on [[2, 3]], an
    offender fold on diag(2, 3), a negative pivot on [[-2]] and a row
    zeroed mid-run on [[1, 2], [2, 4]]; then 120 seeded matrices of 1 to 12
    rows and columns, square, tall and wide, a third of them with a row
    that combines two others, and a fifth of them times 2, 3 or 6."""
    rng = random.Random(2424)
    cases = [
        ("empty", IntMatrix([], cols=0)),
        ("empty", IntMatrix([], cols=3)),
        ("empty", IntMatrix([[], [], []], cols=0)),
        ("zero", IntMatrix.zeros(1, 1)),
        ("zero", IntMatrix.zeros(2, 3)),
        ("zero", IntMatrix.zeros(3, 2)),
        ("remainder", IntMatrix([[2, 3]])),
        ("fold", _diagonal([2, 3])),
        ("negative pivot", IntMatrix([[-2]])),
        ("zeroed mid-run", IntMatrix([[1, 2], [2, 4]])),
    ]
    for i in range(120):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        bound = (1, 2, 4, 9)[i % 4]
        data = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        kind = "square" if rows == cols else "wide" if rows < cols else "tall"
        if rows >= 3 and i % 3 == 0:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            data[-1] = [a * x + b * y for x, y in zip(data[0], data[1])]
        scale = (1, 1, 2, 1, 1, 3, 1, 1, 6, 1)[i % 10]
        if scale > 1:
            data = [[scale * x for x in row] for row in data]
            kind = f"x{scale}"
        cases.append((kind, IntMatrix(data)))
    return cases


BRANCHES = ("remainder", "fold", "negative pivot", "zeroed mid-run")
# Lines of _smith_divisors that the tracer watches, found by their text.
SMITH_LINES = {
    "remainder": "prow, pj = rest + prow[w:], j",
    "fold": "prow = offender[:w]",
    "accept": "divisors.append(abs(p))",
}


def traced_certificate(m):
    """certify_smith(m) and the branches its run of the Smith loop with t
    takes, read off that frame by a line tracer: "remainder" and "fold"
    when their lines run, "negative pivot" when a pivot below 0 is
    accepted, and "zeroed mid-run" when a row is zero as a pivot is
    accepted (the rows that start zero never enter the live submatrix)."""
    lines, first = inspect.getsourcelines(el._smith_divisors)
    where = {}
    for name, text in SMITH_LINES.items():
        (i,) = [i for i, line in enumerate(lines) if text in line]
        where[first + i] = name
    code = el._smith_divisors.__code__
    seen = set()

    def local(frame, event, arg):
        name = where.get(frame.f_lineno) if event == "line" else None
        if name == "accept":
            f = frame.f_locals
            assert f["t"] is not None
            if f["p"] < 0:
                seen.add("negative pivot")
            if any(not any(row[: f["w"]]) for row in f["a"]):
                seen.add("zeroed mid-run")
        elif name:
            seen.add(name)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        res = certify_smith(m)
    finally:
        sys.settrace(previous)
    return res, seen


class TestTrackedLoop:
    """The Smith loop with t on every branch it has: certify_smith proves
    the run's divisors, which equal the run without t, and gcds of minors
    (up to 6 x 6) or sympy's invariant factors (up to 12 rows)."""

    def test_every_branch_is_certified(self):
        kinds, branches = set(), set()
        for kind, m in tracked_cases():
            kinds.add(kind)
            res, seen = traced_certificate(m)
            branches |= seen
            if kind in BRANCHES:
                assert kind in seen, (kind, seen)
            assert (res.s @ m) @ res.t == res.d
            assert el._smith_divisors(m.to_lists()) == res.divisors, (kind, m)
            assert smith_normal_form(m).divisors == res.divisors, (kind, m)
            if max(m.rows, m.cols) <= 6:
                assert res.divisors == elementary_divisors_via_minors(m), (kind, m)
        assert branches == set(BRANCHES)
        assert {"empty", "zero", "square", "tall", "wide", "x2", "x3", "x6"} <= kinds

    def test_sympy_invariant_factors(self, sympy_divisors):
        for kind, m in tracked_cases():
            assert m.rows <= 12
            assert certify_smith(m).divisors == sympy_divisors(m), (kind, m)


def certificate_cases():
    """(kind, m) pairs for the Smith certificate: seeded square and wide
    matrices of 1 to 40 rows with entries within +-1 to +-4 and their
    transposes; x2, x3 and x6 multiples; block-diagonal inputs whose
    d_(R-1) is a prime p, so p^2 divides the index; and diag(q, 1, ..., 1)
    times a unimodular matrix, whose every Bareiss-held minor is a multiple
    of q while d_(R-1) = 1, for q = 2, 3 and the prime 1009."""
    rng = random.Random(2323)
    cases = []
    for rows in (1, 2, 3, 4, 5, 6, 8, 11, 16, 23, 31, 40):
        for extra in (0, rng.randint(1, 4)):
            bound = rng.randint(1, 4)
            while True:
                m = random_matrix(rng, lo=-bound, hi=bound, rows=rows, cols=rows + extra)
                if cokernel_order(m) != INFINITE:
                    break
            cases.append(("square" if not extra else "wide", m))
            if extra and rows < 12:
                cases.append(("tall", m.transpose()))
    for rows in (2, 5, 9):
        m = random_nonsingular(rng, rows, lo=-4, hi=4)
        for scale in (2, 3, 6):
            cases.append((f"x{scale}", _scaled(m, scale)))
    for p in (2, 3, 7, 997):
        blocks = []
        for size in (rng.randint(2, 5), rng.randint(2, 5)):
            diagonal = _diagonal([1] * (size - 1) + [p])
            blocks.append(random_unimodular(rng, size) @ diagonal @ random_unimodular(rng, size))
        cases.append((f"block p={p}", _block_diagonal(blocks)))
    for q in (2, 3, 1009):
        diagonal = _diagonal([q] + [1] * 5)
        cases.append((f"minors q={q}", diagonal @ random_unimodular(rng, 6)))
    return cases


class TestMinorCertificate:
    """smith_normal_form reads (1, ..., 1, D) off the index's Bareiss pass
    when the gcd g of the (R-1)-minors it holds has gcd(g, D) = 1, and
    otherwise reads d_1 ... d_(R-1) off one Smith loop on the lattice plus
    gcd(g, D) * Z^R.  Each result is held to certify_smith's, whose
    transforms prove every divisor, and to sympy's where it is installed."""

    @pytest.fixture
    def routes(self, monkeypatch):
        """Route of the latest smith_normal_form: "modular" when the Smith
        loop ran at the first read of its divisors, else "gcd"."""
        calls = count_kernel_calls(monkeypatch, "_smith_divisors")

        def route(m):
            calls.clear()
            res = smith_normal_form(m)
            assert not calls
            res.divisors
            return res, "modular" if calls else "gcd"

        return route

    def test_matches_the_transform_certificate(self, routes):
        seen = {}
        for kind, m in certificate_cases():
            res, route = routes(m)
            assert res.divisors == certify_smith(m).divisors, (kind, m)
            assert (res.s, res.t, res.d) == (None, None, None)
            seen.setdefault(kind.split(" ")[0] if kind.startswith("x") else kind, set()).add(route)
        assert set().union(*seen.values()) == {"gcd", "modular"}
        # p divides two divisors of a scaled or a p-block input, and q every
        # minor the pass holds, though d_(R-1) = 1: gcd(g, D) > 1 for each
        for kind in ("x2", "x3", "x6", "block p=2", "block p=997"):
            assert seen[kind] == {"modular"}, kind
        for q in (2, 3, 1009):
            assert seen[f"minors q={q}"] == {"modular"}, q

    def test_sympy_invariant_factors(self, sympy_divisors):
        for kind, m in certificate_cases():
            if max(m.rows, m.cols) <= 12:
                assert smith_normal_form(m).divisors == sympy_divisors(m), (kind, m)

    def test_minor_gcd_is_a_multiple_of_the_leading_divisors(self):
        for kind, m in certificate_cases():
            a = m.transpose() if m.rows > m.cols else m
            index, g, _ = el._column_index(a, minors=True)
            divisors = certify_smith(a).divisors
            assert index == math.prod(divisors), kind
            lead = math.prod(divisors[:-1])
            assert g % lead == 0, (kind, g, divisors)
            if a.rows <= 3:  # the pass holds every (R-1)-minor
                assert g == lead, (kind, g, divisors)

    def test_skipping_the_modular_step_fails(self, monkeypatch):
        """A certificate that takes gcd(g, D) to be 1, with no Smith loop
        modulo it, claims d_(R-1) = 1 for inputs where p divides two
        divisors: the chain checks refuse a scaled one, and a p-block one
        passes them with the wrong divisors."""
        original = el._certified_divisors
        monkeypatch.setattr(
            el, "_certified_divisors", lambda a, index, g, basis: original(a, index, 1, basis)
        )
        refused, wrong = [], []
        for kind, m in certificate_cases():
            try:
                divisors = smith_normal_form(m).divisors
            except ConsistencyError:
                refused.append(kind)
                continue
            if divisors != certify_smith(m).divisors:
                wrong.append(kind)
        assert "x2" in refused
        assert "block p=2" in wrong and "block p=997" in wrong

    def test_a_loop_that_misses_the_index_is_refused(self, monkeypatch):
        # diag(2, 1, ...) @ u: every minor the pass holds is even, so the
        # loop runs modulo 2 and must end in gcd(d_R, 2) = 2; a Hermite
        # basis of Z^6 ends it in 1, though the divisors it gives are right
        m = _diagonal([2] + [1] * 5) @ random_unimodular(random.Random(7), 6)
        assert smith_normal_form(m).divisors == (1,) * 5 + (2,)
        monkeypatch.setattr(
            el, "_hermite_rows", lambda vectors, width, d: [[1] + [0] * (width - i - 1) for i in range(width)]
        )
        res = smith_normal_form(m)
        assert res.cokernel_order() == Cardinal.finite(2)
        with pytest.raises(ConsistencyError, match="modulo 2 ends in 1, not gcd"):
            res.divisors

    def test_an_index_that_misses_the_loop_is_refused(self, monkeypatch):
        # 2u has divisors (2, ..., 2); an index doubled to 2^7 gives
        # d_R = 4, a chain that multiplies to it and starts with the gcd of
        # the entries, but the loop modulo gcd(g, D) ends in 2, not 4
        m = _scaled(random_unimodular(random.Random(7), 6), 2)
        assert smith_normal_form(m).divisors == (2,) * 6
        original = el._column_index

        def doubled(a, **kwargs):
            index, g, basis = original(a, **kwargs)
            return 2 * index, g, basis

        monkeypatch.setattr(el, "_column_index", doubled)
        res = smith_normal_form(m)
        with pytest.raises(ConsistencyError, match="ends in 2, not gcd.* d_R = 4"):
            res.divisors


def modular_cases():
    """(kind, m) pairs whose gcd(g, D) is mostly above 1: seeded square,
    wide and tall matrices of 2 to 8 rows times 2, 3, 6 and 12; p-blocks
    whose d_(R-1) is p, for p = 2, 997, 1009 and 65537, and their
    transposes beside a zero row; and scaled matrices with a row that
    combines two others, which take the transform route."""
    rng = random.Random(3333)
    cases = []
    for rows in (2, 3, 5, 8):
        square = random_nonsingular(rng, rows, lo=-4, hi=4)
        while True:
            wide = random_matrix(rng, lo=-4, hi=4, rows=rows, cols=rows + rng.randint(1, 3))
            if cokernel_order(wide) != INFINITE:
                break
        for scale in (2, 3, 6, 12):
            cases.append((f"square x{scale}", _scaled(square, scale)))
            cases.append((f"wide x{scale}", _scaled(wide, scale)))
            cases.append((f"tall x{scale}", _scaled(wide, scale).transpose()))
    for p in (2, 997, 1009, 65537):
        blocks = []
        for size in (rng.randint(2, 4), rng.randint(2, 4)):
            diagonal = _diagonal([1] * (size - 1) + [p])
            blocks.append(random_unimodular(rng, size) @ diagonal @ random_unimodular(rng, size))
        block = _block_diagonal(blocks)
        cases.append((f"block p={p}", block))
        cases.append((f"tall block p={p}", block.hstack(IntMatrix.zeros(block.rows, 1)).transpose()))
    for rows in (3, 5, 7):
        data = random_matrix(rng, lo=-4, hi=4, rows=rows, cols=rows + 1).to_lists()
        data[-1] = [x - 2 * y for x, y in zip(data[0], data[1])]
        cases.append(("dependent", _scaled(IntMatrix(data), 6)))
    return cases


def _reference_hermite_rows(vectors, width, d):
    """_hermite_rows as it was before vectors with a zero leading entry
    skipped the gcd step: every vector takes the extended gcd with the
    pivot, whatever its leading entry."""
    vectors = [[x % d for x in v] for v in vectors]
    basis = []
    for i in range(width):
        pivot = [d] + [0] * (width - i - 1)
        rest = []
        for v in vectors:
            h = pivot[0]
            g = math.gcd(h, v[0])
            a, b = h // g, v[0] // g
            w = [(a * y - b * z) % d for y, z in zip(v[1:], pivot[1:])]
            if a > 1:
                t = pow(b, -1, a)
                s = (1 - t * b) // a
                pivot = [g] + [(s * z + t * y) % d for y, z in zip(v[1:], pivot[1:])]
            if any(w):
                rest.append(w)
        basis.append(pivot)
        vectors = rest
    return basis


def _looped_hermite_rows(vectors, width, d):
    """_hermite_rows as it was before a modulus of 1 returned the unit rows:
    the loop runs for every d, and with d = 1 reduces every vector to 0."""
    vectors = [[x % d for x in v] for v in vectors]
    basis = []
    for i in range(width):
        pivot = [d] + [0] * (width - i - 1)
        rest = []
        for v in vectors:
            if not v[0]:
                w = v[1:]
            else:
                h = pivot[0]
                g = math.gcd(h, v[0])
                a, b = h // g, v[0] // g
                w = [(a * y - b * z) % d for y, z in zip(v[1:], pivot[1:])]
                if a > 1:
                    t = pow(b, -1, a)
                    s = (1 - t * b) // a
                    pivot = [g] + [(s * z + t * y) % d for y, z in zip(v[1:], pivot[1:])]
            if any(w):
                rest.append(w)
        basis.append(pivot)
        vectors = rest
    return basis


class TestKnownMultiple:
    """_column_index and _hermite_index_rows given a known multiple of the
    index: the shape still decides first, a multiple of 1 gives index 1 with
    no arithmetic, and a wide matrix is triangulated modulo the gcd of its
    maximal minors and the multiple."""

    def test_unit_modulus_matches_the_loop(self):
        rng = random.Random(4343)
        for d in (1, 1, 2, 6, 35):
            for _ in range(60):
                width = rng.randint(0, 8)
                vectors = [
                    [rng.randint(-30, 30) if rng.random() < 0.4 else 0 for _ in range(width)]
                    for _ in range(rng.randint(0, 12))
                ]
                want = _looped_hermite_rows(vectors, width, d)
                assert el._hermite_rows(vectors, width, d) == want, (d, vectors)

    def test_unit_modulus_reads_no_vector(self):
        def unread():
            raise AssertionError("a vector was read")
            yield

        assert el._hermite_rows(unread(), 3, 1) == [[1, 0, 0], [1, 0], [1]]

    def test_true_multiples_give_the_index(self):
        rng = random.Random(4444)
        shapes = Counter()
        for _ in range(300):
            rows = rng.randint(1, 5)
            cols = rows + rng.choice((0, 0, 1, 3, 2 * el._WINDOW + rows + 1))
            m = _scaled(random_matrix(rng, lo=-4, hi=4, rows=rows, cols=cols), rng.choice((1, 2, 3)))
            index = el._column_index(m)[0]
            if not index:
                continue
            shapes["square" if m.is_square else "wide"] += 1
            for multiple in (index, 2 * index, index * index, 7 * index):
                assert el._column_index(m, multiple=multiple)[0] == index
                assert el._cokernel_order(m, multiple=multiple) == Cardinal(index)
        assert shapes["square"] >= 50 and shapes["wide"] >= 50, shapes

    def test_wide_route_triangulates_modulo_the_gcd(self, monkeypatch):
        calls = []
        original = el._hermite_rows

        def recording(vectors, width, d):
            calls.append(d)
            return original(vectors, width, d)

        monkeypatch.setattr(el, "_hermite_rows", recording)
        m = IntMatrix([[4, 0, 2], [0, 6, 6]])  # index 12
        assert el._column_index(m)[0] == 12
        (d,) = calls  # the gcd of the maximal minors that the Bareiss pass holds
        for multiple in (36, 60):
            del calls[:]
            assert el._column_index(m, multiple=multiple)[0] == 12
            assert calls == [math.gcd(d, multiple)] and calls[0] < d
        del calls[:]
        assert el._column_index(m, multiple=1)[0] == 1 and calls == []

    def test_shape_decides_before_the_multiple(self):
        tall = IntMatrix([[1], [2]])
        for multiple in (0, 1, 6):
            assert el._column_index(tall, multiple=multiple) == (0, 0, None)
            assert el._cokernel_order(tall, multiple=multiple) == INFINITE
        # a multiple of 1 is taken on trust: nothing is computed
        for m in (IntMatrix([[2, 0], [0, 3]]), IntMatrix([[2, 4, 1], [2, 6, 2]])):
            assert el._column_index(m, multiple=1) == (1, 0, None)

    def test_a_square_index_must_divide_the_multiple(self):
        with pytest.raises(ConsistencyError, match="does not divide the multiple 4"):
            el._column_index(IntMatrix([[2, 0], [0, 3]]), multiple=4)


class TestModularRoute:
    """A full-rank input never meets the Smith loop itself: its divisors
    come from at most one run on an R x R Hermite basis modulo gcd(g, D),
    and they equal the divisors that certify_smith proves."""

    @pytest.fixture
    def loop_runs(self, monkeypatch):
        """Copies of the rows of each Smith loop run without t."""
        original = el._smith_divisors
        runs = []

        def recording(rows, t=None):
            if t is None:
                runs.append([list(row) for row in rows])
            return original(rows, t)

        monkeypatch.setattr(el, "_smith_divisors", recording)
        return runs

    def test_scaled_inputs_reduce_a_triangular_basis(self, loop_runs):
        rng = random.Random(3434)
        seen = set()
        for rows in (2, 4, 7):
            for cols in (rows, rows + 3):
                for scale in (2, 3, 6):
                    while True:
                        m = _scaled(random_matrix(rng, lo=-4, hi=4, rows=rows, cols=cols), scale)
                        if cokernel_order(m) != INFINITE:
                            break
                    index, g, _ = el._column_index(m, minors=True)
                    h = math.gcd(g, index)
                    shapes = [("square", m)] if cols == rows else [("wide", m), ("tall", m.transpose())]
                    for shape, a in shapes:
                        del loop_runs[:]
                        assert smith_normal_form(a).divisors == certify_smith(a).divisors
                        (run,) = loop_runs
                        # R x R, never the input's shape or its transpose's
                        # when they differ, and never the input itself
                        assert (len(run), len(run[0])) == (rows, rows), (shape, a)
                        assert run != m.to_lists() and h > 1
                        for i, row in enumerate(run):
                            assert not any(row[:i]) and 0 < row[i] <= h
                            assert all(0 <= x < h for x in row[i + 1 :])
                        seen.add(shape)
        assert seen == {"square", "wide", "tall"}

    def test_matches_the_transform_certificate(self):
        kinds = set()
        for kind, m in modular_cases():
            res = smith_normal_form(m)
            assert res.divisors == certify_smith(m).divisors, (kind, m)
            a = m.transpose() if m.rows > m.cols else m
            index, g, _ = el._column_index(a, minors=True)
            if index:
                kinds.add(kind.split(" ")[0])
                assert math.gcd(g, index) > 1, (kind, m)
        assert kinds == {"square", "wide", "tall", "block"}

    def test_hermite_rows_match_the_full_gcd_step(self):
        rng = random.Random(3535)
        for d in (2, 4, 6, 12):
            for _ in range(60):
                width = rng.randint(1, 8)
                vectors = [
                    [rng.randint(-30, 30) if rng.random() < 0.3 else 0 for _ in range(width)]
                    for _ in range(rng.randint(0, 12))
                ]
                want = _reference_hermite_rows(vectors, width, d)
                assert el._hermite_rows(vectors, width, d) == want, (d, vectors)

    @pytest.fixture
    def triangulations(self, monkeypatch):
        """(vectors, width, d) of each _hermite_rows call."""
        original = el._hermite_rows
        calls = []

        def recording(vectors, width, d):
            vectors = [list(v) for v in vectors]
            calls.append((vectors, width, d))
            return original(vectors, width, d)

        monkeypatch.setattr(el, "_hermite_rows", recording)
        return calls

    def test_wide_inputs_triangulate_the_kept_rows_modulo_h(self, triangulations):
        # the index route triangulates the C columns modulo the minors' gcd;
        # the step modulo h = gcd(g, D) takes the R rows it kept, as upper
        # triangular vectors, and never the columns again
        rng = random.Random(3636)
        for rows in (2, 4, 7, 12):
            for scale in (2, 3, 6):
                while True:
                    extra = rng.choice((1, 3, 2 * el._WINDOW + rows + 1))
                    m = _scaled(random_matrix(rng, lo=-4, hi=4, rows=rows, cols=rows + extra), scale)
                    if cokernel_order(m) != INFINITE:
                        break
                columns = [list(m.column(j)) for j in range(m.cols)]
                del triangulations[:]
                snf = smith_normal_form(m)
                assert snf.divisors == certify_smith(m).divisors
                (index_call, h_call) = triangulations
                assert index_call[0] == columns and index_call[2] % math.prod(snf.divisors) == 0
                vectors, width, h = h_call
                assert (len(vectors), width) == (rows, rows) and h > 1 and index_call[2] % h == 0
                assert vectors == [[0] * i + row for i, row in enumerate(snf._basis)]
                assert vectors != columns

    @pytest.mark.parametrize(
        "m",
        [
            DEFICIENT,
            DEFICIENT.transpose(),
            _scaled(IntMatrix([[1, 0, 2], [0, 1, 3]]), 2).transpose(),
            IntMatrix.zeros(2, 2),
        ],
        ids=["wide-deficient", "tall-deficient", "tall", "square-zero"],
    )
    def test_lattice_basis_of_an_infinite_cokernel_is_refused(self, triangulations, m):
        # a tall m (whose transpose may have kept a basis) and an m short of
        # full row rank have an infinite cokernel: no basis, no triangulation
        snf = smith_normal_form(m)
        del triangulations[:]
        with pytest.raises(ValueError, match="cokernel is infinite"):
            snf._lattice_basis()
        assert triangulations == [] and snf._basis is None


class TestKernel:
    def test_worked_kernel(self):
        basis = kernel_basis(WORKED)
        assert basis == [(1, -1, 2)]

    def test_invertible_matrix_has_trivial_kernel(self):
        assert kernel_basis(IntMatrix([[2, 1], [1, 1]])) == []

    def test_single_relation(self):
        assert kernel_basis(IntMatrix([[1, -1]])) == [(1, 1)]

    def test_kernel_vectors_annihilate_and_saturate(self):
        rng = random.Random(23)
        for _ in range(100):
            m = random_matrix(rng, max_dim=4, lo=-6, hi=6)
            basis = kernel_basis(m)
            assert len(basis) == m.cols - rank(m)
            for v in basis:
                assert not any(m.apply(v))
            if basis:
                bmat = IntMatrix(basis)
                # saturated lattice: unit elementary divisors
                assert set(elementary_divisors_via_minors(bmat)) <= {1}

    def test_kernel_is_deterministic_canonical(self):
        m = IntMatrix([[2, 4, 1], [2, 6, 2]])
        assert kernel_basis(m) == kernel_basis(IntMatrix(m.to_lists()))

    @staticmethod
    def _kernel_by_transforms(m):
        """kernel_basis as it was before it triangulated the graph lattice:
        the columns of t past the rank of m's Smith form, through the
        folding reference."""
        snf = el._smith_with_transforms(m)
        t_columns = [snf.t.column(j) for j in range(len(snf.divisors), m.cols)]
        return list(_hermite_basis_folded(t_columns, m.cols))

    def test_kernel_equals_the_transform_reference(self):
        """Seeded m of every shape: wide, square singular and nonsingular,
        tall, with zero rows, with no rows and with no columns."""
        rng = random.Random(3738)

        def draw(rows, cols):
            return [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]

        for case in range(700):
            shape = case % 7
            n = rng.randint(1, 5)
            if shape == 0:  # wide
                rows = draw(n, n + rng.randint(1, 4))
            elif shape == 1:  # square singular: one row a combination of two
                rows = draw(n + 1, n + 1)
                rows[0] = [rng.randint(-2, 2) * x - y for x, y in zip(rows[1], rows[-1])]
            elif shape == 2:
                rows = random_nonsingular(rng, n, lo=-6, hi=6).to_lists()
            elif shape == 3:  # tall
                rows = draw(n + rng.randint(1, 3), n)
            elif shape == 4:  # zero rows among nonzero ones
                rows = draw(n + 1, rng.randint(1, 6))
                for i in rng.sample(range(n + 1), rng.randint(1, n)):
                    rows[i] = [0] * len(rows[i])
            if shape == 5:
                m = IntMatrix([], cols=n)
            elif shape == 6:
                m = IntMatrix([()] * n)
            else:
                m = IntMatrix(rows)
            expected = self._kernel_by_transforms(m) if m.cols else []
            assert kernel_basis(m) == expected, m.to_lists()
        assert kernel_basis(IntMatrix([], cols=3)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_wide_nilpotent_kernel_keeps_its_entries_small(self, tmp_path, monkeypatch):
        """The 8 x 40 quotient difference of nil(40, 8, 6)'s fourth pair: the
        folding loop reached 354 906-bit entries on it.  Every vector that
        the column-order loop moves to a later column passes _pivot_col, so
        the bound fails a blow-up here, not just the clock."""
        from coincidence_kit import cli
        from coincidence_kit.nilpotent import _pair_reductions

        out = tmp_path / "nil40.json"
        family = Path(__file__).resolve().parent / "nil_family.py"
        subprocess.run([sys.executable, str(family), "40", "8", "6", str(out)], check=True)
        red = _pair_reductions(cli._build_pc_maps(json.loads(out.read_text())))[3]
        m = red.psi_bar - red.phi_bar
        assert (m.rows, m.cols) == (8, 40)

        widest = [0]
        pivot_col = el._pivot_col

        def measuring(row, start=0):
            widest[0] = max([widest[0]] + [abs(x).bit_length() for x in row])
            return pivot_col(row, start)

        monkeypatch.setattr(el, "_pivot_col", measuring)
        basis = kernel_basis(m)
        assert 0 < widest[0] <= 64
        assert len(basis) == 32
        assert math.prod(next(x for x in v if x) for v in basis) == 4668
        assert not any(x for v in basis for x in m.apply(v))


class TestCokernel:
    def test_rank_deficient_is_infinite(self):
        assert cokernel_order(IntMatrix.zeros(2, 2)) == INFINITE
        assert cokernel_order(IntMatrix([[1, 2], [2, 4]])) == INFINITE

    def test_worked_triangular(self):
        assert cokernel_order(IntMatrix([[2, 0], [3, 1]])) == Cardinal.finite(2)

    def test_enumeration_oracle_agrees(self):
        rng = random.Random(31)
        checked = 0
        while checked < 100:
            n = rng.randint(1, 3)
            m = random_matrix(rng, lo=-8, hi=8, rows=n, cols=rng.randint(n, n + 2))
            order = cokernel_order(m)
            if not order.is_finite or order.value > 1000:
                continue
            reps = enumerate_cokernel(m)
            assert len(reps) == order.value
            checked += 1

    def test_zero_column_padding_never_changes_cokernel(self):
        rng = random.Random(37)
        for _ in range(200):
            m = random_matrix(rng, max_dim=4, lo=-9, hi=9)
            padded = m.hstack(IntMatrix.zeros(m.rows, rng.randint(1, 3)))
            assert cokernel_order(padded) == cokernel_order(m)

    def test_empty_shapes(self):
        assert cokernel_order(IntMatrix([], cols=0)) == Cardinal.finite(1)
        assert cokernel_order(IntMatrix([[], [], []], cols=0)) == INFINITE

    def test_box_matches_breadth_first_reference(self):
        rng = random.Random(53)
        shapes = [(0, 0), (0, 3), (2, 0), (1, 4), (2, 5), (3, 6)]
        shapes += [(rng.randint(1, 4), rng.randint(1, 6)) for _ in range(300)]
        listed = 0
        for rows, cols in shapes:
            m = IntMatrix(
                [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            try:
                expected = bfs_cokernel(m, cap=5000)
            except (ValueError, SizeCapError) as exc:
                with pytest.raises(type(exc)):
                    enumerate_cokernel(m, cap=5000)
                continue
            assert enumerate_cokernel(m, cap=5000) == expected
            listed += 1
        assert listed > 100

    @pytest.mark.parametrize(
        "shape",
        [
            "tall",
            "square",
            "wide",
            "zero-column",
            "scaled",
            "unit-det",
            "row-sum",
            "very-wide",
            "dark-windows",
            "0x40",
            "1x40",
        ],
    )
    def test_hermite_pivots_match_smith(self, shape):
        # cokernel_order takes Hermite pivots modulo maximal minors, of
        # column windows when very wide; the bare Smith loop shares none of
        # its code
        rng = random.Random(f"hermite-{shape}")
        for _ in range(150):
            rows = rng.randint(2, 5) if shape != "row-sum" else rng.randint(3, 6)
            cols = {
                "tall": rng.randint(1, rows - 1),
                "square": rows,
                "wide": rows + rng.randint(1, 3),
                "zero-column": 0,
            }.get(shape, rows + rng.randint(0, 3))
            window = rows + el._WINDOW
            if shape in ("very-wide", "dark-windows"):
                cols = 2 * window + rng.randint(1, 20)
            elif shape in ("0x40", "1x40"):
                rows, cols = int(shape[0]), 40
            data = random_matrix(rng, lo=-9, hi=9, rows=rows, cols=cols).to_lists()
            if shape == "scaled":
                data = [[3 * x for x in row] for row in data]
            elif shape == "unit-det":
                data = random_unimodular(rng, rows).to_lists()
            elif shape == "row-sum":
                i, j, k = rng.sample(range(rows), 3)
                data[k] = [x + y for x, y in zip(data[i], data[j])]
            elif shape == "dark-windows":
                # both windows zero: only the pass over all columns decides
                data = [[0] * window + row[window:-window] + [0] * window for row in data]
            elif rows and rng.random() < 0.3:
                # a multiple of the first row makes the rank fall short
                data[-1] = [2 * x for x in data[0]]
            m = IntMatrix(data, cols=len(data[0]) if data and data[0] else cols)
            divisors = el._smith_divisors(m.to_lists())
            order = cokernel_order(m)
            if len(divisors) < m.rows:
                assert order == INFINITE
            else:
                assert order == Cardinal.finite(math.prod(divisors))
            assert order == smith_normal_form(m).cokernel_order()
            if shape == "unit-det":
                assert order == Cardinal.finite(1)
            elif shape == "row-sum":
                assert order == INFINITE
            elif shape == "scaled" and order.is_finite:
                assert order.value % 3 ** rows == 0

    @pytest.mark.parametrize("cols", [5, 60])
    def test_pivots_that_do_not_divide_the_modulus_are_refused(self, monkeypatch, cols):
        # a last pivot times d + 1 leaves a pivot product above the modulus d,
        # with one pass (5 columns) and with two windows (60 > 2 * (3 + 16))
        original = el._hermite_rows

        def inflated(vectors, width, d):
            basis = original(vectors, width, d)
            basis[-1][0] *= d + 1
            return basis

        m = random_matrix(random.Random(4040 + cols), lo=-4, hi=4, rows=3, cols=cols)
        assert cokernel_order(m).is_finite
        monkeypatch.setattr(el, "_hermite_rows", inflated)
        with pytest.raises(ConsistencyError, match="do not divide"):
            cokernel_order(m)

    def test_wide_rank_deficient_stack_is_infinite(self):
        # a row that is the sum of two others: the Bareiss pass stops at the
        # first dependent row, where an unreduced Hermite basis of the 40
        # columns took seconds
        rng = random.Random(3640)
        data = [[rng.randint(-4, 4) for _ in range(40)] for _ in range(36)]
        data[17] = [x + y for x, y in zip(data[3], data[29])]
        m = IntMatrix(data)
        start = time.perf_counter()
        assert cokernel_order(m) == INFINITE
        assert time.perf_counter() - start < 1
        with pytest.raises(ValueError):
            enumerate_cokernel(m)

    def test_enumeration_refuses_infinite(self):
        with pytest.raises(ValueError):
            enumerate_cokernel(IntMatrix.zeros(1, 1))

    def test_enumeration_cap(self):
        with pytest.raises(SizeCapError):
            enumerate_cokernel(IntMatrix([[10**9]]), cap=100)


class TestDeterminant:
    def test_worked_examples(self):
        assert determinant(IntMatrix([[2, 4, 1], [2, 6, 2], [1, 0, 2]])) == 10
        m = IntMatrix([[1, 0, 0, -1], [0, 1, 0, 0], [2, -1, -1, 0], [-1, 1, 0, 0]])
        assert abs(determinant(m)) == 1
        assert determinant(IntMatrix.identity(4)) == 1
        assert determinant(IntMatrix([], cols=0)) == 1

    def test_non_square_refused(self):
        with pytest.raises(ShapeError):
            determinant(WORKED)

    def test_unimodular_inverse(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 12)
            mat = random_unimodular(rng, n)
            inv = unimodular_inverse(mat)
            assert mat @ inv == IntMatrix.identity(n)
            assert inv @ mat == IntMatrix.identity(n)
            assert determinant(mat) * determinant(inv) == 1

    @pytest.mark.parametrize(
        "m",
        [
            IntMatrix([[2, 0], [0, 1]]),  # det 2
            IntMatrix([[3, 1], [1, 1]]),  # det 2, no divisor on the diagonal
            IntMatrix([[1, 2], [2, 4]]),  # singular
            IntMatrix.zeros(3, 3),
            WORKED,  # not square
        ],
    )
    def test_unimodular_inverse_refuses(self, m):
        with pytest.raises(ShapeError):
            unimodular_inverse(m)


class TestLatticeIndex:
    def test_same_lattice_is_one(self):
        basis = [(1, 0), (0, 2)]
        assert lattice_index(basis, basis) == Cardinal.finite(1)

    def test_doubled_sublattice(self):
        assert lattice_index([(2, 0), (0, 2)], [(1, 0), (0, 1)]) == Cardinal.finite(4)

    def test_worked_full_system(self):
        cols = [(2, 2, 1), (4, 6, 0), (1, 2, 2)]
        unit = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert lattice_index(cols, unit) == Cardinal.finite(10)

    def test_rank_drop_is_infinite(self):
        assert lattice_index([(2, 0)], [(1, 0), (0, 1)]) == INFINITE

    def test_containment_enforced(self):
        with pytest.raises(ContainmentError):
            lattice_index([(1, 1)], [(2, 0), (0, 2)])

    def test_empty_lattices(self):
        assert lattice_index([], []) == Cardinal.finite(1)

    def test_index_multiplies_in_towers(self):
        rng = random.Random(43)
        for _ in range(100):
            n = rng.randint(1, 3)
            unit = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
            mid = [tuple(x * rng.randint(1, 3) for x in row) for row in unit]
            low = [tuple(x * rng.randint(1, 3) for x in row) for row in mid]
            a = lattice_index(low, mid)
            b = lattice_index(mid, unit)
            c = lattice_index(low, unit)
            assert a * b == c


def _hermite_basis_reference(vectors, width):
    """hermite_basis as it was before it kept each row's pivot column,
    finding every pivot by a scan of the row."""

    def pivot_col(row):
        for j, v in enumerate(row):
            if v:
                return j
        return None

    rows = []
    for vec in vectors:
        v = list(vec)
        idx = 0
        while True:
            lead = pivot_col(v)
            if lead is None:
                break
            while idx < len(rows) and pivot_col(rows[idx]) < lead:
                idx += 1
            if idx == len(rows) or pivot_col(rows[idx]) > lead:
                rows.insert(idx, v)
                break
            r = rows[idx]
            p = lead
            while v[p]:
                if abs(v[p]) < abs(r[p]):
                    rows[idx], v = v, r
                    r = rows[idx]
                q = v[p] // r[p]
                for j in range(width):
                    v[j] -= q * r[j]
    for r in rows:
        p = pivot_col(r)
        if r[p] < 0:
            for j in range(len(r)):
                r[j] = -r[j]
    for i in range(len(rows)):
        p = pivot_col(rows[i])
        for j in range(i):
            q = rows[j][p] // rows[i][p]
            if q:
                for c in range(width):
                    rows[j][c] -= q * rows[i][c]
    return tuple(tuple(r) for r in rows)


def _hermite_basis_sorted_list(vectors, width):
    """hermite_basis as it was when it kept its echelon as a list sorted by
    pivot column, walked that list to find each vector's row, and inserted
    a new pivot's row into it."""
    rows = []
    for vec in vectors:
        v = list(vec)
        idx = 0
        lead = el._pivot_col(v)
        while lead is not None:
            while idx < len(rows) and rows[idx][0] < lead:
                idx += 1
            if idx == len(rows) or rows[idx][0] > lead:
                rows.insert(idx, (lead, v))
                break
            r = rows[idx][1]
            while v[lead]:
                if abs(v[lead]) < abs(r[lead]):
                    rows[idx], v = (lead, v), r
                    r = rows[idx][1]
                q = v[lead] // r[lead]
                for j in range(lead, width):
                    v[j] -= q * r[j]
            lead = el._pivot_col(v, lead + 1)
    for p, r in rows:
        if r[p] < 0:
            for j in range(p, width):
                r[j] = -r[j]
    for i, (p, ri) in enumerate(rows):
        for _, rj in rows[:i]:
            q = rj[p] // ri[p]
            if q:
                for c in range(p, width):
                    rj[c] -= q * ri[c]
    return tuple(tuple(r) for _, r in rows)


def _hermite_basis_folded(vectors, width):
    """hermite_basis as it was before it triangulated column by column: it
    folded each vector into the row that held its pivot, by gcd steps with
    no bound on the entries, and reduced above the pivots once, at the end."""
    rows = {}
    for vec in vectors:
        v = list(vec)
        lead = el._pivot_col(v)
        while lead is not None:
            r = rows.get(lead)
            if r is None:
                rows[lead] = v
                break
            while v[lead]:
                if abs(v[lead]) < abs(r[lead]):
                    rows[lead], v = v, r
                    r = rows[lead]
                q = v[lead] // r[lead]
                for j in range(lead, width):
                    v[j] -= q * r[j]
            lead = el._pivot_col(v, lead + 1)
    echelon = [(p, rows[p]) for p in sorted(rows)]
    for p, r in echelon:
        if r[p] < 0:
            for j in range(p, width):
                r[j] = -r[j]
    for i, (p, ri) in enumerate(echelon):
        for _, rj in echelon[:i]:
            q = rj[p] // ri[p]
            if q:
                for c in range(p, width):
                    rj[c] -= q * ri[c]
    return tuple(tuple(r) for _, r in echelon)


def _ker_psi_lattices():
    """The super lattices ker_psi_order hands to lattice_index, and its sub
    lattices, on seeded finite systems: k 2-5, n 1-3, entries within +-4,
    some with maps 2..k scaled by 2, 3 or 6."""
    from coincidence_kit import abelian

    rng = random.Random(5252)
    lattices = []

    def recording(vectors, width):
        vectors = [tuple(v) for v in vectors]
        lattices.append((vectors, width))
        return hermite_basis(vectors, width)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(el, "hermite_basis", recording)
        while len(lattices) < 60:
            k, n = rng.randint(2, 5), rng.randint(1, 3)
            m = n * (k - 1) + rng.randint(0, 1)
            scale = rng.choice([1, 1, 2, 3, 6])
            maps = [[[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)] for _ in range(k)]
            maps[1:] = [[[x * scale for x in row] for row in h] for h in maps[1:]]
            system = abelian.AbelianSystem(maps)
            stacked = abelian.stacked_difference(system)
            if cokernel_order(stacked).is_finite:
                abelian.ker_psi_order(system)
                lattices.append(([stacked.column(j) for j in range(stacked.cols)], stacked.rows))
    return lattices


class TestHermite:
    def test_canonical_form(self):
        basis = hermite_basis([(2, 4), (0, 3)], 2)
        # pivots positive, above-pivot entries reduced into [0, pivot)
        assert basis == ((2, 1), (0, 3))

    def test_coordinates_round_trip(self):
        rng = random.Random(47)
        for _ in range(200):
            width = rng.randint(1, 4)
            vecs = [
                tuple(rng.randint(-6, 6) for _ in range(width))
                for _ in range(rng.randint(1, 4))
            ]
            basis = hermite_basis(vecs, width)
            for v in vecs:
                coords = lattice_coordinates(basis, v)
                assert coords is not None
                rebuilt = [0] * width
                for c, row in zip(coords, basis):
                    for j in range(width):
                        rebuilt[j] += c * row[j]
                assert tuple(rebuilt) == v

    def test_basis_equals_the_pivot_scanning_reference(self):
        lattices = _ker_psi_lattices()
        rng = random.Random(53)
        for _ in range(300):
            width = rng.randint(0, 6)
            bound = rng.choice([1, 3, 20, 10**6])
            vecs = [
                tuple(rng.randint(-bound, bound) * rng.randint(0, 1) for _ in range(width))
                for _ in range(rng.randint(0, 8))
            ]
            vecs += rng.sample(vecs, min(2, len(vecs)))  # repeats fold to zero
            lattices.append((vecs, width))
        for vecs, width in lattices:
            assert hermite_basis(vecs, width) == _hermite_basis_reference(vecs, width)

    def test_basis_ignores_the_order_of_the_vectors(self):
        """Seeded inputs whose leads share a few columns and may be
        negative, with a zero row and a row dependent on two others: every
        order of the vectors gives one basis, the sorted-list echelon's."""
        rng = random.Random(6464)
        for _ in range(80):
            width = rng.randint(1, 5)
            vecs = []
            for _ in range(rng.randint(2, 3)):
                lead = rng.randrange(min(2, width))
                tail = [rng.randint(-5, 5) for _ in range(width - lead - 1)]
                vecs.append((0,) * lead + (rng.choice([-4, -2, -1, 1, 3, 6]),) + tuple(tail))
            a, b = rng.sample(vecs, 2)
            vecs += [(0,) * width, tuple(2 * x - 3 * y for x, y in zip(a, b))]
            expected = _hermite_basis_sorted_list(vecs, width)
            for order in itertools.permutations(vecs):
                assert hermite_basis(order, width) == expected

    def test_basis_equals_the_folding_reference(self):
        """2 000 seeded inputs of up to 10 vectors, width up to 8 and drawn
        entries within +-6: the column-order loop gives the folded basis on
        inputs with zero rows, negative leads, dependent rows and none."""
        rng = random.Random(3737)
        seen = Counter()
        for _ in range(2000):
            width = rng.randint(0, 8)
            density = rng.choice([0.3, 0.6, 1.0])
            vecs = [
                tuple(rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(width))
                for _ in range(rng.randint(0, 9))
            ]
            if len(vecs) >= 2 and rng.random() < 0.5:
                a, b = rng.sample(vecs, 2)
                s, t = rng.randint(-2, 2), rng.randint(-2, 2)
                vecs.insert(rng.randint(0, len(vecs)), tuple(s * x + t * y for x, y in zip(a, b)))
            basis = _hermite_basis_folded(vecs, width)
            assert hermite_basis(vecs, width) == basis
            leads = [next((x for x in v if x), 0) for v in vecs]
            seen.update(
                empty=not vecs,
                zero_row=0 in leads,
                negative_lead=any(x < 0 for x in leads),
                dependent=len(basis) < len(vecs),
            )
        assert min(seen[k] for k in ("empty", "zero_row", "negative_lead", "dependent")) > 50, seen

    def test_outside_vector_rejected(self):
        basis = hermite_basis([(2, 0)], 2)
        assert lattice_coordinates(basis, (1, 0)) is None
        assert lattice_coordinates(basis, (0, 1)) is None


class TestInputValidation:
    def test_ragged_rows_named(self):
        with pytest.raises(ShapeError, match="row 1"):
            IntMatrix([[1, 2], [3]])

    def test_non_integer_entries_rejected(self):
        with pytest.raises(ShapeError):
            IntMatrix([[1.5]])
        with pytest.raises(ShapeError):
            IntMatrix([[True]])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: IntMatrix([[1.0]]),
            lambda: IntMatrix([[True]]),
            lambda: IntMatrix([[1, 2], [3, "4"]]),
            lambda: IntMatrix.from_columns([[1.5]], rows=1),
            lambda: IntMatrix.from_columns([[1], [False]], rows=1),
            lambda: lattice_index([(1.0, 0)], [(1, 0), (0, 1)]),
        ],
        ids=["float", "bool", "string", "float-column", "bool-column", "float-lattice-vector"],
    )
    def test_public_entry_points_check_every_entry(self, build):
        with pytest.raises(ShapeError):
            build()

    def test_operations_build_without_the_public_checks(self, monkeypatch):
        """Matrices computed from matrices already held take the private
        constructor; each still equals, and hashes as, the public matrix on
        the same rows, empty shapes included."""
        rng = random.Random(31)
        shapes = [(3, 4), (4, 3), (1, 1), (0, 3), (3, 0), (0, 0)]
        held = {shape: [IntMatrix([[rng.randint(-5, 5) for _ in range(shape[1])]
                                   for _ in range(shape[0])], cols=shape[1])
                        for _ in range(2)]
                for shape in shapes}
        init, calls = IntMatrix.__init__, []
        monkeypatch.setattr(
            IntMatrix, "__init__", lambda m, *a, **k: calls.append(a) or init(m, *a, **k)
        )
        built = []
        for (r, c), (a, b) in held.items():
            built += [a + b, a - b, a.transpose(), a.hstack(b), IntMatrix.stack_rows([a, b])]
            built += [a @ b.transpose(), IntMatrix.identity(c), IntMatrix.zeros(r, c)]
        assert calls == []
        monkeypatch.setattr(IntMatrix, "__init__", init)
        for m in built:
            public = IntMatrix(m.to_lists(), cols=m.cols)
            assert (m.rows, m.cols) == (public.rows, public.cols)
            assert m == public and hash(m) == hash(public)
            assert all(type(row) is tuple for row in m.iter_rows())

    def test_big_integers_survive(self):
        big = 10**40
        m = IntMatrix([[big, 0], [0, big]])
        assert smith_normal_form(m).divisors == (big, big)
        assert cokernel_order(m) == Cardinal.finite(big * big)
