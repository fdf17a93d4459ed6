"""Exact linear algebra: frozen worked values, plus dual-route property tests.

The gcd-of-minors routine and the brute-force cokernel enumerator act as
independent oracles for the elimination-based Smith form.
"""

from __future__ import annotations

import math
import random

import pytest

from coincidence_kit.cardinal import Cardinal, INFINITE, cardinal_product
from coincidence_kit.errors import ContainmentError, ShapeError, SizeCapError
from coincidence_kit.exact_linalg import (
    MINORS_ORACLE_CAP,
    IntMatrix,
    cokernel_order,
    cokernel_order_bruteforce,
    determinant,
    elementary_divisors_via_minors,
    enumerate_cokernel,
    hermite_basis,
    kernel_basis,
    lattice_coordinates,
    lattice_index,
    rank,
    smith_normal_form,
    unimodular_inverse,
)

WORKED = IntMatrix([[2, 4, 1], [2, 6, 2]])


def random_matrix(rng, max_dim=6, lo=-20, hi=20, rows=None, cols=None):
    r = rows if rows is not None else rng.randint(1, max_dim)
    c = cols if cols is not None else rng.randint(1, max_dim)
    return IntMatrix([[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])


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
        res = smith_normal_form(WORKED)
        assert (res.s @ WORKED) @ res.t == res.d
        assert abs(determinant(res.s)) == 1
        assert abs(determinant(res.t)) == 1


class TestMinorsOracleCap:
    def test_cap_sits_between_shipped_sizes_and_ten_by_ten(self):
        assert math.comb(12, 6) - 1 <= MINORS_ORACLE_CAP  # 6x6, 923 minors
        assert math.comb(18, 9) - 1 <= MINORS_ORACLE_CAP  # 9x9
        assert math.comb(20, 10) - 1 > MINORS_ORACLE_CAP  # 10x10

    def test_oversized_input_refused_before_any_minor(self, monkeypatch):
        import coincidence_kit.exact_linalg as el

        def no_minors(*args):
            raise AssertionError("a minor was computed")

        monkeypatch.setattr(el, "_minor_det", no_minors)
        for rows, cols in ((10, 10), (16, 16), (4, 40)):
            with pytest.raises(SizeCapError, match="minors"):
                elementary_divisors_via_minors(IntMatrix.zeros(rows, cols))


class TestSmithProperties:
    def test_against_minors_oracle_and_invariants(self):
        rng = random.Random(20260816)
        for _ in range(100):
            m = random_matrix(rng)
            res = smith_normal_form(m)
            assert res.divisors == elementary_divisors_via_minors(m)
            assert (res.s @ m) @ res.t == res.d
            assert abs(determinant(res.s)) == 1
            assert abs(determinant(res.t)) == 1
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
            assert cokernel_order_bruteforce(m) == order
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
            # build a unimodular matrix from random elementary operations
            n = rng.randint(1, 12)
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
            mat = IntMatrix(m)
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

    def test_big_integers_survive(self):
        big = 10**40
        m = IntMatrix([[big, 0], [0, big]])
        assert smith_normal_form(m).divisors == (big, big)
        assert cokernel_order(m) == Cardinal.finite(big * big)
