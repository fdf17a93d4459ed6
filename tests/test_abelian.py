"""Torus-target engine: worked systems, surjection bookkeeping, invariances."""

from __future__ import annotations

import random
from itertools import permutations

import pytest

import coincidence_kit.exact_linalg as el
from coincidence_kit.abelian import (
    AbelianSystem,
    divisibility_report,
    ker_psi_order,
    permute_system,
    reid_multi,
    reid_pair,
    stacked_difference,
)
from coincidence_kit.cardinal import Cardinal, INFINITE, cardinal_product
from coincidence_kit.errors import ConsistencyError, ShapeError
from coincidence_kit.exact_linalg import IntMatrix, cokernel_order, smith_normal_form

from conftest import ker_psi_order_bruteforce

# Four circle-valued maps on the 3-torus; the running example.
TORUS4 = AbelianSystem([[[1, 1, 1]], [[3, 5, 2]], [[3, 7, 3]], [[2, 1, 3]]])


def _sub(system, keep):
    return AbelianSystem([system.homs[i] for i in keep])


def _value(system) -> Cardinal:
    return cokernel_order(stacked_difference(system))


def random_system(rng, k=None, n=None, m=None, lo=-6, hi=6):
    k = k or rng.randint(2, 4)
    n = n or rng.randint(1, 2)
    m = m or rng.randint(1, 3)
    return AbelianSystem(
        [
            [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]
            for _ in range(k)
        ]
    )


class TestWorkedSystem:
    def test_stacking(self):
        assert stacked_difference(TORUS4) == IntMatrix(
            [[2, 4, 1], [2, 6, 2], [1, 0, 2]]
        )

    def test_full_value_is_ten(self):
        report = reid_multi(TORUS4)
        assert report.value == Cardinal.finite(10)

    def test_sub_triples(self):
        assert _value(_sub(TORUS4, [0, 1, 2])) == Cardinal.finite(2)
        assert _value(_sub(TORUS4, [0, 1, 3])) == Cardinal.finite(1)
        assert _value(_sub(TORUS4, [0, 2, 3])) == Cardinal.finite(2)

    def test_leave_one_out_product_fails_to_divide(self):
        report = divisibility_report(TORUS4)
        assert report.leave_one_out == (
            Cardinal.finite(2),
            Cardinal.finite(1),
            Cardinal.finite(2),
        )
        assert report.leave_one_out_product == Cardinal.finite(4)
        assert report.leave_one_out_divides is False

    def test_pairwise_product_divides_with_ker_psi_quotient(self):
        report = divisibility_report(TORUS4)
        assert report.pairwise == (
            Cardinal.finite(1),
            Cardinal.finite(2),
            Cardinal.finite(1),
        )
        assert report.pairwise_product == Cardinal.finite(2)
        assert report.pairwise_divides is True
        # frozen after the brute-force recount confirmed it
        assert report.ker_psi == Cardinal.finite(5)
        assert report.quotient == Cardinal.finite(5)
        assert report.quotient_equals_ker_psi is True

    def test_triple_ker_psi_is_one(self):
        triple = _sub(TORUS4, [0, 1, 2])
        assert ker_psi_order(triple) == Cardinal.finite(1)
        assert ker_psi_order_bruteforce(triple) == Cardinal.finite(1)

    def test_full_ker_psi_bruteforce_agrees(self):
        assert ker_psi_order_bruteforce(TORUS4) == Cardinal.finite(5)


class TestPairs:
    def test_pair_via_gcd(self):
        # coker of a 1x3 row is Z/gcd
        assert reid_pair([[1, 1, 1]], [[3, 5, 2]]) == Cardinal.finite(1)
        assert reid_pair([[1, 1, 1]], [[3, 7, 3]]) == Cardinal.finite(2)

    def test_equal_maps_give_infinite(self):
        assert reid_pair([[2, 3]], [[2, 3]]) == INFINITE

    def test_square_case_is_absolute_determinant(self):
        rng = random.Random(53)
        for _ in range(200):
            n = rng.randint(1, 3)
            a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            diff = IntMatrix(b) - IntMatrix(a)
            from coincidence_kit.exact_linalg import determinant

            det = determinant(diff)
            expected = INFINITE if det == 0 else Cardinal.finite(abs(det))
            assert reid_pair(a, b) == expected

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            reid_pair([[1, 2]], [[1], [2]])


class TestSurjectionLaw:
    def test_value_factors_through_pairwise_and_kernel(self):
        rng = random.Random(59)
        done = 0
        while done < 200:
            system = random_system(rng)
            value = _value(system)
            if not value.is_finite:
                continue
            pairwise = [reid_pair(system.homs[0], h) for h in system.homs[1:]]
            ker = ker_psi_order(system)
            assert cardinal_product(pairwise) * ker == value
            done += 1

    def test_value_bounds_pairwise_product(self):
        # the product of pairwise numbers never exceeds a finite total
        rng = random.Random(61)
        done = 0
        while done < 200:
            system = random_system(rng)
            value = _value(system)
            if not value.is_finite:
                continue
            pairwise = [reid_pair(system.homs[0], h) for h in system.homs[1:]]
            product = cardinal_product(pairwise)
            assert product.divides(value)
            assert product <= value
            done += 1

    def test_bruteforce_kernel_matches_lattice_route(self):
        rng = random.Random(67)
        done = 0
        while done < 60:
            system = random_system(rng, lo=-4, hi=4)
            value = _value(system)
            if not value.is_finite or value.value > 400:
                continue
            assert ker_psi_order_bruteforce(system) == ker_psi_order(system)
            done += 1


class TestInvariances:
    def test_permutation_invariance_exhaustive(self):
        rng = random.Random(71)
        for k in (2, 3, 4):
            for _ in range(70):
                system = random_system(rng, k=k)
                base = _value(system)
                for sigma in permutations(range(k)):
                    assert _value(permute_system(system, sigma)) == base

    def test_worked_system_all_orderings(self):
        for sigma in permutations(range(4)):
            assert _value(permute_system(TORUS4, sigma)) == Cardinal.finite(10)

    def test_zero_column_padding(self):
        rng = random.Random(73)
        for _ in range(200):
            system = random_system(rng)
            extra = rng.randint(1, 3)
            padded = AbelianSystem(
                [
                    h.hstack(IntMatrix.zeros(h.rows, extra))
                    for h in system.homs
                ]
            )
            assert _value(padded) == _value(system)

    def test_negating_differences(self):
        # replacing every map by its reflection through phi_1 negates all
        # difference blocks and cannot change the value
        rng = random.Random(79)
        for _ in range(200):
            system = random_system(rng)
            base = system.homs[0]
            reflected = AbelianSystem(
                [base] + [base - (h - base) for h in system.homs[1:]]
            )
            assert _value(reflected) == _value(system)

    def test_prop_shape_for_two_column_rows(self):
        # phi_j - phi_1 = d_j * (coprime row): value is d_12 d_13 |AD - BC|
        rng = random.Random(83)
        from math import gcd

        done = 0
        while done < 200:
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            c, d = rng.randint(-5, 5), rng.randint(-5, 5)
            if gcd(a, b) != 1 or gcd(c, d) != 1:
                continue
            d12, d13 = rng.randint(1, 6), rng.randint(1, 6)
            base = [[rng.randint(-4, 4), rng.randint(-4, 4)]]
            phi2 = [[base[0][0] + d12 * a, base[0][1] + d12 * b]]
            phi3 = [[base[0][0] + d13 * c, base[0][1] + d13 * d]]
            system = AbelianSystem([base, phi2, phi3])
            det = a * d - b * c
            expected = INFINITE if det == 0 else Cardinal.finite(d12 * d13 * abs(det))
            assert _value(system) == expected
            assert reid_pair(system.homs[0], system.homs[1]) == Cardinal.finite(d12)
            assert reid_pair(system.homs[0], system.homs[2]) == Cardinal.finite(d13)
            done += 1


class TestReports:
    def test_all_equal_maps_not_applicable(self):
        h = [[2, 1]]
        report = divisibility_report(AbelianSystem([h, h, h]))
        assert report.applicable is False
        assert "not applicable" in report.witness

    def test_report_invariant_guard(self):
        report = reid_multi(TORUS4)
        assert report.value.is_finite
        assert all(p.is_finite for p in report.pairwise)
        assert report.ker_psi_order == Cardinal.finite(5)
        assert any("invariant factors" in line for line in report.trace)

    def test_nielsen_annotation_present(self):
        report = reid_multi(TORUS4)
        assert "Nielsen" in report.intermediates["nielsen_note"]

    def test_system_needs_two_maps(self):
        with pytest.raises(ShapeError):
            AbelianSystem([[[1, 2]]])

    def test_ker_psi_requires_finite_value(self):
        h = IntMatrix([[1, 0]])
        with pytest.raises(ValueError):
            ker_psi_order(AbelianSystem([h, h]))


def seeded_finite_systems(seed, count):
    """Finite systems with k 4-8 maps Z^m -> Z^n, n 1-4, m = n(k-1) + 0..2,
    entries within +-1, +-2 or +-4; about 30 % have maps 2..k scaled by 2, 3
    or 6, which makes every Hermite pivot of the stack nontrivial."""
    rng = random.Random(seed)
    systems = []
    while len(systems) < count:
        k, n = rng.randint(4, 8), rng.randint(1, 4)
        m = n * (k - 1) + rng.randint(0, 2)
        bound = rng.choice((1, 2, 4))
        maps = [
            [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
            for _ in range(k)
        ]
        if rng.random() < 0.3:
            scale = rng.choice((2, 3, 6))
            maps[1:] = [[[scale * x for x in row] for row in h] for h in maps[1:]]
        system = AbelianSystem(maps)
        if _value(system).is_finite:
            systems.append(system)
    return systems


def stack_by_stack(system):
    """Each leave-one-out value from its own stack."""
    blocks = system.blocks
    return tuple(
        cokernel_order(IntMatrix.stack_rows(blocks[:j] + blocks[j + 1 :]))
        for j in range(len(blocks))
    )


class TestLeaveOneOutFromDual:
    """divisibility_report reads every leave-one-out value off the dual of one
    Hermite basis of the stack; each must equal its own stack's order."""

    @pytest.fixture(scope="class")
    def systems(self):
        return seeded_finite_systems(11, 120)

    def test_equal_to_each_stack_on_its_own(self, systems):
        nontrivial = noncyclic = 0
        for system in systems:
            want = stack_by_stack(system)
            assert divisibility_report(system).leave_one_out == want, system.homs
            nontrivial += any(v != Cardinal(1) for v in want)
            divisors = smith_normal_form(stacked_difference(system)).divisors
            noncyclic += sum(d > 1 for d in divisors) > 1
        # the seeded set reaches nontrivial values and non-cyclic cokernels
        assert nontrivial >= 60 and noncyclic >= 40, (nontrivial, noncyclic)

    @pytest.mark.parametrize("scale", [2, 3, 6])
    def test_scaled_stacks(self, scale):
        # map 1 zero and maps 2..k scaled: every pivot of the stack is a
        # multiple of the scale, so each leave-one-out value is a multiple
        # of scale^(R - n) > 1.  A square stack's basis is triangulated
        # modulo the value; a wide one's is the one its index route kept,
        # entries modulo the maximal minors' gcd, or modulo the windows'
        # past 2 * (R + _WINDOW) columns
        rng = random.Random(scale)
        for extra in [0] * 5 + [1, 2, "window"] * 30:
            k, n = rng.randint(4, 6), rng.randint(1, 3)
            rows = n * (k - 1)
            m = rows + extra if extra != "window" else 2 * (rows + el._WINDOW) + 1
            maps = [[[0] * m] * n] + [
                [[scale * rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
                for _ in range(k - 1)
            ]
            system = AbelianSystem(maps)
            assert _value(system).is_finite
            kept = system._stacked_smith()._basis
            assert (kept is None) == (extra == 0)
            want = stack_by_stack(system)
            assert divisibility_report(system).leave_one_out == want
            if kept is not None:
                assert system._stacked_smith()._basis is kept
            assert all(v.value % scale ** (rows - n) == 0 for v in want)

    def test_empty_target(self):
        system = AbelianSystem([IntMatrix([], cols=3)] * 4)
        report = divisibility_report(system)
        assert report.value == Cardinal(1)
        assert report.leave_one_out == (Cardinal(1),) * 3

    def test_broken_back_substitution_is_caught(self, monkeypatch, systems):
        def unit_seeded(basis, v):
            """_dual_generators with y_t = 1 in place of v / h_t."""
            gens = []
            for t, row_t in enumerate(basis):
                if row_t[0] == 1:
                    continue
                y = [0] * len(basis)
                y[t] = 1
                for i in range(t - 1, -1, -1):
                    row = basis[i]
                    x = -sum(y[r] * row[r - i] for r in range(i + 1, t + 1)) % v
                    q, rest = divmod(x, row[0])
                    if rest:
                        raise ConsistencyError("residue not divisible")
                    y[i] = q
                gens.append(y)
            return gens

        monkeypatch.setattr(el, "_dual_generators", unit_seeded)
        raised = unequal = 0
        for system in systems:
            try:
                got = divisibility_report(system).leave_one_out
            except ConsistencyError:
                raised += 1
            else:
                unequal += got != stack_by_stack(system)
        assert raised + unequal > 0, "a broken dual went unnoticed"


def _bare_smith_order(m: IntMatrix) -> Cardinal:
    """Cokernel order from the bare Smith loop, with no index route."""
    return el.SnfResult(m, el._smith_divisors(m.to_lists())).cokernel_order()


class TestPairwiseFromTheStackedOrder:
    """reid_multi takes each pairwise value with the stacked value V as a
    known multiple, V being finite; a rank-deficient stack passes none.  The
    values must equal each block's cokernel_order, taken with no multiple,
    and the bare Smith loop's."""

    @pytest.fixture
    def multiples(self, monkeypatch):
        """The multiple of every order reid_multi asks for."""
        import coincidence_kit.abelian as abelian

        passed = []
        original = abelian._cokernel_order

        def recording(m, *, multiple=0):
            passed.append(multiple)
            return original(m, multiple=multiple)

        monkeypatch.setattr(abelian, "_cokernel_order", recording)
        return passed

    def _check(self, system, multiples):
        multiples.clear()
        report = reid_multi(system)
        blocks = system.blocks
        assert report.pairwise == tuple(map(cokernel_order, blocks))
        assert report.pairwise == tuple(map(_bare_smith_order, blocks))
        expected = report.value.value if report.value.is_finite else 0
        assert multiples == [expected] * len(blocks)
        return report

    def test_square_and_wide_stacks(self, multiples):
        rng = random.Random(4040)
        above_one = scaled = 0
        for trial in range(120):
            k, n = rng.randint(3, 6), rng.randint(1, 3)
            m = (k - 1) * n + trial % 2  # square, then wide
            p = rng.choice([1, 1, 2, 3, 5])
            maps = [[[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)] for _ in range(k)]
            maps = [[[p * x for x in row] for row in h] for h in maps]
            report = self._check(AbelianSystem(maps), multiples)
            if report.value.is_finite and report.value != Cardinal(1):
                above_one += 1
                scaled += p > 1 and max(report.pairwise) > Cardinal(1)
        assert above_one >= 80 and scaled >= 20, (above_one, scaled)

    def test_rank_deficient_stacks_pass_no_multiple(self, multiples):
        report = self._check(AbelianSystem([[[1, 2]], [[3, 4]], [[5, 6]]]), multiples)
        assert report.value == INFINITE
        assert report.pairwise == (Cardinal(2), Cardinal(4))
        rng = random.Random(4141)
        finite = 0
        for _ in range(60):
            k, n = rng.randint(3, 6), rng.randint(1, 3)
            m = rng.randint(n, (k - 1) * n - 1)  # each block wide or square, the stack tall
            maps = [[[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)] for _ in range(k)]
            report = self._check(AbelianSystem(maps), multiples)
            assert report.value == INFINITE
            finite += all(p.is_finite for p in report.pairwise)
        assert finite >= 40, finite
