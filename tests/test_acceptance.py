"""Acceptance gate: seven criteria, one visible PASS/FAIL line each.

Each criterion is a separate test; the line is printed outside pytest's
capture so it shows in the live run, and only after every assertion in the
criterion has held."""

from __future__ import annotations

import itertools
import random
import time

import pytest

from coincidence_kit.abelian import (
    AbelianSystem,
    divisibility_report,
    ker_psi_order,
    permute_system,
    reid_multi,
    reid_pair,
)
from coincidence_kit.cardinal import Cardinal, cardinal_product
from coincidence_kit.exact_linalg import (
    IntMatrix,
    cokernel_order,
    determinant,
    enumerate_cokernel,
    kernel_basis,
    smith_normal_form,
)
from coincidence_kit.finite import (
    binary_icosahedral_group,
    constant_hom,
    direct_product,
    projection_hom,
    twisted_reidemeister,
)
from coincidence_kit.nilpotent import (
    PcHom,
    central_reduction,
    combine_homs,
    direct_power_pc,
    heisenberg_group,
    identity_pc_hom,
    reid_nilpotent,
    reid_nilpotent_multi,
)
from coincidence_kit.reporting import STATUS_OK

from conftest import (
    conjugacy_class_count,
    elementary_divisors_via_minors,
    ker_psi_order_bruteforce,
)
from test_finite import C4_ENDOS, C6_TO_S3, S3_ENDOS, classes, oracle_classes
from test_nilpotent import (
    heis_cross_z,
    random_heis_endo,
    random_hz_to_heis,
    random_six_to_heis,
    recount_value,
    six_generator_domain,
    worked_triple,
)

TORUS4 = [[[1, 1, 1]], [[3, 5, 2]], [[3, 7, 3]], [[2, 1, 3]]]


@pytest.fixture
def announce(capsys):
    def _announce(line: str):
        with capsys.disabled():
            print(line)

    return _announce


def _random_matrix(rng, rows, cols, bound=4):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_criterion_1_worked_normal_form(announce):
    summary = "worked normal form: divisors (1, 2), cokernel order 2"
    try:
        m = IntMatrix([[2, 4, 1], [2, 6, 2]])
        snf = smith_normal_form(m)
        assert snf.divisors == (1, 2)
        assert cokernel_order(m) == Cardinal(2)
        assert kernel_basis(m) == [(1, -1, 2)]
    except BaseException:
        announce(f"FAIL criterion 1: {summary}")
        raise
    announce(f"PASS criterion 1: {summary}")


def test_criterion_2_torus_family(announce):
    summary = (
        "four torus maps: value 10, sub-triples 2, 1, 2, "
        "leave-one-out product 4 does not divide 10"
    )
    try:
        system = AbelianSystem(TORUS4)
        report = reid_multi(system)
        assert report.value == Cardinal(10)
        assert report.pairwise == (Cardinal(1), Cardinal(2), Cardinal(1))
        assert report.ker_psi_order == Cardinal(5)
        div = divisibility_report(system)
        assert div.pairwise_divides is True
        assert div.quotient_equals_ker_psi is True
        assert div.leave_one_out == (Cardinal(2), Cardinal(1), Cardinal(2))
        assert div.leave_one_out_product == Cardinal(4)
        assert div.leave_one_out_divides is False
        assert "4 does NOT divide 10" in div.witness
    except BaseException:
        announce(f"FAIL criterion 2: {summary}")
        raise
    announce(f"PASS criterion 2: {summary}")


def test_criterion_3_poincare_product(announce):
    summary = (
        "order-120 built-in group: 120 classes of size 120, pairwise 9 and 1, "
        "9 does not divide 120, under 2 seconds"
    )
    try:
        start = time.perf_counter()
        star = binary_icosahedral_group()
        assert star.order == 120
        assert conjugacy_class_count(star) == 9
        square = direct_product(star, star)
        p = projection_hom(square, 0)
        cbar = constant_hom(square, star)
        partition = twisted_reidemeister([p, p, cbar])
        assert partition.tuple_space == 14400
        assert partition.class_count == 120
        assert partition.class_sizes == (120,) * 120
        pair_pp = twisted_reidemeister([p, p]).value
        pair_pc = twisted_reidemeister([p, cbar]).value
        assert pair_pp == Cardinal(9)
        assert pair_pc == Cardinal(1)
        product = pair_pp * pair_pc
        assert not product.divides(partition.value)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"took {elapsed:.2f}s"
    except BaseException:
        announce(f"FAIL criterion 3: {summary}")
        raise
    announce(f"PASS criterion 3: {summary}")


def test_criterion_4_nilmanifold_triple(announce):
    summary = (
        "class-2 triple: quotient difference unimodular, sublattice "
        "difference of determinant 2, value 2"
    )
    try:
        domain = six_generator_domain()
        codomain = heisenberg_group()
        phi1, phi2, phi3 = worked_triple(domain, codomain)

        # stated collection facts inside the domain
        b = (0, 1, 0, 0, 0, 0)
        c = (0, 0, 0, 0, 1, 0)
        e = (0, 0, 0, 0, 0, 1)
        assert domain.commutator(b, e) == domain.identity()
        assert domain.commutator(c, e) == domain.identity()

        power = direct_power_pc(codomain, 2)
        first = combine_homs([phi1, phi1], power)
        second = combine_homs([phi2, phi3], power)
        red = central_reduction(first, second)
        assert abs(determinant(red.phi_bar - red.psi_bar)) == 1
        assert abs(determinant(red.phi_prime - red.psi_prime)) == 2

        report = reid_nilpotent_multi([phi1, phi2, phi3])
        assert report.status == STATUS_OK
        assert report.value == Cardinal(2)
        assert report.intermediates["im_delta"] == 1
        assert report.intermediates["quotient_count"] == 1
        assert report.intermediates["sublattice_count"] == 2
    except BaseException:
        announce(f"FAIL criterion 4: {summary}")
        raise
    announce(f"PASS criterion 4: {summary}")


def test_criterion_5_property_suites(announce):
    summary = (
        "property suites on 200+ random instances each: lower bound, exact "
        "factorization, divisibility, ordering invariance, padding "
        "invariance, square determinant law, under 5 seconds"
    )
    try:
        start = time.perf_counter()
        rng = random.Random(5050)

        # lower bound, exact factorization, divisibility — one abelian sweep
        factored = 0
        recounted = 0
        for _ in range(400):
            k = rng.choice([2, 3, 4])
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            system = AbelianSystem(
                [_random_matrix(rng, n, m) for _ in range(k)]
            )
            report = reid_multi(system)
            if not report.value.is_finite:
                continue
            product = cardinal_product(report.pairwise)
            assert all(p.is_finite for p in report.pairwise)
            assert product.value <= report.value.value  # lower bound
            assert product.divides(report.value)  # divisibility
            ker = ker_psi_order(system)
            assert product * ker == report.value  # exact factorization
            factored += 1
            try:
                recount = ker_psi_order_bruteforce(system, cap=5000)
            except Exception:
                recount = None
            if recount is not None:
                assert recount == ker
                recounted += 1
        assert factored >= 100
        assert recounted >= 50

        # ordering invariance, abelian engine, exhaustive over orderings
        for _ in range(200):
            k = rng.choice([2, 3])
            n, m = rng.randint(1, 2), rng.randint(1, 2)
            system = AbelianSystem([_random_matrix(rng, n, m, 3) for _ in range(k)])
            base = reid_multi(system).value
            for sigma in itertools.permutations(range(k)):
                assert reid_multi(permute_system(system, sigma)).value == base

        # ordering invariance, finite engine, exhaustive over orderings
        pools = [S3_ENDOS, C4_ENDOS, C6_TO_S3]
        for _ in range(200):
            pool = rng.choice(pools)
            k = rng.choice([2, 3])
            homs = [rng.choice(pool) for _ in range(k)]
            base = twisted_reidemeister(homs).value
            for sigma in itertools.permutations(range(k)):
                assert twisted_reidemeister([homs[i] for i in sigma]).value == base

        # padding the domain with zero columns changes nothing
        for _ in range(200):
            k = rng.choice([2, 3])
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            mats = [_random_matrix(rng, n, m) for _ in range(k)]
            pad = rng.randint(1, 2)
            padded = [[row + [0] * pad for row in mat] for mat in mats]
            original = reid_multi(AbelianSystem(mats))
            widened = reid_multi(AbelianSystem(padded))
            assert original.value == widened.value
            assert original.pairwise == widened.pairwise

        # square pairs: the count is |det| when nonzero, infinite otherwise
        for _ in range(200):
            n = rng.randint(1, 3)
            a = IntMatrix(_random_matrix(rng, n, n))
            b = IntMatrix(_random_matrix(rng, n, n))
            value = reid_pair(a.to_lists(), b.to_lists())
            det = determinant(b - a)
            if det:
                assert value == Cardinal(abs(det))
            else:
                assert not value.is_finite

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
    except BaseException:
        announce(f"FAIL criterion 5: {summary}")
        raise
    announce(f"PASS criterion 5: {summary}")


def test_criterion_6_oracle_equivalence(announce):
    summary = (
        "oracles: minors vs reduction on 100 matrices, enumeration vs "
        "divisor product, dual orbit algorithms, recount of the frozen "
        "pair value 16"
    )
    try:
        rng = random.Random(6060)

        # gcd-of-minors oracle on 100 random matrices up to 6x6
        for _ in range(100):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = IntMatrix(_random_matrix(rng, rows, cols, 20))
            assert smith_normal_form(m).divisors == elementary_divisors_via_minors(m)

        # enumeration recount whenever the cokernel is small enough
        counted = 0
        for _ in range(80):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            m = IntMatrix(_random_matrix(rng, rows, cols, 6))
            order = cokernel_order(m)
            if not order.is_finite or order.value > 10_000:
                continue
            assert len(enumerate_cokernel(m, cap=10_000)) == order.value
            counted += 1
        assert counted >= 20

        # both finite-engine algorithms find the brute-force representatives
        # and class sizes
        pools = [S3_ENDOS, C4_ENDOS, C6_TO_S3]
        for _ in range(40):
            pool = rng.choice(pools)
            homs = [rng.choice(pool) for _ in range(rng.choice([2, 3]))]
            expected = oracle_classes(homs)
            assert classes(twisted_reidemeister(homs, algorithm="orbit")) == expected
            assert classes(twisted_reidemeister(homs, algorithm="union-find")) == expected

        # frozen stretch-and-flip value, reconfirmed by the recount oracle
        heis = heisenberg_group()
        psi = PcHom(heis, heis, [(3, 0, 0), (0, -1, 0), (0, 0, -3)])
        report = reid_nilpotent(identity_pc_hom(heis), psi)
        assert report.value == Cardinal(16)
        assert recount_value(identity_pc_hom(heis), psi) == Cardinal(16)
    except BaseException:
        announce(f"FAIL criterion 6: {summary}")
        raise
    announce(f"PASS criterion 6: {summary}")


def test_criterion_7_counting_law_always_holds(announce):
    summary = (
        "value times connecting-image order equals the product of the two "
        "level counts on every computed class-2 instance"
    )
    try:
        rng = random.Random(7070)
        domain6 = six_generator_domain()
        hz = heis_cross_z()
        heis = heisenberg_group()

        instances = []
        phi1, phi2, phi3 = worked_triple(domain6, heis)
        instances.append((phi1, phi2))
        instances.append((phi1, phi3))
        for m in range(7):
            f = PcHom(hz, heis, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)])
            g = PcHom(hz, heis, [(3, 0, 0), (0, -1, 0), (0, 0, -3), (0, 0, m)])
            instances.append((f, g))
        for _ in range(120):
            kind = rng.randrange(3)
            if kind == 0:
                instances.append((random_heis_endo(rng), random_heis_endo(rng)))
            elif kind == 1:
                instances.append(
                    (random_six_to_heis(rng, domain6), random_six_to_heis(rng, domain6))
                )
            else:
                instances.append(
                    (random_hz_to_heis(rng, hz), random_hz_to_heis(rng, hz))
                )

        exercised = 0
        for phi, psi in instances:
            report = reid_nilpotent(phi, psi)
            if report.status != STATUS_OK or not report.value.is_finite:
                continue
            lhs = report.value.value * report.intermediates["im_delta"]
            rhs = (
                report.intermediates["sublattice_count"]
                * report.intermediates["quotient_count"]
            )
            assert lhs == rhs, f"law fails: {lhs} != {rhs}"
            exercised += 1
        assert exercised >= 40

        multi = reid_nilpotent_multi([phi1, phi2, phi3])
        lhs = multi.value.value * multi.intermediates["im_delta"]
        rhs = (
            multi.intermediates["sublattice_count"]
            * multi.intermediates["quotient_count"]
        )
        assert lhs == rhs
    except BaseException:
        announce(f"FAIL criterion 7: {summary}")
        raise
    announce(f"PASS criterion 7: {summary}")
