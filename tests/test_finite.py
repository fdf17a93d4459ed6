"""Finite-group twisted class counts: frozen worked values, a brute-force
relation oracle, dual-algorithm agreement, invariance properties, and a
cross-check against the free-abelian engine on cyclic targets."""

from __future__ import annotations

import itertools
import random

import pytest

from coincidence_kit.abelian import AbelianSystem, stacked_difference
from coincidence_kit.cardinal import Cardinal
from coincidence_kit.errors import (
    HomomorphismError,
    ShapeError,
    SizeCapError,
    StructureError,
)
from coincidence_kit.exact_linalg import IntMatrix, cokernel_order
from coincidence_kit.finite import (
    FiniteGroup,
    FiniteHom,
    binary_icosahedral_group,
    close_group,
    conjugacy_class_count,
    constant_hom,
    cyclic_group,
    direct_product,
    identity_hom,
    pairwise_divisibility_report,
    pairwise_values,
    projection_hom,
    twisted_reidemeister,
)

ICOSA = binary_icosahedral_group()
PROD = direct_product(ICOSA, ICOSA)
P1 = projection_hom(PROD, 0)
CBAR = constant_hom(PROD, ICOSA)

S3 = close_group([(1, 0, 2), (1, 2, 0)])
C2 = cyclic_group(2)
C3 = cyclic_group(3)
C4 = cyclic_group(4)
C6 = cyclic_group(6)
Z66_TABLE = [[(i + j) % 66 for j in range(66)] for i in range(66)]


def z66_loop():
    """Z/66 with 33 added at rows {26, 59} x columns {3, 36}: still a Latin
    square with identity 0, but (1*26)*3 = 62 while 1*(26*3) = 29."""
    table = [list(row) for row in Z66_TABLE]
    for i in (26, 59):
        for j in (3, 36):
            table[i][j] = (table[i][j] + 33) % 66
    return table


def all_homs(domain: FiniteGroup, codomain: FiniteGroup):
    """Every homomorphism between two small groups, by exhaustive filtering.

    Deliberately naive so it owes nothing to the package's hom machinery.
    """
    n, m = domain.order, codomain.order
    found = []
    for image in itertools.product(range(m), repeat=n):
        if image[domain.identity] != codomain.identity:
            continue
        if all(
            image[domain.mul(a, b)] == codomain.mul(image[a], image[b])
            for a in range(n)
            for b in range(n)
        ):
            found.append(FiniteHom(domain, codomain, image, check=False))
    return found


S3_ENDOS = all_homs(S3, S3)
C4_ENDOS = all_homs(C4, C4)
C6_TO_S3 = all_homs(C6, S3)


def oracle_partition(homs):
    """Independent oracle: classify tuples by the defining relation alone.

    For each pair of tuples it scans every domain element looking for a
    witness, with no image-tuple dedup, no orbit expansion, no union-find.
    """
    domain = homs[0].domain
    codomain = homs[0].codomain
    arity = len(homs) - 1
    n = codomain.order
    total = n**arity

    def decode(t):
        digits = []
        for _ in range(arity):
            t, r = divmod(t, n)
            digits.append(r)
        digits.reverse()
        return tuple(digits)

    tuples = [decode(t) for t in range(total)]

    def related(a, b):
        for z in range(domain.order):
            if all(
                codomain.mul(
                    codomain.mul(homs[0].image[z], tuples[a][i]),
                    codomain.inv(homs[i + 1].image[z]),
                )
                == tuples[b][i]
                for i in range(arity)
            ):
                return True
        return False

    class_of = [-1] * total
    nxt = 0
    for s in range(total):
        if class_of[s] != -1:
            continue
        for t in range(s, total):
            if class_of[t] == -1 and related(s, t):
                class_of[t] = nxt
        nxt += 1
    return class_of


# -- group construction --------------------------------------------------------


class TestGroupConstruction:
    def test_binary_icosahedral_order_and_classes(self):
        assert ICOSA.order == 120
        assert ICOSA.identity == 0
        assert conjugacy_class_count(ICOSA) == 9

    def test_icosahedral_group_laws_spot(self):
        rng = random.Random(7)
        for _ in range(300):
            a, b = rng.randrange(120), rng.randrange(120)
            assert ICOSA.mul(a, ICOSA.inv(a)) == 0
            assert ICOSA.inv(ICOSA.mul(a, b)) == ICOSA.mul(ICOSA.inv(b), ICOSA.inv(a))

    def test_unique_element_of_order_two(self):
        # The center is {1, -1}; exactly one non-identity element squares to 1.
        squares_to_id = [x for x in range(1, 120) if ICOSA.mul(x, x) == 0]
        assert len(squares_to_id) == 1

    def test_symmetric_group_closure(self):
        assert S3.order == 6
        assert conjugacy_class_count(S3) == 3
        s4 = close_group([(1, 0, 2, 3), (1, 2, 3, 0)])
        assert s4.order == 24
        assert conjugacy_class_count(s4) == 5

    def test_cyclic_groups(self):
        assert C4.order == 4
        assert C4.mul(3, 2) == 1
        assert C4.inv(1) == 3
        assert conjugacy_class_count(C4) == 4

    def test_closure_determinism(self):
        a = close_group([(1, 0, 2, 3), (1, 2, 3, 0)])
        b = close_group([(1, 0, 2, 3), (1, 2, 3, 0)])
        assert a._table == b._table
        assert a.elements == b.elements

    def test_closure_cap(self):
        with pytest.raises(SizeCapError):
            close_group([(1, 0, 2, 3), (1, 2, 3, 0)], cap=10)

    def test_matrix_closure_validation(self):
        with pytest.raises(StructureError):
            close_group([((1, 0), (0, 1))], field=4)  # not prime
        with pytest.raises(StructureError):
            close_group([((1, 1), (2, 2))], field=5)  # singular
        with pytest.raises(StructureError):
            close_group([(0, 1, 1)])  # not a permutation

    def test_from_table_rejects_non_group(self):
        with pytest.raises(StructureError):
            FiniteGroup.from_table([[0, 1], [0, 1]])  # repeated column entries
        # subtraction mod 3: rows and columns permute but no two-sided identity
        sub3 = [[(i - j) % 3 for j in range(3)] for i in range(3)]
        with pytest.raises(StructureError):
            FiniteGroup.from_table(sub3)
        # a Latin square with identity that fails associativity:
        # (1*1)*2 = 0*2 = 2 but 1*(1*2) = 1*3 = 4
        loop5 = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
        with pytest.raises(StructureError):
            FiniteGroup.from_table(loop5)

    def test_from_table_rejects_order_66_loop(self):
        assert FiniteGroup.from_table(Z66_TABLE).order == 66
        with pytest.raises(StructureError, match="associativity"):
            FiniteGroup.from_table(z66_loop())

    def test_generators_reach_the_whole_group(self):
        nested = direct_product(direct_product(C2, S3), C4)
        klein = FiniteGroup.from_table(
            [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
        )
        groups = [
            S3,
            close_group([(1, 0, 2, 3), (1, 2, 3, 0)]),
            ICOSA,
            cyclic_group(1),
            C6,
            klein,
            FiniteGroup.from_table(Z66_TABLE),
            nested,
            PROD,
        ]
        for g in groups:
            gens = g.generators()
            reached = {g.identity}
            frontier = [g.identity]
            while frontier:
                x = frontier.pop()
                for s in gens:
                    y = g.mul(x, s)
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
            assert len(reached) == g.order, g
        assert cyclic_group(1).generators() == []
        assert C6.generators() == [1]
        assert len(nested.generators()) <= 4

    def test_from_table_accepts_klein_four(self):
        klein = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
        g = FiniteGroup.from_table(klein)
        assert g.order == 4
        assert g.identity == 0
        assert conjugacy_class_count(g) == 4
        assert FiniteGroup.from_table(klein, identity=0).identity == 0
        with pytest.raises(StructureError, match="identity"):
            FiniteGroup.from_table(klein, identity=1)

    def test_direct_product_small_follows_componentwise_law(self):
        g = direct_product(C2, C3)
        assert g.order == 6
        # componentwise law: (a1,b1)(a2,b2) indexes must match the pair formula
        for i in range(6):
            for j in range(6):
                i1, i2 = divmod(i, 3)
                j1, j2 = divmod(j, 3)
                assert g.mul(i, j) == C2.mul(i1, j1) * 3 + C3.mul(i2, j2)

    def test_direct_product_large_is_implicit(self):
        assert PROD._table is None
        assert PROD.order == 14400
        assert PROD.identity == 0
        rng = random.Random(3)
        for _ in range(200):
            i, j = rng.randrange(14400), rng.randrange(14400)
            i1, i2 = divmod(i, 120)
            j1, j2 = divmod(j, 120)
            assert PROD.mul(i, j) == ICOSA.mul(i1, j1) * 120 + ICOSA.mul(i2, j2)
            assert PROD.mul(i, PROD.inv(i)) == 0

    def test_direct_product_order_cap(self):
        with pytest.raises(SizeCapError):
            direct_product(ICOSA, PROD)  # 120 * 14400 > 1_000_000


# -- homomorphisms -------------------------------------------------------------


class TestHoms:
    def test_projection_and_constant(self):
        assert P1.image[14399] == 119
        assert P1.image[120] == 1
        P1.validate()
        p2 = projection_hom(PROD, 1)
        assert p2.image[14399] == 119
        assert p2.image[120] == 0
        p2.validate()
        assert set(CBAR.image) == {0}
        CBAR.validate()
        with pytest.raises(StructureError):
            projection_hom(ICOSA, 0)
        with pytest.raises(StructureError):
            projection_hom(PROD, 2)

    def test_identity_hom(self):
        h = identity_hom(S3)
        h.validate()
        assert [h(i) for i in range(6)] == list(range(6))

    def test_rejects_non_hom(self):
        with pytest.raises(HomomorphismError):
            FiniteHom(C4, C4, [0, 1, 2, 2])
        with pytest.raises(HomomorphismError):
            FiniteHom(C4, C4, [1, 0, 3, 2])  # identity not preserved
        with pytest.raises(HomomorphismError):
            FiniteHom(C4, C4, [0, 1, 2])  # wrong length
        with pytest.raises(HomomorphismError):
            FiniteHom(C4, C4, [0, 1, 2, True])  # bool is not an index

    def test_rejects_non_hom_on_product_domain(self):
        # the first projection with one entry moved: only products that
        # involve element 2 expose it
        image = [i // 120 for i in range(PROD.order)]
        FiniteHom(PROD, ICOSA, image)
        image[2] = 1
        with pytest.raises(HomomorphismError, match="multiplicativity"):
            FiniteHom(PROD, ICOSA, image)

    def test_exhaustive_hom_pools(self):
        # x -> a*x is an endomorphism of Z/4 for each a, and nothing else is
        assert len(C4_ENDOS) == 4
        # endomorphisms of S3: trivial, 3 onto the order-2 subgroups (one per
        # transposition kernel... via the sign map), and 6 automorphisms
        assert len(S3_ENDOS) == 10
        for h in S3_ENDOS:
            h.validate()


# -- frozen worked values ------------------------------------------------------


class TestPoincareProjections:
    """Two projections and a constant map on the product of two copies of the
    order-120 sphere group."""

    def test_triple_value(self):
        part = twisted_reidemeister([P1, P1, CBAR])
        assert part.tuple_space == 14400
        assert part.class_count == 120
        assert part.value == Cardinal(120)
        assert set(part.class_sizes) == {120}

    def test_pair_values(self):
        assert twisted_reidemeister([P1, P1]).class_count == 9
        assert twisted_reidemeister([P1, CBAR]).class_count == 1
        assert pairwise_values([P1, P1, CBAR]) == (Cardinal(9), Cardinal(1))

    def test_pair_matches_conjugacy(self):
        # equal maps twist by plain conjugation in the image
        assert twisted_reidemeister([P1, P1]).class_count == conjugacy_class_count(
            ICOSA
        )

    def test_divisibility_fails_here(self):
        report = pairwise_divisibility_report([P1, P1, CBAR])
        assert report.value == Cardinal(120)
        assert report.pairwise == (Cardinal(9), Cardinal(1))
        assert report.product == Cardinal(9)
        assert report.divides is False
        assert "does NOT divide" in report.witness

    def test_dual_algorithms_agree_on_triple(self):
        orbit = twisted_reidemeister([P1, P1, CBAR], algorithm="orbit")
        uf = twisted_reidemeister([P1, P1, CBAR], algorithm="union-find")
        assert orbit.class_of == uf.class_of


# -- degenerate cases ----------------------------------------------------------


class TestDegenerations:
    def test_equal_maps_give_conjugacy_classes(self):
        ids3 = identity_hom(S3)
        assert twisted_reidemeister([ids3, ids3]).class_count == 3
        idc4 = identity_hom(C4)
        assert twisted_reidemeister([idc4, idc4]).class_count == 4

    def test_identity_against_constant(self):
        ids3 = identity_hom(S3)
        cs3 = constant_hom(S3, S3)
        # either order: the action is free translation, one class
        assert twisted_reidemeister([ids3, cs3]).class_count == 1
        assert twisted_reidemeister([cs3, ids3]).class_count == 1

    def test_two_constants_fix_everything(self):
        cs3 = constant_hom(S3, S3)
        part = twisted_reidemeister([cs3, cs3])
        assert part.class_count == 6
        assert set(part.class_sizes) == {1}


# -- oracle and property tests -------------------------------------------------


def _conjugated(h: FiniteHom, c: int) -> FiniteHom:
    g = h.codomain
    return FiniteHom(
        h.domain, g, [g.mul(g.mul(c, v), g.inv(c)) for v in h.image], check=False
    )


class TestProperties:
    def test_partition_matches_oracle(self):
        rng = random.Random(101)
        cases = []
        for _ in range(30):
            k = rng.choice([2, 3])
            cases.append([rng.choice(S3_ENDOS) for _ in range(k)])
        for _ in range(20):
            k = rng.choice([2, 3])
            cases.append([rng.choice(C4_ENDOS) for _ in range(k)])
        for _ in range(10):
            k = rng.choice([2, 3])
            cases.append([rng.choice(C6_TO_S3) for _ in range(k)])
        for homs in cases:
            expected = oracle_partition(homs)
            orbit = twisted_reidemeister(homs, algorithm="orbit")
            uf = twisted_reidemeister(homs, algorithm="union-find")
            assert list(orbit.class_of) == expected
            assert list(uf.class_of) == expected

    def test_class_sizes_partition_and_divide(self):
        rng = random.Random(202)
        for _ in range(60):
            k = rng.choice([2, 3])
            homs = [rng.choice(S3_ENDOS) for _ in range(k)]
            part = twisted_reidemeister(homs)
            assert sum(part.class_sizes) == part.tuple_space
            for s in part.class_sizes:
                assert homs[0].domain.order % s == 0

    def test_invariant_under_codomain_conjugation(self):
        rng = random.Random(303)
        for _ in range(60):
            k = rng.choice([2, 3])
            homs = [rng.choice(S3_ENDOS) for _ in range(k)]
            c = rng.randrange(S3.order)
            base = twisted_reidemeister(homs)
            moved = twisted_reidemeister([_conjugated(h, c) for h in homs])
            assert base.class_count == moved.class_count
            assert sorted(base.class_sizes) == sorted(moved.class_sizes)

    def test_invariant_under_reordering(self):
        rng = random.Random(404)
        for _ in range(60):
            k = rng.choice([2, 3])
            homs = [rng.choice(S3_ENDOS) for _ in range(k)]
            sigma = list(range(k))
            rng.shuffle(sigma)
            base = twisted_reidemeister(homs)
            moved = twisted_reidemeister([homs[i] for i in sigma])
            assert base.class_count == moved.class_count
            assert sorted(base.class_sizes) == sorted(moved.class_sizes)

    def test_poincare_triple_reorderings(self):
        for homs in itertools.permutations([P1, P1, CBAR]):
            assert twisted_reidemeister(list(homs)).class_count == 120


# -- cross-check against the free-abelian engine --------------------------------


def _mod_n_power_group(n: int, s: int) -> FiniteGroup:
    g = cyclic_group(n)
    for _ in range(s - 1):
        g = direct_product(g, cyclic_group(n))
    return g


def _digits(i: int, n: int, s: int):
    out = []
    for _ in range(s):
        i, r = divmod(i, n)
        out.append(r)
    out.reverse()
    return out


def _matrix_hom_mod_n(matrix, n: int, domain: FiniteGroup, codomain: FiniteGroup,
                      s: int) -> FiniteHom:
    image = []
    for i in range(domain.order):
        x = _digits(i, n, s)
        image.append(sum(matrix[0][j] * x[j] for j in range(s)) % n)
    return FiniteHom(domain, codomain, image)


class TestCrossEngineCyclic:
    """Maps Z^s -> Z/n factor through (Z/n)^s, so the twisted count must equal
    the cokernel of the stacked difference matrix with n*identity adjoined."""

    def test_matches_abelian_cokernel(self):
        rng = random.Random(505)
        for _ in range(40):
            n = rng.choice([2, 3, 4, 5])
            s = rng.choice([1, 2])
            k = rng.choice([2, 3])
            domain = _mod_n_power_group(n, s)
            codomain = cyclic_group(n)
            mats = [
                [[rng.randrange(-6, 7) for _ in range(s)]] for _ in range(k)
            ]
            homs = [
                _matrix_hom_mod_n([[v % n for v in m[0]]], n, domain, codomain, s)
                for m in mats
            ]
            count = twisted_reidemeister(homs).class_count

            stacked = stacked_difference(AbelianSystem(mats))
            rows = stacked.rows
            n_block = IntMatrix(
                [[n if i == j else 0 for j in range(rows)] for i in range(rows)]
            )
            expected = cokernel_order(stacked.hstack(n_block))
            assert expected.is_finite
            assert count == expected.value


# -- caps and input errors -------------------------------------------------------


class TestGuards:
    def test_tuple_space_cap(self):
        with pytest.raises(SizeCapError):
            twisted_reidemeister([P1, P1, CBAR], tuple_cap=10_000)

    def test_work_cap_refuses_rather_than_samples(self):
        with pytest.raises(SizeCapError, match="refusing"):
            twisted_reidemeister([P1, P1, CBAR], work_cap=100_000)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            twisted_reidemeister([identity_hom(S3)])
        with pytest.raises(ShapeError):
            twisted_reidemeister([identity_hom(S3), identity_hom(C4)])
        mixed = [identity_hom(C4), all_homs(C4, C2)[0]]
        with pytest.raises(ShapeError):
            twisted_reidemeister(mixed)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            twisted_reidemeister([P1, P1], algorithm="montecarlo")
