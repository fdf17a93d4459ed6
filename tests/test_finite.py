"""Finite-group twisted class counts: frozen worked values, a brute-force
relation oracle, dual-algorithm agreement, invariance properties, and a
cross-check against the free-abelian engine on cyclic targets."""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest

from coincidence_kit import cli, finite
from coincidence_kit.abelian import AbelianSystem, stacked_difference
from coincidence_kit.cardinal import Cardinal
from coincidence_kit.errors import (
    ConsistencyError,
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
    constant_hom,
    cyclic_group,
    direct_product,
    identity_hom,
    projection_hom,
    twisted_reidemeister,
)

from conftest import conjugacy_class_count

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
            found.append(FiniteHom._trusted(domain, codomain, image))
    return found


S3_ENDOS = all_homs(S3, S3)
C4_ENDOS = all_homs(C4, C4)
C6_TO_S3 = all_homs(C6, S3)


def oracle_partition(homs):
    """Independent oracle: list each class by its definition.

    The class of a tuple t is {z . t : z in the domain}, where z . t has
    coordinates phi_1(z) t_i phi_(i+1)(z)^(-1).  For each tuple not yet
    labelled it labels z . t for every z, computed from scratch: no
    image-tuple dedup, no stabilizers, no union-find.
    """
    domain = homs[0].domain
    codomain = homs[0].codomain
    mul, inv = codomain.mul, codomain.inv
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

    class_of = [-1] * total
    nxt = 0
    for s in range(total):
        if class_of[s] != -1:
            continue
        digits = decode(s)
        for z in range(domain.order):
            t = 0
            for i in range(arity):
                x = mul(mul(homs[0].image[z], digits[i]), inv(homs[i + 1].image[z]))
                t = t * n + x
            class_of[t] = nxt
        nxt += 1
    return class_of


def oracle_classes(homs):
    """Each class's smallest tuple and size, read off oracle_partition's
    labels, which number the classes by their smallest tuple."""
    labels = oracle_partition(homs)
    count = max(labels) + 1
    return (
        tuple(labels.index(c) for c in range(count)),
        tuple(labels.count(c) for c in range(count)),
    )


def classes(part):
    return part.representatives, part.class_sizes


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

    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_cyclic_table_is_addition_mod_n(self, n):
        g = cyclic_group(n)
        assert g._table == [[(i + j) % n for j in range(n)] for i in range(n)]
        assert [g.inv(i) for i in range(n)] == [-i % n for i in range(n)]

    def test_cyclic_cap(self):
        assert cyclic_group(10, cap=10).order == 10
        with pytest.raises(SizeCapError, match="order 11 exceeds the cap of 10"):
            cyclic_group(11, cap=10)

    def test_matrix_closure_validation(self):
        with pytest.raises(StructureError):
            close_group([((1, 0), (0, 1))], field=4)  # not prime
        with pytest.raises(StructureError):
            close_group([((1, 1), (2, 2))], field=5)  # singular
        with pytest.raises(StructureError, match="singular over GF"):
            close_group([((1, 2), (3, 1))], field=5)  # det -5: singular mod 5 only
        with pytest.raises(StructureError):
            close_group([(0, 1, 1)])  # not a permutation

    @pytest.mark.parametrize(
        "gens, field, bad",
        [
            ([("1", "0", "2")], None, "'1'"),
            ([(1.9, 0.2, 2.0)], None, "1.9"),
            ([(1, 0, True)], None, "True"),
            ([((True, 1), (0, 1))], 5, "True"),
            ([((1, 1), (0, 1.0))], 5, "1.0"),
        ],
    )
    def test_closure_rejects_non_integer_entries(self, gens, field, bad):
        # coercing by int(...) made groups of orders 2, 2 and 5 out of the
        # first two and the fourth; a bool is no integer entry either
        with pytest.raises(StructureError, match=f"holds {bad}, not an integer"):
            close_group(gens, field=field)

    def test_from_table_rejects_non_group(self):
        with pytest.raises(StructureError):
            FiniteGroup.from_table([[0, 1], [0, 1]])  # repeated column entries
        # subtraction mod 3: rows and columns permute but no two-sided identity
        sub3 = [[(i - j) % 3 for j in range(3)] for i in range(3)]
        with pytest.raises(StructureError, match="two-sided identity"):
            FiniteGroup.from_table(sub3)
        # its transpose: row 0 is a left identity, column 0 is no right one
        with pytest.raises(StructureError, match="two-sided identity"):
            FiniteGroup.from_table([list(col) for col in zip(*sub3)])
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
        # x * y = x + y - 2 mod 3: the identity is found at index 2
        relabelled = [[(i + j - 2) % 3 for j in range(3)] for i in range(3)]
        assert FiniteGroup.from_table(relabelled).identity == 2

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


# -- closure along the Cayley graph ----------------------------------------------


def _perm_mul(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


# name -> (generators, field of the matrices or None for permutations, order)
CLOSURES = {
    "trivial": ([], None, 1),
    "S3": ([(1, 0, 2), (1, 2, 0)], None, 6),
    "S4": ([(1, 0, 2, 3), (1, 2, 3, 0)], None, 24),
    "A5": ([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], None, 60),
    "S5": ([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], None, 120),
    "GL23": ([((1, 1), (0, 1)), ((0, 1), (2, 0)), ((2, 0), (0, 1))], 3, 48),
    "SL25": ([((1, 1), (0, 1)), ((1, 0), (1, 1))], 5, 120),
    "BI": ([((1, 1), (0, 1)), ((0, -1), (1, 0))], 5, 120),
}


def _closure(name):
    """The closed group, BI through its builder, and its element product."""
    gens, field, order = CLOSURES[name]
    g = binary_icosahedral_group() if name == "BI" else close_group(gens, field=field)
    assert g.order == order
    if field is None:
        return g, _perm_mul
    return g, lambda a, b: finite._matrix_mul(a, b, field)


class TestCayleyGraphClosure:
    """close_group forms one product per Cayley-graph edge and fills the
    table by lookups; the table must equal the one built from all n^2
    products."""

    @pytest.mark.parametrize("name", ["GL23", "SL25", "BI"])
    def test_matrix_closure_forms_one_product_per_edge(self, monkeypatch, name):
        original = finite._matrix_mul
        calls = []

        def counting(a, b, p):
            calls.append(p)
            return original(a, b, p)

        monkeypatch.setattr(finite, "_matrix_mul", counting)
        gens, _, order = CLOSURES[name]
        _closure(name)
        assert len(calls) <= order * len(gens)  # GL(2,3): 144, not 144 + 48^2

    @pytest.mark.parametrize("name", CLOSURES)
    def test_table_equals_all_pairs_reference(self, name):
        g, mul = _closure(name)
        index = {x: i for i, x in enumerate(g.elements)}
        assert len(index) == g.order
        reference = [[index[mul(a, b)] for b in g.elements] for a in g.elements]
        assert g._table == reference
        assert FiniteGroup.from_table(g._table).order == g.order

    @pytest.mark.parametrize("name", ["S5", "GL23", "BI"])
    def test_inverses_match_a_row_scan(self, name):
        g, _ = _closure(name)
        scan = [
            next(j for j in range(g.order) if g._table[i][j] == g.identity)
            for i in range(g.order)
        ]
        assert [g.inv(i) for i in range(g.order)] == scan

    @pytest.mark.parametrize("gens", [[(0,)], [()], []], ids=["one-point", "no-point", "none"])
    def test_fewer_than_two_points_close_as_the_trivial_group(self, gens):
        # itemgetter(0) returns a bare int and itemgetter() raises; every
        # permutation of at most one point is the identity
        g = close_group(gens)
        assert (g.order, g._table, g.inv(0)) == (1, [[0]], 0)

    def test_table_row_without_the_identity_is_refused(self):
        with pytest.raises(StructureError, match="element 1 has no inverse"):
            FiniteGroup(table=[[0, 1], [1, 1]], identity=0)

    @pytest.mark.parametrize("name", ["S4", "GL23"])
    def test_cap_boundary(self, name):
        gens, field, order = CLOSURES[name]
        assert close_group(gens, field=field, cap=order).order == order
        with pytest.raises(SizeCapError):
            close_group(gens, field=field, cap=order - 1)


# Strong pseudoprimes to all of the first t prime bases, t = 1..12 (the least
# for each t; the least for t = 13 is the bound itself), and Carmichael numbers.
STRONG_PSEUDOPRIMES = [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
]
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]


class TestPrimeField:
    """A matrix field is proven prime by Miller-Rabin on the first 13 prime
    bases, which is exact below finite._PRIME_BOUND; a field at or above the
    bound is refused rather than tested."""

    def test_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(4093)
        numbers = list(range(-3, 3000)) + STRONG_PSEUDOPRIMES + CARMICHAEL
        numbers += [rng.randrange(2, 10**e) for e in (6, 12, 18, 24) for _ in range(300)]
        for e in (5, 9, 12):  # squares and products of two primes near 10^e
            p, q = sympy.nextprime(rng.randrange(10**e)), sympy.nextprime(rng.randrange(10**e))
            numbers += [p * p, p * q, p * q + 2]
        numbers += [10**18 + 3, 10000000000000061, finite._PRIME_BOUND - 1]
        for n in numbers:
            assert finite._is_prime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize("p", [2, 41, 43, 10000000000000061, 10**18 + 3])
    def test_large_prime_fields_close(self, p):
        assert close_group([((1,),)], field=p).order == 1
        assert close_group([((p - 1,),)], field=p).order == (1 if p == 2 else 2)

    @pytest.mark.parametrize("n", [1, 0, -5, 3215031751, 10**18 + 1])
    def test_composite_fields_are_refused(self, n):
        with pytest.raises(StructureError, match=f"need a prime field, got {n}$"):
            close_group([((1,),)], field=n)

    @pytest.mark.parametrize("offset", [0, 2, 10**6])
    def test_fields_from_the_bound_on_are_refused(self, offset):
        # the bound is a strong pseudoprime to all 13 bases, so the test
        # would pass it; it is refused by size, before any test runs
        with pytest.raises(StructureError, match=f"primes below {finite._PRIME_BOUND}"):
            close_group([((1,),)], field=finite._PRIME_BOUND + offset)


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
        assert twisted_reidemeister([P1, P1, CBAR]).pairwise() == (Cardinal(9), Cardinal(1))

    def test_pair_matches_conjugacy(self):
        # equal maps twist by plain conjugation in the image
        assert twisted_reidemeister([P1, P1]).class_count == conjugacy_class_count(
            ICOSA
        )

    def test_divisibility_fails_here(self, capsys):
        problem = Path(__file__).resolve().parent.parent / "problems" / "example1_poincare.json"
        assert cli.main(["compute", str(problem), "--format", "structured"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["value"], report["pairwise"]) == (120, [9, 1])
        assert report["intermediates"]["divisibility"] == "pairwise product 9 does NOT divide 120"

    def test_dual_algorithms_agree_on_triple(self):
        # 14 400 tuples are past the pairwise brute force, so the two
        # algorithms are held to each other here
        orbit = twisted_reidemeister([P1, P1, CBAR], algorithm="orbit")
        uf = twisted_reidemeister([P1, P1, CBAR], algorithm="union-find")
        assert classes(orbit) == classes(uf)

    def test_union_find_tabulates_each_generator(self, monkeypatch):
        # 2n products per coordinate and generator: 1 467 here; moving every
        # tuple through every generator made 115 707
        original = FiniteGroup.mul
        muls = []

        def counting(self, i, j):
            muls.append(None)
            return original(self, i, j)

        monkeypatch.setattr(FiniteGroup, "mul", counting)
        twisted_reidemeister([P1, P1, CBAR], algorithm="union-find")
        assert len(muls) <= 2000


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
    return FiniteHom._trusted(
        h.domain, g, [g.mul(g.mul(c, v), g.inv(c)) for v in h.image]
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
            expected = oracle_classes(homs)
            assert classes(twisted_reidemeister(homs, algorithm="orbit")) == expected
            assert classes(twisted_reidemeister(homs, algorithm="union-find")) == expected

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


# -- the stabilizer descent against brute force ------------------------------------

S3xC2 = direct_product(S3, C2)


def _s3xc2_endos():
    """Componentwise endomorphisms of S3 x C2, and each one twisted by the
    sign of S3 into the C2 factor."""
    sign = [0 if S3.elements[i] in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else 1 for i in range(6)]
    c2_endos = all_homs(C2, C2)
    homs = []
    for a in S3_ENDOS:
        for b in c2_endos:
            for twist in (0, 1):
                image = []
                for i in range(S3xC2.order):
                    i1, i2 = divmod(i, 2)
                    image.append(a.image[i1] * 2 + (b.image[i2] + twist * sign[i1]) % 2)
                homs.append(FiniteHom(S3xC2, S3xC2, image))
    return homs


S3xC2_ENDOS = _s3xc2_endos()


class TestDescentAgainstBruteForce:
    """The descent's and union-find's representatives and class sizes
    against the relation oracle on shapes the random property cases miss."""

    @staticmethod
    def _assert_matches(homs):
        expected = oracle_classes(homs)
        part = twisted_reidemeister(homs)
        assert classes(part) == expected
        assert classes(twisted_reidemeister(homs, algorithm="union-find")) == expected
        return part

    def test_pair_backed_codomain(self):
        assert S3xC2._table is None
        assert len(S3xC2_ENDOS) == 40
        rng = random.Random(606)
        for _ in range(12):
            self._assert_matches([rng.choice(S3xC2_ENDOS) for _ in range(rng.choice([2, 3]))])

    def test_four_maps(self):
        rng = random.Random(707)
        for pool in (S3_ENDOS, C4_ENDOS, C6_TO_S3):
            for _ in range(3):
                self._assert_matches([rng.choice(pool) for _ in range(4)])

    def test_four_maps_on_pair_backed_codomain(self):
        # 12^3 tuples: union-find weighs the coordinates by 144, 12 and 1
        rng = random.Random(808)
        self._assert_matches([rng.choice(S3xC2_ENDOS) for _ in range(4)])

    def test_trivial_domain_and_codomain(self):
        c1 = cyclic_group(1)
        for k in (2, 3):
            part = self._assert_matches([constant_hom(c1, S3)] * k)
            assert part.class_count == 6 ** (k - 1)
            part = self._assert_matches([constant_hom(S3, c1)] * k)
            assert (part.class_count, part.class_sizes) == (1, (1,))
        part = self._assert_matches([identity_hom(c1)] * 3)
        assert part.representatives == (0,)

    def test_many_maps_into_trivial_codomain(self):
        # the tuple space stays 1 however many maps there are, so the descent
        # goes 1500 coordinates deep
        part = self._assert_matches([constant_hom(S3, cyclic_group(1))] * 1500)
        assert (part.arity, part.class_count, part.representatives) == (1499, 1, (0,))

    def test_constant_maps_only(self):
        for domain, codomain, k in ((S3, S3, 2), (S3, S3, 4), (C6, S3xC2, 3)):
            part = self._assert_matches([constant_hom(domain, codomain)] * k)
            assert part.class_count == part.tuple_space
            assert set(part.class_sizes) == {1}


def _table_copy(group: FiniteGroup) -> FiniteGroup:
    """A table-backed copy of a group, filled from its own mul, so that an
    index names the same element in both."""
    n = group.order
    table = [[group.mul(i, j) for j in range(n)] for i in range(n)]
    return FiniteGroup.from_table(table)


def _backing_families():
    rng = random.Random(2222)
    families = []
    for k in (2, 3, 4):
        for i in range(3):
            families.append(pytest.param([rng.choice(S3xC2_ENDOS) for _ in range(k)],
                                         id=f"s3xc2-k{k}-{i}"))
        # union-find's generating set is empty here, so _actions gets no tuples
        trivial = direct_product(cyclic_group(1), cyclic_group(1))
        families.append(pytest.param([constant_hom(S3, trivial)] * k, id=f"trivial-k{k}"))
    return families


class TestCodomainBackings:
    """The descent reads a table-backed codomain's rows and inverse array
    and a product-backed one's mul and inv; both must give one partition."""

    @pytest.mark.parametrize("homs", _backing_families())
    def test_product_and_table_backings_agree(self, homs):
        codomain = homs[0].codomain
        assert codomain._table is None
        copy = _table_copy(codomain)
        copied = [FiniteHom(h.domain, copy, h.image) for h in homs]
        for algorithm in ("orbit", "union-find"):
            product = twisted_reidemeister(homs, algorithm=algorithm)
            table = twisted_reidemeister(copied, algorithm=algorithm)
            assert classes(table) == classes(product)
            assert table.pairwise() == product.pairwise()
        assert classes(product) == oracle_classes(homs)


# -- pairwise values from the image subgroup ----------------------------------------


def _pairwise_families():
    rng = random.Random(1818)
    families = []
    for name, pool in (("s3", S3_ENDOS), ("c4", C4_ENDOS), ("c6-s3", C6_TO_S3)):
        for k in (3, 4):
            for i in range(4):
                homs = [rng.choice(pool) for _ in range(k)]
                families.append(pytest.param(homs, id=f"{name}-k{k}-{i}"))
    return families


def _inner(group, g):
    """Conjugation by g, x -> g x g^-1, on a table- or product-backed group."""
    image = [group.mul(group.mul(g, x), group.inv(g)) for x in range(group.order)]
    return FiniteHom(group, group, image)


def _representative_families():
    """Seeded families of identity, constant and inner-automorphism maps of
    S3, S4, A5 and C6, and of projections of S3 x S3 onto S3 (also followed
    by an inner automorphism), with k = 3 and 4; the first of each three
    repeats phi_2 as its last map."""
    rng = random.Random(2929)
    s4 = close_group([(1, 0, 2, 3), (1, 2, 3, 0)])
    a5 = close_group([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])
    pools = {}
    for name, group in (("s3", S3), ("s4", s4), ("a5", a5), ("c6", C6)):
        inner = [_inner(group, rng.randrange(group.order)) for _ in range(3)]
        pools[name] = [identity_hom(group), constant_hom(group, group), *inner]
    square = direct_product(S3, S3)
    projections = [projection_hom(square, 0), projection_hom(square, 1)]
    pools["s3xs3"] = [*projections, constant_hom(square, S3)]
    for p in projections:
        inner = _inner(S3, rng.randrange(1, 6)).image
        pools["s3xs3"].append(FiniteHom(square, S3, [inner[x] for x in p.image]))
    families = []
    for name, pool in pools.items():
        for k in (3, 4):
            for i in range(3):
                homs = [rng.choice(pool) for _ in range(k)]
                if i == 0:
                    homs[-1] = homs[1]
                families.append(pytest.param(homs, id=f"{name}-k{k}-{i}"))
    return families


class TestPairwiseFromImageSubgroup:
    """R(phi_1, phi_2) comes from the representatives' leading coordinates,
    and each other R(phi_1, phi_j) from projecting the family's image
    subgroup onto coordinates 1 and j: the same action list, descent and
    checks as counting the pair on its own, with no second scan of the
    domain."""

    @pytest.mark.parametrize("homs", _pairwise_families())
    def test_matches_a_count_of_each_pair(self, homs, monkeypatch):
        expected = tuple(twisted_reidemeister([homs[0], h]).value for h in homs[1:])
        pair_actions = {
            h.image: finite._actions(finite._image_tuples([homs[0], h]), h.codomain)
            for h in homs[1:]
        }
        part = twisted_reidemeister(homs)
        uf = twisted_reidemeister(homs, algorithm="union-find")
        original = finite._descend
        seen = []

        def recording(actions, codomain, arity):
            seen.append(actions)
            return original(actions, codomain, arity)

        monkeypatch.setattr(finite, "_descend", recording)
        monkeypatch.setattr(finite, "_image_tuples", pytest.fail)
        assert part.pairwise() == expected
        # one descent per distinct phi_j whose image differs from phi_2's,
        # over exactly the pair's own actions; phi_2's is read off the
        # representatives
        assert seen == [a for image, a in pair_actions.items() if image != homs[1].image]
        assert uf.pairwise() == expected

    @pytest.mark.parametrize("algorithm", ["orbit", "union-find"])
    @pytest.mark.parametrize("homs", _representative_families())
    def test_first_value_is_read_off_the_representatives(self, homs, algorithm, monkeypatch):
        # a class's smallest tuple leads with the smallest element of its
        # coordinate-1 orbit, an R(phi_1, phi_2) class, for either algorithm
        expected = [twisted_reidemeister([homs[0], h]).value for h in homs[1:]]
        others = {
            h.image: finite._actions(finite._image_tuples([homs[0], h]), h.codomain)
            for h in homs[2:]
            if h.image != homs[1].image
        }
        part = twisted_reidemeister(homs, algorithm=algorithm)
        original = finite._descend
        seen = []

        def recording(actions, codomain, arity):
            seen.append(actions)
            return original(actions, codomain, arity)

        monkeypatch.setattr(finite, "_descend", recording)
        assert list(part.pairwise()) == expected
        # no descent for phi_2, one for each other distinct image
        assert seen == list(others.values())

    def test_poincare_triple(self):
        assert twisted_reidemeister([P1, P1, CBAR]).pairwise() == (Cardinal(9), Cardinal(1))

    def test_two_maps_give_the_value(self, monkeypatch):
        part = twisted_reidemeister([P1, CBAR])
        monkeypatch.setattr(finite, "_descend", pytest.fail)
        assert part.pairwise() == (part.value,) == (Cardinal(1),)

    def test_pair_sizes_are_checked(self, monkeypatch):
        part = twisted_reidemeister([identity_hom(S3), identity_hom(S3), constant_hom(S3, S3)])
        original = finite._descend

        def off_by_one(actions, codomain, arity):
            representatives, sizes = original(actions, codomain, arity)
            if arity == 1:
                sizes[0] += 1
            return representatives, sizes

        monkeypatch.setattr(finite, "_descend", off_by_one)
        with pytest.raises(ConsistencyError, match="do not cover the tuple space"):
            part.pairwise()

    def test_pair_orbits_are_checked(self):
        # without its last tuple Gamma is no subgroup, nor is its projection
        part = twisted_reidemeister([P1, P1, CBAR])
        part.images = part.images[:-1]
        with pytest.raises(ConsistencyError, match="breaks orbit-stabilizer"):
            part.pairwise()


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
    """The caps are module constants; these inputs meet them at their
    values, 10**7 tuples and 10**8 estimated steps."""

    S5 = close_group([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])

    def test_tuple_space_cap(self):
        i, c = identity_hom(self.S5), constant_hom(self.S5, self.S5)
        with pytest.raises(SizeCapError, match="207360000 exceeds the cap 10000000$"):
            twisted_reidemeister([i, i, i, i, c])

    def test_work_cap_refuses_rather_than_samples(self):
        square = direct_product(self.S5, self.S5)
        homs = [projection_hom(square, 0), projection_hom(square, 1), constant_hom(square, self.S5)]
        with pytest.raises(SizeCapError, match="207360000 exceeds the cap 100000000; refusing"):
            twisted_reidemeister(homs)

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
