"""Class-2 nilpotent engine: collection arithmetic, hom validation, the
central-extension reduction with its exact worked matrices, the connecting-map
correction, a brute-force recount oracle, the stacked family count against
the fold into the direct power, and cross-checks against the free-abelian
engine."""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from coincidence_kit import cli, exact_linalg, nilpotent
from coincidence_kit.abelian import AbelianSystem, reid_pair, reid_multi
from coincidence_kit.cardinal import Cardinal
from coincidence_kit.errors import (
    ConsistencyError,
    HomomorphismError,
    ShapeError,
    StructureError,
)
from coincidence_kit.exact_linalg import (
    IntMatrix,
    determinant,
    enumerate_cokernel,
    hermite_basis,
)
from coincidence_kit.nilpotent import (
    PcGroup,
    PcHom,
    central_extension_data,
    central_reduction,
    combine_homs,
    delta_image_vectors,
    direct_power_pc,
    heisenberg_group,
    identity_pc_hom,
    reid_nilpotent,
    reid_nilpotent_multi,
)
from coincidence_kit.reporting import STATUS_OK, STATUS_UNSUPPORTED, ReidemeisterReport
from conftest import count_kernel_calls

HEIS = heisenberg_group()
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def six_generator_domain() -> PcGroup:
    """Rank-6 class-2 group: [a, b] = c and [a, d] = e with c, e central."""
    return PcGroup.from_presentation(
        ["a", "b", "d", "t"],
        ["c", "e"],
        {("a", "b"): {"c": 1}, ("a", "d"): {"e": 1}},
    )


def worked_triple(domain: PcGroup, codomain: PcGroup):
    """Three maps from the rank-6 domain to the Heisenberg group whose joint
    class count is the main worked value of the nilpotent engine."""
    phi1 = PcHom(
        domain,
        codomain,
        [(2, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 0), (0, 0, 2), (0, 0, 0)],
    )
    phi2 = PcHom(
        domain,
        codomain,
        [(1, 0, 0), (0, 0, 0), (0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 0, 0)],
    )
    phi3 = PcHom(
        domain,
        codomain,
        [(0, 1, 0), (1, 0, 0), (1, 0, 0), (0, 0, 0), (0, 0, -1), (0, 0, -1)],
    )
    return phi1, phi2, phi3


def heis_cross_z() -> PcGroup:
    """Heisenberg times an extra central line."""
    return PcGroup.from_presentation(
        ["a", "b"], ["c", "tau"], {("a", "b"): {"c": 1}}
    )


def random_word(rng, group, lo=-4, hi=4):
    return tuple(rng.randint(lo, hi) for _ in range(group.n))


def random_heis_endo(rng) -> PcHom:
    """Images of the two noncentral generators are free; the central one is
    forced to the commutator of those images."""
    u = tuple(rng.randint(-3, 3) for _ in range(3))
    v = tuple(rng.randint(-3, 3) for _ in range(3))
    return PcHom(HEIS, HEIS, [u, v, HEIS.commutator(u, v)])


def random_six_to_heis(rng, domain) -> PcHom:
    u_a = tuple(rng.randint(-3, 3) for _ in range(3))
    u_b = tuple(rng.randint(-3, 3) for _ in range(3))
    # b and d share no relation, so their images must commute: draw the image
    # of d from the centralizer of the image of b
    u_d = HEIS.multiply(
        HEIS.power(u_b, rng.randint(-2, 2)), (0, 0, rng.randint(-3, 3))
    )
    # t commutes with every other generator, so its image must be central
    u_t = (0, 0, rng.randint(-4, 4))
    c_img = HEIS.commutator(u_a, u_b)
    e_img = HEIS.commutator(u_a, u_d)
    return PcHom(domain, HEIS, [u_a, u_b, u_d, u_t, c_img, e_img])


def random_hz_to_heis(rng, domain) -> PcHom:
    u = tuple(rng.randint(-3, 3) for _ in range(3))
    v = tuple(rng.randint(-3, 3) for _ in range(3))
    tau_img = (0, 0, rng.randint(-4, 4))
    return PcHom(domain, HEIS, [u, v, HEIS.commutator(u, v), tau_img])


def recount_value(phi: PcHom, psi: PcHom, cap: int = 50_000) -> Cardinal:
    """Independent recount: enumerate the quotient classes and the central
    classes breadth-first, close the connecting-map image as an explicit
    subgroup, and multiply the counts — no determinant or index formulas."""
    red = central_reduction(phi, psi)
    quotient = enumerate_cokernel(red.psi_bar - red.phi_bar, cap=cap)
    diff_prime = red.psi_prime - red.phi_prime
    central = enumerate_cokernel(diff_prime, cap=cap)
    width = diff_prime.rows
    basis = hermite_basis(
        (diff_prime.column(j) for j in range(diff_prime.cols)), width
    )

    def reduce(vec):
        v = list(vec)
        for row in basis:
            p = next(l for l, x in enumerate(row) if x)
            q = v[p] // row[p]
            if q:
                for l in range(width):
                    v[l] -= q * row[l]
        return tuple(v)

    deltas = delta_image_vectors(red)
    subgroup = {reduce([0] * width)}
    frontier = list(subgroup)
    while frontier:
        nxt = []
        for g in frontier:
            for d in deltas:
                for sign in (1, -1):
                    h = reduce([x + sign * y for x, y in zip(g, d)])
                    if h not in subgroup:
                        subgroup.add(h)
                        nxt.append(h)
        frontier = nxt
    assert len(central) % len(subgroup) == 0
    return Cardinal(len(central) // len(subgroup) * len(quotient))


# -- collection arithmetic -------------------------------------------------------


# [x0, x1] = z0^2 z2^-1 and [x1, x2] = z1 z2^3: relation words with several
# nonzero, non-unit entries, and a central slot shared by both relations.
MIXED = PcGroup.from_presentation(
    ["x0", "x1", "x2"],
    ["z0", "z1", "z2"],
    {("x0", "x1"): {"z0": 2, "z2": -1}, ("x1", "x2"): {"z1": 1, "z2": 3}},
)


def arithmetic_groups():
    return [HEIS, six_generator_domain(), heis_cross_z(), free_class_two(4), MIXED]


def dense_product(group, u, v):
    """The collected product read straight off the public commutators dict,
    one central slot at a time."""
    w = [a + b for a, b in zip(u, v)]
    for (i, j), vec in group.commutators.items():
        for l, c in enumerate(vec):
            w[group.n_noncentral + l] += u[i] * v[j] * c
    return tuple(w)


class TestPcGroupArithmetic:
    def test_collection_worked_product(self):
        # moving b left past a costs one inverse central generator
        assert HEIS.multiply((0, 1, 0), (1, 0, 0)) == (1, 1, -1)
        assert HEIS.multiply((1, 0, 0), (0, 1, 0)) == (1, 1, 0)

    def test_generator_commutators_match_presentation(self):
        a, b, c = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        assert HEIS.commutator(a, b) == c
        assert HEIS.commutator(b, a) == (0, 0, -1)
        assert HEIS.commutator(a, c) == HEIS.identity()

    def test_presentation_accepts_either_pair_order(self):
        g1 = PcGroup.from_presentation(["a", "b"], ["c"], {("a", "b"): {"c": 1}})
        g2 = PcGroup.from_presentation(["a", "b"], ["c"], {("b", "a"): {"c": -1}})
        assert g1 == g2
        assert g1.commutators == {(1, 0): (-1,)}

    def test_associativity_random(self):
        rng = random.Random(11)
        groups = arithmetic_groups()
        for _ in range(400):
            g = rng.choice(groups)
            u, v, w = (random_word(rng, g) for _ in range(3))
            assert g.multiply(u, v) == dense_product(g, u, v)
            assert g.multiply(g.multiply(u, v), w) == g.multiply(u, g.multiply(v, w))

    def test_generator_commutators_are_the_relations(self):
        # every term of every relation word lands in its own central slot
        for g in arithmetic_groups():
            basis = IntMatrix.identity(g.n).to_lists()
            for i in range(g.n):
                for j in range(i):
                    vec = g.commutators.get((i, j), (0,) * g.n_central)
                    assert g.commutator(basis[i], basis[j]) == g.central_word(vec)
        assert MIXED.commutator((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)) == (0, 0, 0, 2, 0, -1)
        assert MIXED.commutator((0, 2, 0, 0, 0, 0), (0, 0, 3, 0, 0, 0)) == (0, 0, 0, 0, 6, 18)

    def test_inverse_and_power_random(self):
        rng = random.Random(12)
        for _ in range(100):
            g = rng.choice(arithmetic_groups())
            u = random_word(rng, g)
            assert g.multiply(u, g.inverse(u)) == g.identity()
            assert g.multiply(g.inverse(u), u) == g.identity()
            acc = g.identity()
            for e in range(5):
                assert g.power(u, e) == acc
                assert g.power(u, -e) == g.inverse(acc)
                acc = g.multiply(acc, u)

    def test_commutator_matches_definition(self):
        rng = random.Random(13)
        for _ in range(200):
            g = rng.choice(arithmetic_groups())
            u, v = random_word(rng, g), random_word(rng, g)
            direct = g.commutator(u, v)
            chained = g.multiply(
                g.inverse(u), g.multiply(g.inverse(v), g.multiply(u, v))
            )
            assert direct == chained
            assert not any(g.noncentral_part(direct))

    def test_word_validation(self):
        with pytest.raises(ShapeError):
            HEIS.multiply((1, 0), (0, 0, 0))
        with pytest.raises(ShapeError):
            HEIS.multiply((1, 0, True), (0, 0, 0))
        with pytest.raises(ShapeError):
            HEIS.power((0, 0, 0), 1.5)

    def test_presentation_validation(self):
        with pytest.raises(StructureError):
            PcGroup.from_presentation(["a"], ["a"], {})  # repeated label
        with pytest.raises(StructureError):
            PcGroup.from_presentation(["a", "b"], ["c"], {("a", "c"): {"c": 1}})
        with pytest.raises(StructureError):
            PcGroup.from_presentation(["a", "b"], ["c"], {("a", "x"): {"c": 1}})
        with pytest.raises(StructureError):
            PcGroup.from_presentation(
                ["a", "b"], ["c"], {("a", "b"): {"c": 1}, ("b", "a"): {"c": 1}}
            )
        with pytest.raises(StructureError):
            PcGroup.from_presentation(["a", "b"], ["c"], {("a", "b"): {"x": 1}})

    def test_presentation_skips_the_constructor_checks(self, monkeypatch):
        """from_presentation checks its own input and builds the group
        without PcGroup.__init__; the result equals the group the public
        constructor builds from the same data, relations and all."""
        init, calls = PcGroup.__init__, []
        monkeypatch.setattr(
            PcGroup, "__init__", lambda g, *a: calls.append(a) or init(g, *a)
        )
        groups = [HEIS, six_generator_domain(), heis_cross_z(), free_class_two(4), MIXED]
        built = [
            PcGroup.from_presentation(["a", "b"], ["c", "e"], {("b", "a"): {"e": 2, "c": 0}}),
            PcGroup.from_presentation(["a"], [], {}),
        ]
        assert calls == []
        for g in groups + built:
            public = PcGroup(g.labels, g.n_noncentral, g.commutators)
            assert public == g
            assert public._relations == g._relations
        assert built[0].commutators == {(1, 0): (0, 2)}
        assert built[0]._relations == ((1, 0, ((3, 2),)),)
        with pytest.raises(StructureError, match="at least one generator"):
            PcGroup.from_presentation([], [], {})
        with pytest.raises(StructureError, match="at least one generator"):
            PcGroup([], 0, {})

    @pytest.mark.parametrize("exponent", [1.9, "3", True])
    def test_presentation_exponents_are_integers(self, exponent):
        # the same check PcGroup itself makes on a commutator vector
        with pytest.raises(StructureError, match="commutator vector"):
            PcGroup(["a", "b", "c"], 2, {(1, 0): (exponent,)})
        with pytest.raises(StructureError, match=f"exponent {exponent!r}, not an integer"):
            PcGroup.from_presentation(["a", "b"], ["c"], {("a", "b"): {"c": exponent}})
        group = PcGroup.from_presentation(["a", "b"], ["c"], {("a", "b"): {"c": 3}})
        assert group.commutators == {(1, 0): (-3,)}


# -- homomorphisms ----------------------------------------------------------------


def relation_groups():
    """The groups of the relation tests, each with the dense commutators
    dict its presentation gives: relations stated as [x, y] with x listed
    first are stored as [g_j, g_i] = the negated word."""
    free = {
        (j - 1, i - 1): tuple(-int(q == p) for q in range(6))
        for p, (i, j) in enumerate(itertools.combinations(range(1, 5), 2))
    }
    return [
        (HEIS, {(1, 0): (-1,)}),
        (MIXED, {(1, 0): (-2, 0, 1), (2, 1): (0, -1, -3)}),
        (six_generator_domain(), {(1, 0): (-1, 0), (2, 0): (0, -1)}),
        (heis_cross_z(), {(1, 0): (-1, 0)}),
        (free_class_two(4), free),
    ]


def dense_power_reference(group, copies):
    """direct_power_pc as it was built through the public constructor,
    each factor's relation vectors widened to the power's central block."""
    if copies == 1:
        return group
    m, z = group.n_noncentral, group.n_central
    labels = [
        f"{group.labels[i]}_{f + 1}" for f in range(copies) for i in range(m)
    ] + [
        f"{group.labels[m + l]}_{f + 1}" for f in range(copies) for l in range(z)
    ]
    comm = {}
    for f in range(copies):
        for (i, j), vec in group.commutators.items():
            wide = [0] * (copies * z)
            for l, c in enumerate(vec):
                wide[f * z + l] = c
            comm[(f * m + i, f * m + j)] = tuple(wide)
    return PcGroup(labels, copies * m, comm)


class TestRelationTerms:
    """A group stores each relation once, as sorted terms; commutators is
    a dense view built from them."""

    def test_commutators_view_is_the_dense_dict(self):
        assert "commutators" not in PcGroup.__slots__
        for g, dense in relation_groups():
            assert g.commutators == dense
            with pytest.raises(AttributeError):
                g.commutators = {}

    def test_relations_are_sorted_terms(self):
        for g, dense in relation_groups():
            m = g.n_noncentral
            assert g._relations == tuple(
                (i, j, tuple((m + l, c) for l, c in enumerate(vec) if c))
                for (i, j), vec in sorted(dense.items())
            )

    def test_public_constructor_round_trips(self):
        for g, _ in relation_groups():
            public = PcGroup(g.labels, g.n_noncentral, g.commutators)
            assert public == g
            assert hash(public) == hash(g)
            shuffled = dict(reversed(list(g.commutators.items())))
            assert PcGroup(g.labels, g.n_noncentral, shuffled)._relations == g._relations

    def test_presentation_takes_either_order_of_a_pair(self):
        for g, dense in relation_groups():
            m = g.n_noncentral
            noncentral, central = g.labels[:m], g.labels[m:]
            stated = {
                (g.labels[i], g.labels[j]): dict(zip(central, vec))
                for (i, j), vec in dense.items()
            }
            swapped = {
                (y, x): {lab: -e for lab, e in word.items()}
                for (x, y), word in stated.items()
            }
            for relations in (stated, swapped):
                built = PcGroup.from_presentation(noncentral, central, relations)
                assert built == g
                assert hash(built) == hash(g)

    def test_direct_power_matches_the_dense_reference(self, monkeypatch):
        cases = [(g, c) for g, _ in relation_groups() for c in (1, 2, 3)]
        references = [dense_power_reference(g, c) for g, c in cases]
        init, calls = PcGroup.__init__, []
        monkeypatch.setattr(
            PcGroup, "__init__", lambda g, *a: calls.append(a) or init(g, *a)
        )
        powers = [direct_power_pc(g, c) for g, c in cases]
        assert calls == []
        for power, reference in zip(powers, references):
            assert power == reference
            assert hash(power) == hash(reference)
            assert power.commutators == reference.commutators


class TestPcHoms:
    def test_worked_triple_validates(self):
        domain = six_generator_domain()
        phi1, phi2, phi3 = worked_triple(domain, HEIS)
        assert phi1.apply((1, 1, 0, 0, 0, 0)) == (2, 1, 0)

    def test_rejects_broken_hom(self):
        with pytest.raises(HomomorphismError):
            PcHom(HEIS, HEIS, [(1, 0, 0), (0, 1, 0), (0, 0, 2)])
        with pytest.raises(HomomorphismError):
            PcHom(HEIS, HEIS, [(1, 0, 0), (0, 1, 0)])  # wrong count

    def test_rejects_a_broken_relation_with_non_unit_terms(self):
        # x_i -> x_i^2 sends each [x_i, x_j] to its 4th power, so with
        # z_i -> z_i^4 every relation holds
        images = [(2, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0),
                  (0, 0, 0, 4, 0, 0), (0, 0, 0, 0, 4, 0), (0, 0, 0, 0, 0, 4)]
        hom = PcHom(MIXED, MIXED, images)
        rng = random.Random(14)
        for _ in range(50):
            u, v = random_word(rng, MIXED), random_word(rng, MIXED)
            assert hom.apply(MIXED.multiply(u, v)) == MIXED.multiply(hom.apply(u), hom.apply(v))
        # z1 -> z1^3 breaks only [x1, x2] = z1 z2^3; z2 -> z2^3 breaks both
        # relations, and the first one checked is [x1, x0]
        for slot, pair in ((4, "x2 and x1"), (5, "x1 and x0")):
            broken = list(images)
            broken[slot] = (0,) * slot + (3,) + (0,) * (5 - slot)
            with pytest.raises(HomomorphismError, match=pair):
                PcHom(MIXED, MIXED, broken)

    def test_apply_is_multiplicative(self):
        rng = random.Random(21)
        domain = six_generator_domain()
        hz = heis_cross_z()
        for _ in range(100):
            kind = rng.randrange(3)
            if kind == 0:
                h, g = random_heis_endo(rng), HEIS
            elif kind == 1:
                h, g = random_six_to_heis(rng, domain), domain
            else:
                h, g = random_hz_to_heis(rng, hz), hz
            u, v = random_word(rng, g), random_word(rng, g)
            assert h.apply(g.multiply(u, v)) == HEIS.multiply(h.apply(u), h.apply(v))

    def test_identity_hom(self):
        ident = identity_pc_hom(HEIS)
        rng = random.Random(22)
        for _ in range(20):
            u = random_word(rng, HEIS)
            assert ident.apply(u) == u

    def test_apply_on_terms_matches_the_folded_product(self):
        """apply multiplies only the word's nonzero terms, from the first
        factor on; the reference folds every generator's power into the
        identity with the public multiply and power."""
        # x_i -> x_i^2 z-tail, z_l -> z_l^4: the tails are central, so every
        # relation of MIXED still maps to its 4th power
        images = [(2, 0, 0, 1, -1, 2), (0, 2, 0, 0, 3, 0), (0, 0, 2, -2, 0, 1),
                  (0, 0, 0, 4, 0, 0), (0, 0, 0, 0, 4, 0), (0, 0, 0, 0, 0, 4)]
        homs = [PcHom(MIXED, MIXED, images), identity_pc_hom(MIXED)]
        rng = random.Random(23)
        words = [MIXED.identity()]
        for g in range(MIXED.n):
            for e in (1, -1):
                words.append(tuple(e if l == g else 0 for l in range(MIXED.n)))
        words += [random_word(rng, MIXED, -3, 3) for _ in range(200)]
        for hom in homs:
            for word in words:
                folded = MIXED.identity()
                for img, e in zip(hom.images, word):
                    folded = MIXED.multiply(folded, MIXED.power(img, e))
                assert hom.apply(word) == folded
        assert homs[0].apply(words[1]) == images[0]
        assert homs[0].apply(MIXED.identity()) == MIXED.identity()

    @pytest.mark.parametrize(
        "images",
        [
            [(1, 0, 0), (0, 1, 0)],
            [(1, 0, 0), (0, 1), (0, 0, 1)],
            [(1, 0, 0), (0, True, 0), (0, 0, 1)],
            [(1, 0, 0), (0, 1, 0), (0, 0, 1.0)],
        ],
        ids=["two-images", "short-word", "bool-exponent", "float-exponent"],
    )
    def test_public_constructor_checks_every_image(self, images):
        with pytest.raises(HomomorphismError):
            PcHom(HEIS, HEIS, images)

    def test_parsed_images_are_still_validated(self):
        ok = PcHom._parsed(HEIS, HEIS, [(3, 0, 0), (0, -1, 0), (0, 0, -3)])
        assert ok.images == ((3, 0, 0), (0, -1, 0), (0, 0, -3))
        with pytest.raises(HomomorphismError, match="b and a"):
            PcHom._parsed(HEIS, HEIS, [(1, 0, 0), (0, 1, 0), (0, 0, 2)])


# -- central extension data -------------------------------------------------------


class TestCentralExtension:
    def test_unit_comm_lattice(self):
        data = central_extension_data(six_generator_domain())
        assert data.a_rank == 2
        assert data.b_rank == 4
        assert data.adapted == IntMatrix.identity(2)

    def test_partial_central_block(self):
        data = central_extension_data(heis_cross_z())
        assert data.a_rank == 1
        assert data.b_rank == 3
        assert data.project((5, -2, 7, 9)) == (5, -2, 9)
        assert data.section((5, -2, 9)) == (5, -2, 0, 9)
        assert data.a_coords((4, 0)) == (4,)
        assert data.a_coords((4, 1)) is None
        assert data.a_embed((4,)) == (0, 0, 4, 0)

    def test_abelian_group_has_trivial_sublattice(self):
        flat = PcGroup(["x", "y"], 2, {})
        data = central_extension_data(flat)
        assert data.a_rank == 0
        assert data.b_rank == 2
        central_flat = PcGroup(["x", "y"], 0, {})
        data2 = central_extension_data(central_flat)
        assert data2.a_rank == 0
        assert data2.b_rank == 2
        assert data2.project((3, 4)) == (3, 4)

    def test_non_unit_saturated_lattice(self):
        skew = PcGroup.from_presentation(
            ["a", "b"], ["c", "d"], {("a", "b"): {"c": 2, "d": 1}}
        )
        data = central_extension_data(skew)
        assert data.a_rank == 1
        assert data.b_rank == 3
        # round trips through the adapted coordinates
        for vec in [(2, 1), (-4, -2), (6, 3)]:
            coords = data.a_coords(vec)
            assert coords is not None
            assert data.group.central_part(data.a_embed(coords)) == vec
        assert data.a_coords((1, 0)) is None
        for l in range(data.b_rank):
            e = [0] * data.b_rank
            e[l] = 1
            assert data.project(data.section(e)) == tuple(e)
        assert data.coords @ data.adapted.transpose() == IntMatrix.identity(2)

    @pytest.mark.parametrize("spare", [[], ["w"]])
    def test_free_class_two_adapted_basis_is_a_permutation(self, spare):
        gens = ["x1", "x2", "x3", "x4"]
        pairs = list(itertools.combinations(gens, 2))
        # a spare central generator listed first moves every commutator pivot
        central = spare + [f"c{i}{j}" for i, j in pairs]
        group = PcGroup.from_presentation(
            gens, central, {(i, j): {f"c{i}{j}": 1} for i, j in pairs}
        )
        data = central_extension_data(group)
        z = len(central)
        assert data.a_rank == 6
        assert data.b_rank == 4 + len(spare)
        assert sorted(data.adapted.entries) == [0] * (z * z - z) + [1] * z
        assert all(sum(row) == 1 for row in data.adapted.iter_rows())
        assert data.coords == data.adapted
        assert data.coords @ data.adapted.transpose() == IntMatrix.identity(z)
        assert (data.adapted == IntMatrix.identity(z)) == (not spare)

    def test_torsion_quotient_is_refused(self):
        torsion = PcGroup.from_presentation(
            ["a", "b"], ["c"], {("a", "b"): {"c": 2}}
        )
        with pytest.raises(StructureError, match="direct summand"):
            central_extension_data(torsion)

    def test_graph_adapted_bases_invert_and_span(self):
        """On MIXED, SKEW and seeded presentations without a unit-row basis,
        coords inverts the adapted basis's transpose and the first a_rank
        adapted rows span the commutator sublattice."""
        for group in [MIXED, SKEW] + seeded_non_unit_groups(3804, 40):
            data = central_extension_data(group)
            z, r = group.n_central, data.a_rank
            basis = hermite_basis(group.commutators.values(), z)
            assert data.coords @ data.adapted.transpose() == IntMatrix.identity(z)
            assert hermite_basis([data.adapted.row(s) for s in range(r)], z) == basis

    def test_seeded_non_unit_pairs_agree_with_the_oracle(self, capsys):
        rng = random.Random(3805)
        for group in [MIXED, SKEW] + seeded_non_unit_groups(3806, 12):
            # distinct squares make both differences nonsingular
            homs = [
                scaled_endo(rng, group, k * rng.choice((-1, 1)))
                for k in rng.sample((1, 2, 3), 2)
            ]
            code = cli.main(["compute", json.dumps(pc_problem(homs)), "--oracle"])
            out = capsys.readouterr().out
            assert code == 0
            assert "oracle: agreed\n" in out, out

    def test_square_commutator_basis_reads_no_transforms(self, monkeypatch):
        """A full-rank commutator lattice has a square Hermite basis.
        Unimodular, that basis is the identity and takes the unit-row branch,
        which takes no Smith form; otherwise the Smith form of the head block
        of its graph rows shows the lattice is no direct summand, before any
        tail is read."""
        smith = []
        monkeypatch.setattr(
            nilpotent,
            "smith_normal_form",
            lambda m: smith.append(m) or exact_linalg.smith_normal_form(m),
        )

        def group(second):
            relations = {("x", "y"): {"u": 1, "v": 1}, ("x", "z"): second}
            return PcGroup.from_presentation(["x", "y", "z"], ["u", "v"], relations)

        data = central_extension_data(group({"v": 1}))
        assert (data.a_rank, data.adapted) == (2, IntMatrix.identity(2))
        assert smith == []
        with pytest.raises(StructureError, match=r"invariant factors \(1, 2\)"):
            central_extension_data(group({"v": 2}))
        assert [(m.rows, m.cols) for m in smith] == [(2, 2)]

    def test_unit_row_branch_multiplies_no_matrices(self, monkeypatch):
        """Unit rows make the adapted basis a permutation: its head is the
        Hermite basis and it inverts its own transpose by construction, so
        no matrix product and no second Hermite form is taken."""
        products, widths = [], []
        matmul = IntMatrix.__matmul__
        monkeypatch.setattr(
            IntMatrix, "__matmul__", lambda a, b: products.append(b) or matmul(a, b)
        )
        monkeypatch.setattr(
            nilpotent,
            "hermite_basis",
            lambda v, w: widths.append(w) or exact_linalg.hermite_basis(v, w),
        )
        data = central_extension_data(free_class_two(4))
        assert (data.a_rank, data.b_rank) == (6, 4)
        assert data.adapted == IntMatrix.identity(6)
        assert products == []
        assert widths == [6]

    @pytest.mark.parametrize(
        "make", [heisenberg_group, lambda: free_class_two(12)], ids=["heisenberg", "free-rank-12"]
    )
    def test_unit_row_data_is_one_term_per_row(self, make, monkeypatch):
        """A unit-row basis is stored as one (slot, 1) term per row, for the
        adapted rows and their inverse transpose alike, and no IntMatrix is
        built for it; the dense views are built only when read."""
        built = []
        init, raw = IntMatrix.__init__, IntMatrix._built
        monkeypatch.setattr(
            IntMatrix, "__init__", lambda m, *a, **k: built.append(a) or init(m, *a, **k)
        )
        monkeypatch.setattr(
            IntMatrix, "_built", classmethod(lambda cls, r, c: built.append(c) or raw(r, c))
        )
        group = make()
        data = central_extension_data(group)
        assert built == []
        z, m = group.n_central, group.n_noncentral
        for rows in (data._rows, data._dual):
            assert len(rows) == z
            assert all(len(row) == 1 and row[0][1] == 1 for row in rows)
            assert sorted(row[0][0] for row in rows) == list(range(m, m + z))
        assert data.adapted == data.coords
        assert built == [z, z]

    def test_coordinate_changes_match_the_dense_views(self):
        """_project, a_coords, section and a_embed equal the products with
        the dense adapted and coords views, on unit-row groups (permuted or
        not) and on Smith-adapted ones (MIXED, SKEW)."""
        square = PcGroup.from_presentation(
            ["x", "y", "z"], ["u", "v"], {("x", "y"): {"u": 1, "v": 1}, ("x", "z"): {"v": 1}}
        )
        groups = arithmetic_groups() + [square, SKEW, free_class_two(4, spare=True)]
        rng = random.Random(35)
        branches = set()
        for group in groups:
            data = central_extension_data(group)
            adapted, coords = data.adapted, data.coords
            m, z, a = group.n_noncentral, group.n_central, data.a_rank
            assert coords @ adapted.transpose() == IntMatrix.identity(z)
            branches.add(adapted == coords)

            def combination(ys, first):
                out = [0] * z
                for s, y in enumerate(ys):
                    for l, c in enumerate(adapted.row(first + s)):
                        out[l] += y * c
                return tuple(out)

            for _ in range(20):
                word = random_word(rng, group)
                central = group.central_part(word)
                x = coords.apply(central)
                assert data._project(word) == group.noncentral_part(word) + x[a:]
                assert data.a_coords(central) == (None if any(x[a:]) else x[:a])
                inside = group.central_part(group.commutator(word, random_word(rng, group)))
                assert data.a_coords(inside) == coords.apply(inside)[:a]
                b = tuple(rng.randint(-4, 4) for _ in range(data.b_rank))
                assert data.section(b) == b[:m] + combination(b[m:], a)
                ys = tuple(rng.randint(-4, 4) for _ in range(a))
                assert data.a_embed(ys) == (0,) * m + combination(ys, 0)
        # both branches of central_extension_data are covered
        assert branches == {True, False}

    def test_counts_read_no_dense_view(self, monkeypatch):
        """reid_nilpotent_multi reads only the stored terms: with the dense
        views made to raise, k = 3 families on HEIS, MIXED and the free
        rank-4 group count as before."""
        rng = random.Random(3535)
        free = free_class_two(4)
        families = [
            [random_heis_endo(rng) for _ in range(3)],
            [random_mixed_endo(rng) for _ in range(3)],
            [random_free_hom(rng, free, free) for _ in range(3)],
        ]
        expected = [reid_nilpotent_multi(homs) for homs in families]

        def refuse(data):
            raise AssertionError("a dense view of the extension data was read")

        for name in ("adapted", "coords"):
            monkeypatch.setattr(nilpotent.CentralExtensionData, name, property(refuse))
        for homs, report in zip(families, expected):
            got = reid_nilpotent_multi(homs)
            assert (got.value, got.pairwise) == (report.value, report.pairwise)
            assert got.intermediates == report.intermediates

    def test_endomorphism_pair_shares_extension_data(self):
        psi = PcHom(HEIS, HEIS, [(3, 0, 0), (0, -1, 0), (0, 0, -3)])
        red = central_reduction(identity_pc_hom(HEIS), psi)
        assert red.domain_data is red.codomain_data
        phi1, phi2, _ = worked_triple(six_generator_domain(), HEIS)
        red = central_reduction(phi1, phi2)
        assert red.domain_data.group != red.codomain_data.group


# -- the worked reduction ---------------------------------------------------------


class TestWorkedReduction:
    """A triple of maps from the rank-6 domain to the Heisenberg group,
    folded into a pair targeting the direct square."""

    def setup_method(self):
        self.domain = six_generator_domain()
        self.phi1, self.phi2, self.phi3 = worked_triple(self.domain, HEIS)
        self.power = direct_power_pc(HEIS, 2)
        self.first = combine_homs([self.phi1, self.phi1], self.power)
        self.second = combine_homs([self.phi2, self.phi3], self.power)
        self.red = central_reduction(self.first, self.second)

    def test_quotient_matrices(self):
        assert self.red.phi_bar.to_lists() == [
            [2, 0, 0, 0],
            [0, 1, 0, 0],
            [2, 0, 0, 0],
            [0, 1, 0, 0],
        ]
        assert self.red.psi_bar.to_lists() == [
            [1, 0, 0, 1],
            [0, 0, 0, 0],
            [0, 1, 1, 0],
            [1, 0, 0, 0],
        ]
        diff = self.red.phi_bar - self.red.psi_bar
        assert diff.to_lists() == [
            [1, 0, 0, -1],
            [0, 1, 0, 0],
            [2, -1, -1, 0],
            [-1, 1, 0, 0],
        ]
        assert abs(determinant(diff)) == 1

    def test_sublattice_matrices(self):
        assert self.red.phi_prime.to_lists() == [[2, 0], [2, 0]]
        assert self.red.psi_prime.to_lists() == [[0, 0], [-1, -1]]
        diff = self.red.phi_prime - self.red.psi_prime
        assert diff.to_lists() == [[2, 0], [3, 1]]
        assert abs(determinant(diff)) == 2

    def test_value_is_two(self):
        report = reid_nilpotent_multi([self.phi1, self.phi2, self.phi3])
        assert report.status == STATUS_OK
        assert report.value == Cardinal(2)
        assert report.intermediates["quotient_count"] == 1
        assert report.intermediates["sublattice_count"] == 2
        assert report.intermediates["im_delta"] == 1

    def test_pairwise_match_recount(self):
        report = reid_nilpotent_multi([self.phi1, self.phi2, self.phi3])
        assert report.pairwise == (
            recount_value(self.phi1, self.phi2),
            recount_value(self.phi1, self.phi3),
        )
        assert report.pairwise == (Cardinal(2), Cardinal(1))

    def test_all_orderings_agree(self):
        for perm in itertools.permutations([self.phi1, self.phi2, self.phi3]):
            report = reid_nilpotent_multi(list(perm))
            assert report.status == STATUS_OK
            assert report.value == Cardinal(2)

    def test_recount_oracle_agrees_on_folded_pair(self):
        assert recount_value(self.first, self.second) == Cardinal(2)


# -- frozen pair values -----------------------------------------------------------


class TestHeisenbergPairs:
    def test_stretch_flip_pair(self):
        psi = PcHom(HEIS, HEIS, [(3, 0, 0), (0, -1, 0), (0, 0, -3)])
        report = reid_nilpotent(identity_pc_hom(HEIS), psi)
        assert report.status == STATUS_OK
        assert report.value == Cardinal(16)
        assert report.intermediates["quotient_count"] == 4
        assert report.intermediates["sublattice_count"] == 4
        assert report.intermediates["im_delta"] == 1
        assert recount_value(identity_pc_hom(HEIS), psi) == Cardinal(16)

    def test_central_twist_family(self):
        """Extra central direction in the domain feeds the connecting map:
        the twist exponent m contributes a correction of order 4/gcd(m, 4)."""
        hz = heis_cross_z()
        for m in range(9):
            f = PcHom(hz, HEIS, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)])
            g = PcHom(hz, HEIS, [(3, 0, 0), (0, -1, 0), (0, 0, -3), (0, 0, m)])
            report = reid_nilpotent(f, g)
            assert report.status == STATUS_OK
            expected_im = 4 // math.gcd(m, 4)
            assert report.intermediates["im_delta"] == expected_im
            assert report.value == Cardinal(4 * math.gcd(m, 4))
            assert delta_image_vectors(central_reduction(f, g)) == [(m,)]
            assert recount_value(f, g) == report.value
            assert cli._nilpotent_recount(f, g) == report.value

    def test_rotation_pair_is_unsupported(self):
        rot = PcHom(HEIS, HEIS, [(0, -1, 0), (1, 0, 0), (0, 0, 1)])
        report = reid_nilpotent(identity_pc_hom(HEIS), rot)
        assert report.status == STATUS_UNSUPPORTED
        assert report.value is None
        assert report.intermediates["quotient_count"] == 2
        assert report.intermediates["sublattice_count"] == "infinite"
        assert any("not" in line and "implemented" in line for line in report.trace)

    def test_report_has_no_value_exactly_when_unsupported(self):
        with pytest.raises(ConsistencyError):
            ReidemeisterReport(None)
        with pytest.raises(ConsistencyError):
            ReidemeisterReport(Cardinal(1), status=STATUS_UNSUPPORTED)
        assert ReidemeisterReport(None, status=STATUS_UNSUPPORTED).value is None

    def test_identity_pair_is_infinite(self):
        ident = identity_pc_hom(HEIS)
        report = reid_nilpotent(ident, ident)
        assert report.status == STATUS_OK
        assert not report.value.is_finite


# -- the counting law and the recount oracle ---------------------------------------


class TestCountingLaw:
    def test_value_times_im_delta_equals_product(self):
        """On every supported instance, value * |Im delta| must equal the
        product of the sublattice-level and quotient-level counts."""
        rng = random.Random(31)
        domain6 = six_generator_domain()
        hz = heis_cross_z()
        seen_finite = 0
        for _ in range(140):
            kind = rng.randrange(3)
            if kind == 0:
                phi, psi = random_heis_endo(rng), random_heis_endo(rng)
            elif kind == 1:
                phi = random_six_to_heis(rng, domain6)
                psi = random_six_to_heis(rng, domain6)
            else:
                phi = random_hz_to_heis(rng, hz)
                psi = random_hz_to_heis(rng, hz)
            report = reid_nilpotent(phi, psi)
            if report.status != STATUS_OK:
                assert report.intermediates["sublattice_count"] == "infinite"
                continue
            if not report.value.is_finite:
                assert report.intermediates["quotient_count"] == "infinite"
                continue
            seen_finite += 1
            assert (
                report.value.value * report.intermediates["im_delta"]
                == report.intermediates["sublattice_count"]
                * report.intermediates["quotient_count"]
            )
        assert seen_finite >= 25  # the law must have been exercised

    def test_recount_oracle_on_random_instances(self):
        rng = random.Random(32)
        hz = heis_cross_z()
        checked = 0
        for _ in range(40):
            if rng.randrange(2):
                phi, psi = random_heis_endo(rng), random_heis_endo(rng)
            else:
                phi = random_hz_to_heis(rng, hz)
                psi = random_hz_to_heis(rng, hz)
            report = reid_nilpotent(phi, psi)
            if report.status != STATUS_OK or not report.value.is_finite:
                continue
            assert recount_value(phi, psi) == report.value
            checked += 1
        assert checked >= 10


# -- cross-checks against the free-abelian engine ----------------------------------


def _abelian_as_pc(matrix_rows, domain: PcGroup, codomain: PcGroup) -> PcHom:
    cols = len(matrix_rows[0])
    images = [
        tuple(matrix_rows[i][j] for i in range(len(matrix_rows)))
        for j in range(cols)
    ]
    return PcHom(domain, codomain, images)


class TestAbelianCrossCheck:
    def test_pairs_match_torus_engine(self):
        rng = random.Random(41)
        for _ in range(100):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            dom = PcGroup([f"x{i}" for i in range(m)], m, {})
            cod = PcGroup([f"y{i}" for i in range(n)], n, {})
            m1 = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
            m2 = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
            report = reid_nilpotent(
                _abelian_as_pc(m1, dom, cod), _abelian_as_pc(m2, dom, cod)
            )
            assert report.status == STATUS_OK
            assert report.value == reid_pair(m1, m2)

    def test_all_central_layout_agrees(self):
        dom = PcGroup(["x0", "x1"], 0, {})
        cod = PcGroup(["y0", "y1"], 0, {})
        m1 = [[2, 4], [2, 6]]
        m2 = [[0, 0], [0, 0]]
        report = reid_nilpotent(
            _abelian_as_pc(m1, dom, cod), _abelian_as_pc(m2, dom, cod)
        )
        assert report.value == reid_pair(m1, m2)
        assert report.value == Cardinal(4)

    def test_multi_matches_torus_engine(self):
        # class-1 pc problems: no central generators, and generator j's
        # image is column j; m straddles n(k - 1), so about half are finite
        rng = random.Random(42)
        finite = 0
        for _ in range(120):
            n, k = rng.randint(1, 3), rng.randint(2, 5)
            m = max(1, n * (k - 1) + rng.randint(-1, 1))
            dom = PcGroup([f"x{i}" for i in range(m)], m, {})
            cod = PcGroup([f"y{i}" for i in range(n)], n, {})
            mats = [
                [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
                for _ in range(k)
            ]
            report = reid_nilpotent_multi(
                [_abelian_as_pc(mat, dom, cod) for mat in mats]
            )
            torus = reid_multi(AbelianSystem(mats))
            assert report.status == STATUS_OK
            assert (report.value, report.pairwise) == (torus.value, torus.pairwise), mats
            finite += report.value.is_finite
        assert 30 <= finite <= 90, finite

    def test_worked_torus_system_as_pc(self):
        mats = json.loads((PROBLEMS / "example2_torus.json").read_text())["maps"]
        dom = PcGroup(["x0", "x1", "x2"], 3, {})
        cod = PcGroup(["y0"], 1, {})
        report = reid_nilpotent_multi([_abelian_as_pc(mat, dom, cod) for mat in mats])
        assert report.value == Cardinal(10)
        assert report.pairwise == (Cardinal(1), Cardinal(2), Cardinal(1))


# -- the stacked count against the direct-power fold --------------------------------


def free_class_two(rank: int, spare: bool = False) -> PcGroup:
    """Free class-2 group on x1..x_rank with [x_i, x_j] = c_ij; a spare central
    generator w, listed first, moves every commutator pivot."""
    pairs = list(itertools.combinations(range(1, rank + 1), 2))
    central = (["w"] if spare else []) + [f"c{i}{j}" for i, j in pairs]
    return PcGroup.from_presentation(
        [f"x{i}" for i in range(1, rank + 1)],
        central,
        {(f"x{i}", f"x{j}"): {f"c{i}{j}": 1} for i, j in pairs},
    )


# [a, b] = c1^2 c2^3: a direct summand without a unit-vector basis, so the
# extension data takes the Smith-adapted basis.
SKEW = PcGroup.from_presentation(
    ["a", "b"], ["c1", "c2"], {("a", "b"): {"c1": 2, "c2": 3}}
)


def seeded_non_unit_groups(seed, count) -> list[PcGroup]:
    """count seeded presentations whose commutator lattice is a direct
    summand with no basis of unit rows: 2 to 4 noncentral and 1 to 4
    central generators, each pair related with probability 2/3 by a central
    word with entries in -3..3."""
    rng = random.Random(seed)
    groups = []
    while len(groups) < count:
        gens = [f"x{i}" for i in range(rng.randint(2, 4))]
        central = [f"z{l}" for l in range(rng.randint(1, 4))]
        relations = {}
        for pair in itertools.combinations(gens, 2):
            word = {c: e for c in central if (e := rng.randint(-3, 3))}
            if word and rng.random() < 2 / 3:
                relations[pair] = word
        group = PcGroup.from_presentation(gens, central, relations)
        z = group.n_central
        basis = hermite_basis(group.commutators.values(), z)
        if all(row.count(0) == z - 1 and 1 in row for row in basis):
            continue
        try:
            central_extension_data(group)
        except StructureError:
            continue
        groups.append(group)
    return groups


def scaled_endo(rng, group: PcGroup, k: int) -> PcHom:
    """x_i -> x_i^k times a central tail and z_l -> z_l^(k^2): each relation
    maps to its k^2-th power, on any class-2 presentation."""
    m, z = group.n_noncentral, group.n_central
    images = [
        tuple(k if l == i else 0 for l in range(m)) + tuple(rng.randint(-2, 2) for _ in range(z))
        for i in range(m)
    ]
    images += [(0,) * m + tuple(k * k if l == c else 0 for l in range(z)) for c in range(z)]
    return PcHom(group, group, images)


def pc_problem(homs) -> dict:
    """A nilpotent problem document for maps of one group to itself."""
    group = homs[0].domain
    labels, m = group.labels, group.n_noncentral
    spec = {
        "generators": list(labels[:m]),
        "central": list(labels[m:]),
        "commutators": [
            [labels[i], labels[j], list(vec)] for (i, j), vec in group.commutators.items()
        ],
    }
    maps = [[list(w) for w in hom.images] for hom in homs]
    return {"kind": "nilpotent", "domain": spec, "codomain": spec, "maps": maps}


def random_free_hom(rng, domain: PcGroup, codomain: PcGroup) -> PcHom:
    """Free images for the noncentral generators of a free class-2 domain and
    central images for its spare central ones; every other central generator
    is plus or minus one commutator, so its image is forced."""
    images = [random_word(rng, codomain, -2, 2) for _ in range(domain.n_noncentral)]
    for l in range(domain.n_central):
        key = next((key for key, vec in domain.commutators.items() if vec[l]), None)
        if key is None:
            spare = [rng.randint(-2, 2) for _ in range(codomain.n_central)]
            images.append(codomain.central_word(spare))
        else:
            c = codomain.commutator(images[key[0]], images[key[1]])
            images.append(codomain.power(c, domain.commutators[key][l]))
    return PcHom(domain, codomain, images)


def random_skew_endo(rng) -> PcHom:
    """c1, c2 go to central x, y with x^2 y^3 = [image a, image b] = d (2, 3),
    d the determinant of the images' noncentral parts."""
    u = random_word(rng, SKEW, -3, 3)
    v = random_word(rng, SKEW, -3, 3)
    d = u[0] * v[1] - u[1] * v[0]
    w1, w2 = rng.randint(-2, 2), rng.randint(-2, 2)
    x = SKEW.central_word((d + 3 * w1, 3 * w2))
    y = SKEW.central_word((-2 * w1, d - 2 * w2))
    return PcHom(SKEW, SKEW, [u, v, x, y])


def random_mixed_endo(rng) -> PcHom:
    """x_i -> x_i^k times a central tail and z_l -> z_l^(k^2): each relation
    of MIXED maps to its k^2-th power.  MIXED's adapted basis has negative
    entries, so its lifts carry signs."""
    k = rng.choice((-3, -2, -1, 1, 2, 3))
    images = []
    for i in range(3):
        tail = tuple(rng.randint(-2, 2) for _ in range(3))
        images.append(tuple(k if l == i else 0 for l in range(3)) + tail)
    for l in range(3):
        images.append((0, 0, 0) + tuple(k * k if m == l else 0 for m in range(3)))
    return PcHom(MIXED, MIXED, images)


def fold_report(homs):
    """The family folded into one pair targeting the direct power."""
    power = direct_power_pc(homs[0].codomain, len(homs) - 1)
    return reid_nilpotent(
        combine_homs([homs[0]] * (len(homs) - 1), power),
        combine_homs(homs[1:], power),
    )


def _free_draw(rank, spare=False, codomain=None):
    domain = free_class_two(rank, spare)
    return lambda rng: random_free_hom(rng, domain, codomain or domain)


STACK_FAMILIES = {
    "heisenberg": random_heis_endo,
    "six-to-heisenberg": lambda rng: random_six_to_heis(rng, six_generator_domain()),
    "free-rank-3": _free_draw(3),
    "free-rank-4": _free_draw(4),
    "spare-central": _free_draw(3, spare=True),
    "free-rank-5-to-heisenberg": _free_draw(5, codomain=HEIS),
    "non-unit": random_skew_endo,
}


class TestStackAgainstFold:
    """reid_nilpotent_multi reads the joint count off the stacked pair
    reductions (phi_1, phi_j); reid_nilpotent on the combine_homs fold into
    the direct power is a second route to it."""

    @pytest.mark.parametrize("family", sorted(STACK_FAMILIES))
    def test_stack_matches_fold(self, family):
        rng = random.Random(f"stack-vs-fold:{family}")
        draw = STACK_FAMILIES[family]
        lifted = 0
        for trial in range(16):
            homs = [draw(rng) for _ in range(3 + trial % 2)]
            stack = reid_nilpotent_multi(homs)
            fold = fold_report(homs)
            assert (stack.status, stack.value) == (fold.status, fold.value)
            for key in ("quotient_count", "sublattice_count", "im_delta"):
                assert stack.intermediates.get(key) == fold.intermediates.get(key)
            pairs = [reid_nilpotent(homs[0], h) for h in homs[1:]]
            if stack.status == STATUS_OK and all(p.status == STATUS_OK for p in pairs):
                assert stack.pairwise == tuple(p.value for p in pairs)
            else:
                assert stack.pairwise == ()
            if family != "non-unit":
                # same printed intermediates, the fold's trace after the header
                printed = dict(fold.intermediates)
                if stack.pairwise:
                    printed["pairwise"] = [v.to_json() for v in stack.pairwise]
                assert stack.intermediates == printed
                assert stack.trace[0].startswith(f"{len(homs)} maps folded")
                assert stack.trace[1 : 1 + len(fold.trace)] == fold.trace
            lifted += bool(stack.intermediates.get("delta_vectors"))
        if family == "free-rank-5-to-heisenberg":
            # k = 3 stacks 5 domain columns over 4 rows: finite, with a kernel
            # whose delta-vectors are lifted block by block
            assert lifted >= 4

    def test_compute_builds_no_power_group(self, capsys, monkeypatch):
        """A k = 4 free class-2 family: no direct power and no folded maps,
        one extension data for the shared group, and each matrix reduced once.
        Its quotient differences are square, so no Smith form is taken."""
        group = free_class_two(3)
        rng = random.Random(808)
        homs = [random_free_hom(rng, group, group) for _ in range(4)]
        spec = {
            "generators": ["x1", "x2", "x3"],
            "central": ["c12", "c13", "c23"],
            "commutators": [
                ["x1", "x2", {"c12": 1}],
                ["x1", "x3", {"c13": 1}],
                ["x2", "x3", {"c23": 1}],
            ],
        }
        doc = {
            "kind": "nilpotent",
            "domain": spec,
            "codomain": spec,
            "maps": [[list(w) for w in h.images] for h in homs],
        }
        pairwise = [reid_nilpotent(homs[0], h).value.to_json() for h in homs[1:]]
        calls = []

        def spy(fn):
            return lambda *args: calls.append(fn.__name__) or fn(*args)

        for module in (nilpotent, cli):
            for name in ("direct_power_pc", "combine_homs"):
                monkeypatch.setattr(module, name, spy(getattr(module, name)))
        built = []
        extension = nilpotent.CentralExtensionData
        monkeypatch.setattr(
            nilpotent,
            "CentralExtensionData",
            lambda **kw: built.append(kw["group"]) or extension(**kw),
        )
        eliminated, reduced = [], []
        eliminate = exact_linalg._smith_divisors
        index = exact_linalg._column_index

        def eliminating(rows, t=None):
            eliminated.append((len(rows), t is not None))
            return eliminate(rows, t)

        def indexing(m, **multiple):
            reduced.append(m)
            return index(m, **multiple)

        monkeypatch.setattr(exact_linalg, "_smith_divisors", eliminating)
        monkeypatch.setattr(exact_linalg, "_column_index", indexing)
        code = cli.main(["compute", json.dumps(doc), "--format", "structured"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["pairwise"] == pairwise
        assert calls == []
        assert built == [group]
        assert eliminated == []
        assert reduced and len(set(reduced)) == len(reduced)

    @pytest.mark.parametrize(
        "argv, calls",
        [(["compute"], 0), (["compute", "--oracle"], 2), (["check"], 0)],
    )
    def test_smith_forms_on_the_heisenberg_pair(self, capsys, monkeypatch, argv, calls):
        """The engine counts a square quotient difference by Hermite pivots
        and lifts no delta-vector off it; only the oracle's recount takes
        Smith forms: the quotient and central orders, and no coarse order,
        which with no delta-vector is the central one.  Runs of the Smith
        loop count, with t or without; the recount runs it without t and
        never asks the certificate."""
        eliminated = count_kernel_calls(
            monkeypatch, "_smith_divisors", "_certified_divisors"
        )
        command, *flags = argv
        path = PROBLEMS / "heisenberg_pair.json"
        assert cli.main([command, str(path), *flags]) == 0
        assert eliminated == Counter(_smith_divisors=calls)

    @pytest.mark.parametrize("argv", [["compute"], ["compute", "--oracle"], ["check"]])
    def test_words_are_checked_once_on_the_heisenberg_pair(self, capsys, monkeypatch, argv):
        """Only the six input images (two maps, three generators) have their
        shape checked, once each, where the parser reads them: _pc_word
        reads each over the codomain's labels, the parser widens it to an
        int word of the codomain's length, and the maps take them on
        PcHom's private path, so no check_word follows.
        Validation, the reductions, the delta lift and the oracle work on
        words the package built and check nothing again."""
        images, checked = [], []
        pc_word, check_word = cli._pc_word, PcGroup.check_word

        def reading(value, labels, what, where):
            word = pc_word(value, labels, what, where)
            if tuple(labels) == HEIS.labels:
                images.append(word)
            return word

        monkeypatch.setattr(cli, "_pc_word", reading)
        monkeypatch.setattr(
            PcGroup, "check_word", lambda g, w: checked.append(w) or check_word(g, w)
        )
        command, *flags = argv
        path = PROBLEMS / "heisenberg_pair.json"
        assert cli.main([command, str(path), *flags]) == 0
        assert images == [{"a": 1}, {"b": 1}, {"c": 1}, {"a": 3}, {"b": -1}, {"c": -3}]
        assert checked == []

    @pytest.mark.parametrize("family", sorted(STACK_FAMILIES) + ["mixed"])
    def test_reductions_match_the_public_route(self, family):
        """Each column of a pair reduction is a basis vector of B or A,
        lifted by section or a_embed, mapped by the public apply and read
        back by project or a_coords."""
        rng = random.Random(f"public-route:{family}")
        draw = STACK_FAMILIES.get(family, random_mixed_endo)
        for _ in range(6):
            phi, psi = draw(rng), draw(rng)
            red = central_reduction(phi, psi)
            d1, d2 = red.domain_data, red.codomain_data
            b_units = IntMatrix.identity(d1.b_rank).iter_rows()
            a_units = IntMatrix.identity(d1.a_rank).iter_rows()
            b_lifts, a_lifts = [d1.section(e) for e in b_units], [d1.a_embed(e) for e in a_units]
            for hom, bar, prime in ((phi, red.phi_bar, red.phi_prime), (psi, red.psi_bar, red.psi_prime)):
                columns = [d2.project(hom.apply(w)) for w in b_lifts]
                assert bar == IntMatrix.from_columns(columns, rows=d2.b_rank)
                columns = [d2.a_coords(d2.group.central_part(hom.apply(w))) for w in a_lifts]
                assert prime == IntMatrix.from_columns(columns, rows=d2.a_rank)


# -- validation by structure constants ------------------------------------------


def scaled_free_hom(rng, domain: PcGroup, codomain: PcGroup, p: int) -> PcHom:
    """A random hom of a free class-2 domain with no spare central
    generator, every noncentral image's noncentral part times p, so every
    commutator image is p^2 times the unscaled one."""
    m = codomain.n_noncentral
    images = []
    for _ in range(domain.n_noncentral):
        w = random_word(rng, codomain, -2, 2)
        images.append(tuple(p * x for x in w[:m]) + w[m:])
    for l in range(domain.n_central):
        (i, j), vec = next(item for item in domain.commutators.items() if item[1][l])
        images.append(codomain.power(codomain.commutator(images[i], images[j]), vec[l]))
    return PcHom(domain, codomain, images)


class TestPairwiseFromTheStackedOrders:
    """The stacked count passes its R_bar and R_prime, when finite, to each
    pair as known multiples of the pair's orders.  The pairwise values must
    equal reid_nilpotent's on each pair, which is given none, and the
    oracle's recount by the bare Smith loop."""

    def test_pairwise_values_match_each_pair(self, monkeypatch):
        passed = []
        original = nilpotent._cokernel_order

        def recording(m, *, multiple=0):
            passed.append(multiple)
            return original(m, multiple=multiple)

        free3 = free_class_two(3)
        families = [(4, HEIS, 3), (5, HEIS, 3), (6, HEIS, 4), (6, free3, 3), (7, free3, 3)]
        rng = random.Random(7171)
        above_one = 0
        for trial in range(30):
            rank, codomain, k = families[trial % len(families)]
            domain = free_class_two(rank)
            p = rng.choice([1, 2, 3])
            homs = [scaled_free_hom(rng, domain, codomain, p) for _ in range(k)]
            pairs = [reid_nilpotent(homs[0], h) for h in homs[1:]]
            with monkeypatch.context() as mp:
                mp.setattr(nilpotent, "_cokernel_order", recording)
                report = reid_nilpotent_multi(homs)
            assert report.status == STATUS_OK
            assert all(pair.status == STATUS_OK for pair in pairs)
            assert report.pairwise == tuple(pair.value for pair in pairs)
            # and the bare Smith loop's recount, with no multiple
            assert report.pairwise == tuple(cli._nilpotent_recount(homs[0], h) for h in homs[1:])
            r_bar = report.intermediates["quotient_count"]
            r_prime = report.intermediates["sublattice_count"]
            if r_bar != "infinite" and r_prime != 1:
                above_one += 1
                assert r_bar in passed and r_prime in passed
        assert above_one >= 15, above_one


def all_pairs_verdict(domain: PcGroup, codomain: PcGroup, images) -> str | None:
    """The message of the first generator pair, in (i, j < i) order, whose
    images do not commute to the image of the pair's relation, on every
    pair and with no PcHom: the public commutator, and the relation's image
    folded from its central word by the public multiply and power; None
    when no pair fails."""
    for i in range(domain.n):
        for j in range(i):
            lhs = codomain.commutator(images[i], images[j])
            vec = domain.commutators.get((i, j))
            rhs = codomain.identity()
            for img, e in zip(images, domain.central_word(vec) if vec else ()):
                rhs = codomain.multiply(rhs, codomain.power(img, e))
            if lhs != rhs:
                return (
                    f"images of {domain.labels[i]} and {domain.labels[j]} violate "
                    f"the commutator relation: [{domain.labels[i]}, "
                    f"{domain.labels[j]}] maps to {rhs} but the images "
                    f"commute to {lhs}"
                )
    return None


def validation_verdict(domain: PcGroup, codomain: PcGroup, images) -> str | None:
    try:
        PcHom(domain, codomain, images)
    except HomomorphismError as exc:
        return str(exc)
    return None


def _perturbed(rng, hom: PcHom):
    """hom's images with one or two of them moved by a random word, or left
    alone: a mix of valid and invalid image lists."""
    images = list(hom.images)
    cod = hom.codomain
    for _ in range(rng.randrange(3)):
        g = rng.randrange(len(images))
        step = random_word(rng, cod, -1, 1)
        if rng.random() < 0.5:
            step = cod.central_word(cod.central_part(step))
        images[g] = cod.multiply(images[g], step)
    return images


VALIDATION_FAMILIES = {
    "heisenberg": random_heis_endo,
    "heisenberg-cross-z": lambda rng: random_hz_to_heis(rng, heis_cross_z()),
    "six-generator": lambda rng: random_six_to_heis(rng, six_generator_domain()),
    "free-rank-3": _free_draw(3),
    "free-rank-4": _free_draw(4),
    "free-rank-4-spare": _free_draw(4, spare=True),
}


class TestStructureConstantValidation:
    """PcHom.validate skips the pairs without a relation in which an image
    is central; it must accept, reject and word its rejection exactly as
    the all-pairs check does."""

    @pytest.mark.parametrize("family", sorted(VALIDATION_FAMILIES))
    def test_agrees_with_all_pairs(self, family):
        rng = random.Random(f"validate:{family}")
        draw = VALIDATION_FAMILIES[family]
        verdicts = []
        for _ in range(60):
            hom = draw(rng)
            images = _perturbed(rng, hom)
            verdict = all_pairs_verdict(hom.domain, hom.codomain, images)
            assert validation_verdict(hom.domain, hom.codomain, images) == verdict
            verdicts.append(verdict is None)
        # both outcomes are exercised
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize(
        "group", [HEIS, MIXED, free_class_two(4)], ids=["heisenberg", "mixed", "free-rank-4"]
    )
    def test_identity_pc_hom_is_validated(self, group, monkeypatch):
        """identity_pc_hom skips the word check on the unit words it builds,
        but validates them as the public constructor would."""
        validated = []
        validate = PcHom.validate
        monkeypatch.setattr(PcHom, "validate", lambda hom: validated.append(hom) or validate(hom))
        ident = identity_pc_hom(group)
        assert validated == [ident]
        assert ident.images == tuple(
            tuple(int(g == l) for l in range(group.n)) for g in range(group.n)
        )
        assert all_pairs_verdict(group, group, ident.images) is None

    @pytest.mark.parametrize("fault", ["central-made-noncentral", "sign-flip", "swap"])
    @pytest.mark.parametrize("family", sorted(VALIDATION_FAMILIES))
    def test_seeded_bad_maps_are_refused_as_all_pairs(self, family, fault):
        """validate visits only the domain's relation pairs and the pairs
        whose images both have noncentral parts; on maps broken in three
        ways it must refuse, and word the first failing pair, exactly as
        the all-pairs check does."""
        rng = random.Random(f"bad-maps:{family}:{fault}")
        draw = VALIDATION_FAMILIES[family]
        refused = 0
        for _ in range(40):
            hom = draw(rng)
            dom, cod = hom.domain, hom.codomain
            images = list(hom.images)
            if fault == "central-made-noncentral":
                # a central generator's image gains a noncentral part
                g = rng.randrange(dom.n_noncentral, dom.n)
                step = [0] * cod.n
                step[rng.randrange(cod.n_noncentral)] = rng.choice((-1, 1))
                images[g] = cod.multiply(images[g], tuple(step))
            elif fault == "sign-flip":
                # one entry of the image of a central generator that a
                # relation names changes sign
                named = sorted({l for _, _, terms in dom._relations for l, _ in terms})
                g = rng.choice(named)
                slots = [l for l, x in enumerate(images[g]) if x] or [cod.n - 1]
                l = rng.choice(slots)
                word = list(images[g])
                word[l] = -word[l] if word[l] else 1
                images[g] = tuple(word)
            else:
                i, j = rng.sample(range(dom.n), 2)
                images[i], images[j] = images[j], images[i]
            verdict = all_pairs_verdict(dom, cod, images)
            assert validation_verdict(dom, cod, images) == verdict
            refused += verdict is not None
        assert refused >= 20

    @pytest.mark.parametrize(
        "domain, images",
        [
            # every image is central, yet [a, b] = c must map to c, not 1
            (HEIS, [(0, 0, 1), (0, 0, 1), (0, 0, 1)]),
            # t has no relation, and its image a does not commute with b's
            (
                six_generator_domain(),
                [(2, 0, 0), (0, 1, 0), (0, 0, 0), (1, 0, 0), (0, 0, 2), (0, 0, 0)],
            ),
        ],
        ids=["heisenberg-all-central", "six-generator-t-to-a"],
    )
    def test_rejects_as_all_pairs(self, domain, images):
        verdict = all_pairs_verdict(domain, HEIS, images)
        assert verdict is not None
        assert validation_verdict(domain, HEIS, images) == verdict


# -- plumbing ----------------------------------------------------------------------


class TestPlumbing:
    def test_direct_power_layout(self):
        power = direct_power_pc(HEIS, 2)
        assert power.labels == ("a_1", "b_1", "a_2", "b_2", "c_1", "c_2")
        assert power.n_noncentral == 4
        assert power.commutators == {(1, 0): (-1, 0), (3, 2): (0, -1)}
        assert direct_power_pc(HEIS, 1) is HEIS
        with pytest.raises(StructureError):
            direct_power_pc(HEIS, 0)

    def test_combine_homs_guards(self):
        power = direct_power_pc(HEIS, 2)
        ident = identity_pc_hom(HEIS)
        combined = combine_homs([ident, ident], power)
        assert combined.images[0] == (1, 0, 1, 0, 0, 0)
        assert combined.images[2] == (0, 0, 0, 0, 1, 1)
        with pytest.raises(ShapeError):
            combine_homs([ident], power)  # wrong number of factors
        with pytest.raises(ShapeError):
            combine_homs([], power)
        other = PcGroup(["x"], 1, {})
        with pytest.raises(ShapeError):
            combine_homs([ident, identity_pc_hom(other)], power)

    def test_combine_homs_checks_no_word(self, monkeypatch):
        """The folded map's images concatenate words its input maps already
        hold, so no word is checked again; the folded map is validated."""
        rng = random.Random(4290)
        homs = [random_heis_endo(rng) for _ in range(3)]
        power = direct_power_pc(HEIS, 3)
        checked, validated = [], []
        check, validate = PcGroup.check_word, PcHom.validate
        monkeypatch.setattr(PcGroup, "check_word", lambda g, w: checked.append(w) or check(g, w))
        monkeypatch.setattr(PcHom, "validate", lambda hom: validated.append(hom) or validate(hom))
        combined = combine_homs(homs, power)
        assert checked == []
        assert validated == [combined]
        for g in range(HEIS.n):
            parts = [h.images[g] for h in homs]
            assert combined.images[g] == tuple(
                [x for w in parts for x in w[:2]] + [w[2] for w in parts]
            )

    def test_multi_guards(self):
        ident = identity_pc_hom(HEIS)
        with pytest.raises(ShapeError):
            reid_nilpotent_multi([ident])
        other = identity_pc_hom(PcGroup(["x"], 1, {}))
        with pytest.raises(ShapeError):
            reid_nilpotent_multi([ident, other])

    def test_pair_report_carries_its_own_pairwise(self):
        psi = PcHom(HEIS, HEIS, [(3, 0, 0), (0, -1, 0), (0, 0, -3)])
        report = reid_nilpotent_multi([identity_pc_hom(HEIS), psi])
        assert report.pairwise == (Cardinal(16),)

    def test_mismatched_reduction_inputs(self):
        ident = identity_pc_hom(HEIS)
        other_dom = PcHom(
            heis_cross_z(), HEIS,
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)],
        )
        with pytest.raises(ShapeError):
            central_reduction(ident, other_dom)
