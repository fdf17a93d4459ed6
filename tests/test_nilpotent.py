"""Class-2 nilpotent engine: collection arithmetic, hom validation, the
central-extension reduction with its exact worked matrices, the connecting-map
correction, a brute-force recount oracle, and cross-checks against the
free-abelian engine."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from coincidence_kit.abelian import AbelianSystem, reid_pair, reid_multi
from coincidence_kit.abelian import AbelianHom
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
from coincidence_kit.reporting import STATUS_OK, STATUS_UNSUPPORTED

HEIS = heisenberg_group()


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
        groups = [HEIS, six_generator_domain(), heis_cross_z()]
        for _ in range(200):
            g = rng.choice(groups)
            u, v, w = (random_word(rng, g) for _ in range(3))
            assert g.multiply(g.multiply(u, v), w) == g.multiply(u, g.multiply(v, w))

    def test_inverse_and_power_random(self):
        rng = random.Random(12)
        for _ in range(50):
            g = rng.choice([HEIS, six_generator_domain()])
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
        for _ in range(100):
            g = rng.choice([HEIS, six_generator_domain(), heis_cross_z()])
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


# -- homomorphisms ----------------------------------------------------------------


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

    def test_rotation_pair_is_unsupported(self):
        rot = PcHom(HEIS, HEIS, [(0, -1, 0), (1, 0, 0), (0, 0, 1)])
        report = reid_nilpotent(identity_pc_hom(HEIS), rot)
        assert report.status == STATUS_UNSUPPORTED
        assert report.value is None
        assert report.intermediates["quotient_count"] == 2
        assert report.intermediates["sublattice_count"] == "infinite"
        assert any("not" in line and "implemented" in line for line in report.trace)

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
            assert report.value == reid_pair(AbelianHom(m1), AbelianHom(m2))

    def test_all_central_layout_agrees(self):
        dom = PcGroup(["x0", "x1"], 0, {})
        cod = PcGroup(["y0", "y1"], 0, {})
        m1 = [[2, 4], [2, 6]]
        m2 = [[0, 0], [0, 0]]
        report = reid_nilpotent(
            _abelian_as_pc(m1, dom, cod), _abelian_as_pc(m2, dom, cod)
        )
        assert report.value == reid_pair(AbelianHom(m1), AbelianHom(m2))
        assert report.value == Cardinal(4)

    def test_multi_matches_torus_engine(self):
        rng = random.Random(42)
        for _ in range(50):
            n, m, k = rng.randint(1, 2), rng.randint(1, 3), rng.choice([3, 4])
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
            assert report.value == torus.value
            if report.value.is_finite:
                assert report.pairwise == torus.pairwise


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
