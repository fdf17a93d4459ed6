"""Reidemeister coincidence counts for class-2 torsion-free nilpotent groups.

Groups are given by polycyclic exponent coordinates: generators split into a
noncentral block followed by a central block, every element is the ascending
product of generator powers, and the only nontrivial relations are central
commutator words between noncentral generators.  Multiplication, inversion,
and powers then reduce to integer arithmetic with quadratic correction terms.

The count for a pair (phi, psi) uses the central extension

    1 -> A -> G -> B -> 1

where A is the commutator subgroup (a sublattice of the central block) and
B = G/A is free abelian.  The pair induces integer matrices on B and on A;
writing R_bar for the class count downstairs and R_prime for the count on A,
the total satisfies

    value * |Im delta| = R_prime * R_bar

where delta sends the coincidence group of the induced pair on B into the
central class group via theta -> psi(theta) * phi(theta)^(-1).  The formula
needs the restricted difference on A to have finite cokernel; when it does
not, the computation is reported as unsupported rather than guessed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .cardinal import INFINITE, Cardinal
from .errors import (
    ConsistencyError,
    HomomorphismError,
    ShapeError,
    StructureError,
)
from .exact_linalg import (
    IntMatrix,
    SnfResult,
    cokernel_order,
    hermite_basis,
    kernel_basis,
    smith_normal_form,
    unimodular_inverse,
)
from .reporting import (
    NIELSEN_NOTE,
    STATUS_OK,
    STATUS_UNSUPPORTED,
    ReidemeisterReport,
)


class PcGroup:
    """Torsion-free group of nilpotency class at most 2 on exponent tuples.

    labels names the generators, the first n_noncentral of which form the
    noncentral block.  commutators maps (i, j) with i > j, both noncentral,
    to the central exponent vector of [g_i, g_j]; absent pairs commute.
    """

    __slots__ = ("labels", "n_noncentral", "commutators")

    def __init__(self, labels, n_noncentral: int, commutators):
        labels = tuple(str(x) for x in labels)
        if not labels:
            raise StructureError("a group needs at least one generator")
        if len(set(labels)) != len(labels):
            raise StructureError(f"generator labels repeat: {labels}")
        if not 0 <= n_noncentral <= len(labels):
            raise StructureError(
                f"n_noncentral={n_noncentral} out of range for {len(labels)} generators"
            )
        self.labels = labels
        self.n_noncentral = n_noncentral
        z = len(labels) - n_noncentral
        cleaned = {}
        for key, vec in dict(commutators).items():
            i, j = key
            if not (isinstance(i, int) and isinstance(j, int)):
                raise StructureError(f"commutator key {key!r} is not an index pair")
            if not (n_noncentral > i > j >= 0):
                raise StructureError(
                    f"commutator key {key} must satisfy n_noncentral > i > j >= 0"
                )
            vec = tuple(vec)
            if len(vec) != z:
                raise StructureError(
                    f"commutator vector for {key} has length {len(vec)}, expected {z}"
                )
            for x in vec:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise StructureError(f"commutator vector for {key} holds {x!r}")
            if any(vec):
                cleaned[(i, j)] = vec
        self.commutators = cleaned

    @classmethod
    def from_presentation(cls, noncentral, central, relations) -> PcGroup:
        """Build from labelled relations [x, y] = central word.

        relations maps a pair of noncentral labels to {central_label: exp};
        either order of the pair is accepted, with the sign adjusted, since
        [y, x] is the inverse of [x, y] when the value is central.
        """
        noncentral = [str(x) for x in noncentral]
        central = [str(x) for x in central]
        labels = noncentral + central
        m = len(noncentral)
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise StructureError(f"generator labels repeat: {labels}")
        central_slot = {lab: l for l, lab in enumerate(central)}
        comm = {}
        for (x, y), word in dict(relations).items():
            if x not in index or y not in index:
                raise StructureError(f"relation names unknown generator in ({x}, {y})")
            i, j = index[x], index[y]
            if i >= m or j >= m:
                raise StructureError(
                    f"relation ({x}, {y}) involves a central generator; central "
                    "generators commute with everything by construction"
                )
            if i == j:
                raise StructureError(f"relation ({x}, {y}) pairs a generator with itself")
            vec = [0] * len(central)
            for lab, e in dict(word).items():
                if lab not in central_slot:
                    raise StructureError(
                        f"relation value names {lab!r}, which is not a central generator"
                    )
                vec[central_slot[lab]] += int(e)
            if i > j:
                key, stored = (i, j), tuple(vec)
            else:
                # storage wants [g_j, g_i] with j > i, the inverse of the
                # stated [g_i, g_j], and inverting a central word negates it
                key, stored = (j, i), tuple(-v for v in vec)
            if key in comm:
                raise StructureError(f"conflicting relations for the pair {key}")
            comm[key] = stored
        return cls(labels, m, comm)

    # -- derived shape -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def n_central(self) -> int:
        return self.n - self.n_noncentral

    @property
    def is_abelian(self) -> bool:
        return not self.commutators

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.n

    def check_word(self, word) -> tuple[int, ...]:
        word = tuple(word)
        if len(word) != self.n:
            raise ShapeError(
                f"word has {len(word)} exponents, expected {self.n}"
            )
        for x in word:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ShapeError(f"word holds a non-integer exponent {x!r}")
        return word

    def central_part(self, word) -> tuple[int, ...]:
        return tuple(word[self.n_noncentral :])

    def noncentral_part(self, word) -> tuple[int, ...]:
        return tuple(word[: self.n_noncentral])

    def central_word(self, central_vec) -> tuple[int, ...]:
        central_vec = tuple(central_vec)
        if len(central_vec) != self.n_central:
            raise ShapeError(
                f"central vector has length {len(central_vec)}, expected {self.n_central}"
            )
        return (0,) * self.n_noncentral + central_vec

    # -- arithmetic -----------------------------------------------------------

    def multiply(self, u, v) -> tuple[int, ...]:
        """Collected product: exponent sums plus central corrections from
        moving the right factor's generators left past higher-index ones."""
        u = self.check_word(u)
        v = self.check_word(v)
        w = [a + b for a, b in zip(u, v)]
        base = self.n_noncentral
        for (i, j), vec in self.commutators.items():
            f = u[i] * v[j]
            if f:
                for l, c in enumerate(vec):
                    if c:
                        w[base + l] += f * c
        return tuple(w)

    def power(self, u, e: int) -> tuple[int, ...]:
        u = self.check_word(u)
        if not isinstance(e, int) or isinstance(e, bool):
            raise ShapeError(f"exponent must be an integer, got {e!r}")
        w = [e * x for x in u]
        coef = e * (e - 1) // 2
        if coef:
            base = self.n_noncentral
            for (i, j), vec in self.commutators.items():
                f = u[i] * u[j]
                if f:
                    for l, c in enumerate(vec):
                        if c:
                            w[base + l] += coef * f * c
        return tuple(w)

    def inverse(self, u) -> tuple[int, ...]:
        return self.power(u, -1)

    def commutator(self, u, v) -> tuple[int, ...]:
        """[u, v] = u^-1 v^-1 u v, always central in class 2."""
        u = self.check_word(u)
        v = self.check_word(v)
        w = [0] * self.n
        base = self.n_noncentral
        for (i, j), vec in self.commutators.items():
            f = u[i] * v[j] - u[j] * v[i]
            if f:
                for l, c in enumerate(vec):
                    if c:
                        w[base + l] += f * c
        return tuple(w)

    def __eq__(self, other):
        if not isinstance(other, PcGroup):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.n_noncentral == other.n_noncentral
            and self.commutators == other.commutators
        )

    def __hash__(self):
        return hash(
            (self.labels, self.n_noncentral, tuple(sorted(self.commutators.items())))
        )

    def __repr__(self):
        return (
            f"PcGroup(labels={self.labels!r}, n_noncentral={self.n_noncentral}, "
            f"commutators={self.commutators!r})"
        )


def heisenberg_group() -> PcGroup:
    """The integer Heisenberg group: [a, b] = c with c central."""
    return PcGroup.from_presentation(["a", "b"], ["c"], {("a", "b"): {"c": 1}})


def direct_power_pc(group: PcGroup, copies: int) -> PcGroup:
    """Direct power with factor-consecutive layout inside each block.

    Noncentral generators come factor by factor, then central generators
    factor by factor, so a tuple of elements concatenates blockwise.
    """
    if not isinstance(copies, int) or copies < 1:
        raise StructureError(f"copies must be a positive integer, got {copies!r}")
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


class PcHom:
    """Homomorphism given by the images of the domain generators.

    Well-definedness is checked against every commutator relation of the
    domain: [phi(g_i), phi(g_j)] must equal phi of the relation's value.
    """

    __slots__ = ("domain", "codomain", "images")

    def __init__(self, domain: PcGroup, codomain: PcGroup, images, check: bool = True):
        self.domain = domain
        self.codomain = codomain
        images = tuple(images)
        if len(images) != domain.n:
            raise HomomorphismError(
                f"got {len(images)} generator images, expected {domain.n}"
            )
        try:
            self.images = tuple(codomain.check_word(w) for w in images)
        except ShapeError as exc:
            raise HomomorphismError(str(exc)) from exc
        if check:
            self.validate()

    def validate(self):
        dom, cod = self.domain, self.codomain
        for i in range(dom.n):
            for j in range(i):
                lhs = cod.commutator(self.images[i], self.images[j])
                vec = dom.commutators.get((i, j))
                rhs = (
                    self.apply(dom.central_word(vec)) if vec else cod.identity()
                )
                if lhs != rhs:
                    raise HomomorphismError(
                        f"images of {dom.labels[i]} and {dom.labels[j]} violate "
                        f"the commutator relation: [{dom.labels[i]}, "
                        f"{dom.labels[j]}] maps to {rhs} but the images "
                        f"commute to {lhs}"
                    )

    def apply(self, word) -> tuple[int, ...]:
        word = self.domain.check_word(word)
        out = self.codomain.identity()
        for img, e in zip(self.images, word):
            if e:
                out = self.codomain.multiply(out, self.codomain.power(img, e))
        return out

    def __repr__(self):
        pairs = ", ".join(
            f"{lab} -> {img}" for lab, img in zip(self.domain.labels, self.images)
        )
        return f"PcHom({pairs})"


def identity_pc_hom(group: PcGroup) -> PcHom:
    images = []
    for i in range(group.n):
        w = [0] * group.n
        w[i] = 1
        images.append(tuple(w))
    return PcHom(group, group, images, check=False)


def combine_homs(homs, power_group: PcGroup) -> PcHom:
    """The map g -> (phi_1(g), ..., phi_m(g)) into the direct power.

    Factors commute elementwise, so the product's normal form is the
    blockwise concatenation of the factor images.
    """
    homs = list(homs)
    if not homs:
        raise ShapeError("need at least one map to combine")
    domain = homs[0].domain
    factor = homs[0].codomain
    for i, h in enumerate(homs):
        if h.domain != domain:
            raise ShapeError(f"map {i} has a different domain")
        if h.codomain != factor:
            raise ShapeError(f"map {i} has a different codomain")
    copies = len(homs)
    if power_group != direct_power_pc(factor, copies):
        raise ShapeError("power_group is not the direct power of the shared codomain")
    images = []
    for l in range(domain.n):
        parts = [h.images[l] for h in homs]
        nc = [x for w in parts for x in factor.noncentral_part(w)]
        ce = [x for w in parts for x in factor.central_part(w)]
        images.append(tuple(nc + ce))
    return PcHom(domain, power_group, images)


# -- central extension reduction -------------------------------------------------


@dataclass(frozen=True)
class CentralExtensionData:
    """Coordinates for 1 -> A -> G -> B -> 1 with A the commutator sublattice.

    adapted is a square unimodular matrix on the central block whose first
    a_rank rows span A; coords is the inverse transpose, turning a central
    vector into coefficients over the adapted rows.  B keeps the noncentral
    exponents plus the trailing adapted coordinates.
    """

    group: PcGroup
    a_rank: int
    b_rank: int
    adapted: IntMatrix
    coords: IntMatrix

    def project(self, word) -> tuple[int, ...]:
        word = self.group.check_word(word)
        x = self.coords.apply(self.group.central_part(word))
        return self.group.noncentral_part(word) + tuple(x[self.a_rank :])

    def section(self, b_vector) -> tuple[int, ...]:
        b_vector = tuple(b_vector)
        if len(b_vector) != self.b_rank:
            raise ShapeError(
                f"quotient vector has length {len(b_vector)}, expected {self.b_rank}"
            )
        m = self.group.n_noncentral
        central = [0] * self.group.n_central
        for s, y in enumerate(b_vector[m:]):
            if y:
                row = self.adapted.row(self.a_rank + s)
                for l, c in enumerate(row):
                    central[l] += y * c
        return tuple(b_vector[:m]) + tuple(central)

    def a_coords(self, central_vec) -> tuple[int, ...] | None:
        central_vec = tuple(central_vec)
        if len(central_vec) != self.group.n_central:
            raise ShapeError(
                f"central vector has length {len(central_vec)}, "
                f"expected {self.group.n_central}"
            )
        x = self.coords.apply(central_vec)
        if any(x[self.a_rank :]):
            return None
        return tuple(x[: self.a_rank])

    def a_embed(self, a_vector) -> tuple[int, ...]:
        a_vector = tuple(a_vector)
        if len(a_vector) != self.a_rank:
            raise ShapeError(
                f"sublattice vector has length {len(a_vector)}, expected {self.a_rank}"
            )
        central = [0] * self.group.n_central
        for s, y in enumerate(a_vector):
            if y:
                row = self.adapted.row(s)
                for l, c in enumerate(row):
                    central[l] += y * c
        return self.group.central_word(central)


def central_extension_data(group: PcGroup) -> CentralExtensionData:
    """Split the central block into the commutator sublattice and a complement.

    Requires the commutator sublattice to be a direct summand of the central
    lattice; otherwise the quotient has torsion, no free-abelian matrix
    picture exists, and a StructureError explains that.
    """
    z = group.n_central
    basis = hermite_basis(group.commutators.values(), z)
    r = len(basis)
    unit_rows = all(
        sum(1 for x in row if x) == 1 and max(row) == 1 for row in basis
    )
    if unit_rows:
        # Distinct unit rows (none at all included) span a direct summand, and
        # a permutation matrix is its own inverse transpose.
        pivots = [next(l for l, x in enumerate(row) if x) for row in basis]
        rest = [l for l in range(z) if l not in pivots]
        eye = IntMatrix.identity(z)
        adapted = IntMatrix([eye.row(l) for l in pivots + rest], cols=z)
        coords = adapted
    else:
        snf = smith_normal_form(IntMatrix(basis))
        if any(d != 1 for d in snf.divisors):
            raise StructureError(
                "the commutator subgroup is not a direct summand of the central "
                f"lattice (invariant factors {snf.divisors}); the abelianized "
                "group would have torsion, which this reduction does not support"
            )
        # s @ basis @ t == [I 0], so the first r rows of t^-1 span the
        # sublattice and (t^-1)^T inverts to t^T.
        adapted = unimodular_inverse(snf.t)
        coords = snf.t.transpose()
    # Defense in depth: the chosen rows must span exactly the sublattice, and
    # coords must invert the transpose of the adapted basis.
    head = [adapted.row(s) for s in range(r)]
    if hermite_basis(head, z) != basis:
        raise ConsistencyError("adapted basis does not span the commutator sublattice")
    if coords @ adapted.transpose() != IntMatrix.identity(z):
        raise ConsistencyError("coords do not invert the adapted basis transpose")
    return CentralExtensionData(
        group=group,
        a_rank=r,
        b_rank=group.n_noncentral + z - r,
        adapted=adapted,
        coords=coords,
    )


@dataclass(frozen=True)
class PairReduction:
    """Both maps pushed through the central extension: matrices on the free
    abelian quotient B and on the commutator sublattice A."""

    phi: PcHom
    psi: PcHom
    domain_data: CentralExtensionData
    codomain_data: CentralExtensionData
    phi_bar: IntMatrix
    psi_bar: IntMatrix
    phi_prime: IntMatrix
    psi_prime: IntMatrix


def _induced_quotient_matrix(hom: PcHom, d1, d2) -> IntMatrix:
    cols = []
    for l in range(d1.b_rank):
        e = [0] * d1.b_rank
        e[l] = 1
        cols.append(d2.project(hom.apply(d1.section(e))))
    return IntMatrix.from_columns(cols, rows=d2.b_rank)


def _induced_sublattice_matrix(hom: PcHom, d1, d2) -> IntMatrix:
    cols = []
    for s in range(d1.a_rank):
        e = [0] * d1.a_rank
        e[s] = 1
        image = hom.apply(d1.a_embed(e))
        if any(d2.group.noncentral_part(image)):
            raise ConsistencyError(
                "a commutator-subgroup element maps outside the central block"
            )
        ac = d2.a_coords(d2.group.central_part(image))
        if ac is None:
            raise ConsistencyError(
                "a commutator-subgroup element maps outside the target "
                "commutator sublattice"
            )
        cols.append(ac)
    return IntMatrix.from_columns(cols, rows=d2.a_rank)


def central_reduction(phi: PcHom, psi: PcHom) -> PairReduction:
    if phi.domain != psi.domain:
        raise ShapeError("the two maps must share a domain")
    if phi.codomain != psi.codomain:
        raise ShapeError("the two maps must share a codomain")
    d1 = central_extension_data(phi.domain)
    d2 = d1 if phi.codomain == phi.domain else central_extension_data(phi.codomain)
    return PairReduction(
        phi=phi,
        psi=psi,
        domain_data=d1,
        codomain_data=d2,
        phi_bar=_induced_quotient_matrix(phi, d1, d2),
        psi_bar=_induced_quotient_matrix(psi, d1, d2),
        phi_prime=_induced_sublattice_matrix(phi, d1, d2),
        psi_prime=_induced_sublattice_matrix(psi, d1, d2),
    )


def delta_image_vectors(
    red: PairReduction, snf_bar: SnfResult | None = None
) -> list[tuple[int, ...]]:
    """Images of a basis of the quotient-level coincidence group under
    theta -> psi(theta) * phi(theta)^(-1), in sublattice coordinates.

    The coincidence group is the kernel of the induced difference on B; the
    lifted values are forced into A because the projections agree there.
    snf_bar is the Smith form of that difference, when the caller has it.
    """
    d1, d2 = red.domain_data, red.codomain_data
    cod = d2.group
    vectors = []
    for kappa in kernel_basis(red.psi_bar - red.phi_bar, snf_bar):
        theta = d1.section(kappa)
        g = cod.multiply(red.psi.apply(theta), cod.inverse(red.phi.apply(theta)))
        if any(cod.noncentral_part(g)):
            raise ConsistencyError(
                "a quotient-level coincidence lifts outside the central block"
            )
        ac = d2.a_coords(cod.central_part(g))
        if ac is None:
            raise ConsistencyError(
                "a quotient-level coincidence lifts outside the commutator sublattice"
            )
        vectors.append(ac)
    return vectors


def _cardinal_json(c: Cardinal | None):
    return None if c is None else c.to_json()


def reid_nilpotent(phi: PcHom, psi: PcHom) -> ReidemeisterReport:
    """Count of twisted classes alpha ~ phi(z) alpha psi(z)^(-1) on the
    shared codomain, via the central extension reduction."""
    red = central_reduction(phi, psi)
    d1, d2 = red.domain_data, red.codomain_data
    snf_bar = smith_normal_form(red.psi_bar - red.phi_bar)
    r_bar = snf_bar.cokernel_order()
    diff_prime = red.psi_prime - red.phi_prime
    r_prime = cokernel_order(diff_prime)
    trace = [
        f"free abelian quotient ranks: domain {d1.b_rank}, codomain {d2.b_rank}",
        f"commutator sublattice ranks: domain {d1.a_rank}, codomain {d2.a_rank}",
        f"quotient-level count: {r_bar}",
        f"sublattice-level count: {r_prime}",
    ]
    intermediates = {
        "quotient_matrix_first": red.phi_bar.to_lists(),
        "quotient_matrix_second": red.psi_bar.to_lists(),
        "sublattice_matrix_first": red.phi_prime.to_lists(),
        "sublattice_matrix_second": red.psi_prime.to_lists(),
        "quotient_count": r_bar.to_json(),
        "sublattice_count": r_prime.to_json(),
        "nielsen_note": NIELSEN_NOTE,
    }
    if not r_bar.is_finite:
        trace.append("the quotient-level count is infinite, so the value is infinite")
        return ReidemeisterReport(
            value=INFINITE,
            intermediates=intermediates,
            trace=tuple(trace),
        )
    if not r_prime.is_finite:
        trace.append(
            "the difference restricted to the commutator sublattice has a "
            "singular cokernel; the class count does not factor through this "
            "reduction, and the deeper quotient tower it would need is not "
            "implemented"
        )
        return ReidemeisterReport(
            value=None,
            intermediates=intermediates,
            trace=tuple(trace),
            status=STATUS_UNSUPPORTED,
        )
    deltas = delta_image_vectors(red, snf_bar)
    if deltas:
        augmented = diff_prime.hstack(
            IntMatrix.from_columns(deltas, rows=d2.a_rank)
        )
        joint = cokernel_order(augmented)
    else:
        joint = r_prime
    im_delta = r_prime.divide_exact(joint)
    total = r_prime * r_bar
    value = total.divide_exact(im_delta)
    trace.append(
        f"coincidence group of the quotient pair has rank {len(deltas)}; "
        f"its central image has order {im_delta}"
    )
    trace.append(
        f"value = {r_prime} * {r_bar} / {im_delta} = {value}"
    )
    intermediates["delta_vectors"] = [list(v) for v in deltas]
    intermediates["im_delta"] = im_delta.to_json()
    return ReidemeisterReport(
        value=value,
        intermediates=intermediates,
        trace=tuple(trace),
    )


def reid_nilpotent_multi(homs) -> ReidemeisterReport:
    """Count for k >= 2 maps: classes of (k-1)-tuples over the codomain under
    alpha_i -> phi_1(z) alpha_i phi_i(z)^(-1), folded into one pair into the
    direct power of the codomain."""
    homs = list(homs)
    if len(homs) < 2:
        raise ShapeError(f"need at least two maps, got {len(homs)}")
    domain = homs[0].domain
    codomain = homs[0].codomain
    for i, h in enumerate(homs):
        if h.domain != domain:
            raise ShapeError(f"map {i} has a different domain")
        if h.codomain != codomain:
            raise ShapeError(f"map {i} has a different codomain")
    k = len(homs)
    if k == 2:
        report = reid_nilpotent(homs[0], homs[1])
        if report.status == STATUS_OK:
            report = dataclasses.replace(report, pairwise=(report.value,))
        return report
    power = direct_power_pc(codomain, k - 1)
    first = combine_homs([homs[0]] * (k - 1), power)
    second = combine_homs(homs[1:], power)
    report = reid_nilpotent(first, second)
    trace = (
        f"{k} maps folded into a pair targeting the direct power with "
        f"{k - 1} factors",
    ) + report.trace
    if report.status != STATUS_OK:
        return dataclasses.replace(report, trace=trace)
    pair_reports = [reid_nilpotent(homs[0], h) for h in homs[1:]]
    if all(p.status == STATUS_OK for p in pair_reports):
        pairwise = tuple(p.value for p in pair_reports)
        intermediates = dict(report.intermediates)
        intermediates["pairwise"] = [_cardinal_json(v) for v in pairwise]
        return dataclasses.replace(
            report, pairwise=pairwise, trace=trace, intermediates=intermediates
        )
    trace = trace + (
        "a pairwise computation fell outside this reduction; pairwise values "
        "are omitted",
    )
    return dataclasses.replace(report, trace=trace)


__all__ = [
    "CentralExtensionData",
    "PairReduction",
    "PcGroup",
    "PcHom",
    "central_extension_data",
    "central_reduction",
    "combine_homs",
    "delta_image_vectors",
    "direct_power_pc",
    "heisenberg_group",
    "identity_pc_hom",
    "reid_nilpotent",
    "reid_nilpotent_multi",
]
