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
not, the computation is reported as unsupported rather than guessed.  A
family phi_1, ..., phi_k is counted from its k-1 pair reductions
(phi_1, phi_j), stacked blockwise as the reduction of one pair into the
direct power G^(k-1); the power itself is built only by the CLI's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cardinal import INFINITE
from .errors import (
    ConsistencyError,
    HomomorphismError,
    ShapeError,
    StructureError,
)
from .exact_linalg import (
    IntMatrix,
    _cokernel_order,
    _graph_rows,
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
    noncentral block.  Each relation [g_i, g_j] = central word, with
    n_noncentral > i > j >= 0, is stored once, in _relations, as (i, j,
    terms): the nonzero (word slot, coefficient) pairs of the word, so a
    product visits only the central slots it changes.  _relations is sorted
    by (i, j) and each terms by slot, so it is canonical; absent pairs
    commute.  commutators is a dense view of it, built when read.

    The constructor checks every label, key and entry of its dense input.
    from_presentation checks its own input and builds through _init, which
    checks nothing.
    """

    __slots__ = ("labels", "n_noncentral", "_relations")

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
        z = len(labels) - n_noncentral
        relations = {}
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
            relations[(i, j)] = [(n_noncentral + l, c) for l, c in enumerate(vec) if c]
        self._init(labels, n_noncentral, relations)

    def _init(self, labels, n_noncentral, relations):
        """Set the group on checked data: labels a tuple of distinct
        strings, relations keyed (i, j) with n_noncentral > i > j >= 0, each
        value the terms: nonzero (word slot, int coefficient) pairs on
        distinct central slots.  A relation with no terms is dropped."""
        self.labels = labels
        self.n_noncentral = n_noncentral
        self._relations = tuple(
            sorted((i, j, tuple(sorted(t))) for (i, j), t in relations.items() if t)
        )

    @classmethod
    def from_presentation(cls, noncentral, central, relations) -> PcGroup:
        """Build from labelled relations [x, y] = central word.

        relations maps a pair of noncentral labels to {central_label: exp};
        either order of the pair is accepted, with the sign adjusted, since
        [y, x] is the inverse of [x, y] when the value is central.  Each
        word becomes its relation's terms as it is read.
        """
        noncentral = [str(x) for x in noncentral]
        central = [str(x) for x in central]
        labels = noncentral + central
        if not labels:
            raise StructureError("a group needs at least one generator")
        m = len(noncentral)
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise StructureError(f"generator labels repeat: {labels}")
        central_slot = {lab: m + l for l, lab in enumerate(central)}
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
            # storage wants [g_i, g_j] with i > j; [g_j, g_i] is its
            # inverse, and inverting a central word negates it
            sign = 1 if i > j else -1
            terms = []
            for lab, e in dict(word).items():
                if lab not in central_slot:
                    raise StructureError(
                        f"relation value names {lab!r}, which is not a central generator"
                    )
                if not isinstance(e, int) or isinstance(e, bool):
                    raise StructureError(
                        f"relation ({x}, {y}) gives {lab!r} the exponent {e!r}, "
                        "not an integer"
                    )
                if e:
                    terms.append((central_slot[lab], sign * e))
            key = (i, j) if i > j else (j, i)
            if key in comm:
                raise StructureError(f"conflicting relations for the pair {key}")
            comm[key] = terms
        group = cls.__new__(cls)
        group._init(tuple(labels), m, comm)
        return group

    # -- derived shape -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def n_central(self) -> int:
        return self.n - self.n_noncentral

    @property
    def commutators(self) -> dict:
        """{(i, j): central exponent vector of [g_i, g_j]} for each
        relation, in (i, j) order; absent pairs commute."""
        z, m = self.n_central, self.n_noncentral
        dense = {}
        for i, j, terms in self._relations:
            vec = [0] * z
            for l, c in terms:
                vec[l - m] = c
            dense[(i, j)] = tuple(vec)
        return dense

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
    #
    # The public operations check their operands; the underscored kernels
    # take words the package built itself and check nothing.

    def multiply(self, u, v) -> tuple[int, ...]:
        """Collected product: exponent sums plus central corrections from
        moving the right factor's generators left past higher-index ones."""
        return self._multiply(self.check_word(u), self.check_word(v))

    def _multiply(self, u, v) -> tuple[int, ...]:
        w = [a + b for a, b in zip(u, v)]
        for i, j, terms in self._relations:
            f = u[i] * v[j]
            if f:
                for l, c in terms:
                    w[l] += f * c
        return tuple(w)

    def power(self, u, e: int) -> tuple[int, ...]:
        u = self.check_word(u)
        if not isinstance(e, int) or isinstance(e, bool):
            raise ShapeError(f"exponent must be an integer, got {e!r}")
        return self._power(u, e)

    def _power(self, u, e: int) -> tuple[int, ...]:
        w = [e * x for x in u]
        coef = e * (e - 1) // 2
        if coef:
            for i, j, terms in self._relations:
                f = u[i] * u[j]
                if f:
                    f *= coef
                    for l, c in terms:
                        w[l] += f * c
        return tuple(w)

    def inverse(self, u) -> tuple[int, ...]:
        return self.power(u, -1)

    def commutator(self, u, v) -> tuple[int, ...]:
        """[u, v] = u^-1 v^-1 u v, always central in class 2."""
        return self._commutator(self.check_word(u), self.check_word(v))

    def _commutator(self, u, v) -> tuple[int, ...]:
        w = [0] * len(u)
        for i, j, terms in self._relations:
            f = u[i] * v[j] - u[j] * v[i]
            if f:
                for l, c in terms:
                    w[l] += f * c
        return tuple(w)

    def __eq__(self, other):
        if not isinstance(other, PcGroup):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.n_noncentral == other.n_noncentral
            and self._relations == other._relations
        )

    def __hash__(self):
        return hash((self.labels, self.n_noncentral, self._relations))

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
    factor by factor, so a tuple of elements concatenates blockwise.  Each
    factor's relations are the group's terms shifted into its blocks, and
    the power is built through _init: the group's data is already checked.
    """
    if not isinstance(copies, int) or copies < 1:
        raise StructureError(f"copies must be a positive integer, got {copies!r}")
    if copies == 1:
        return group
    m, z = group.n_noncentral, group.n_central
    labels = tuple(
        f"{group.labels[i]}_{f + 1}" for f in range(copies) for i in range(m)
    ) + tuple(
        f"{group.labels[m + l]}_{f + 1}" for f in range(copies) for l in range(z)
    )
    relations = {}
    for f in range(copies):
        # slot m + l of the factor becomes slot copies * m + f * z + l
        shift = (copies - 1) * m + f * z
        for i, j, terms in group._relations:
            relations[(f * m + i, f * m + j)] = [(l + shift, c) for l, c in terms]
    power = PcGroup.__new__(PcGroup)
    power._init(labels, copies * m, relations)
    return power


def _terms(word) -> list[tuple[int, int]]:
    """The (generator index, exponent) pairs of a word's nonzero exponents,
    in ascending index: the word as PcHom._apply takes it."""
    return [(g, e) for g, e in enumerate(word) if e]


class PcHom:
    """Homomorphism given by the images of the domain generators.

    Well-definedness is checked against the domain's structure constants:
    [phi(g_i), phi(g_j)] must equal phi of the relation's value, the
    identity where the domain has no relation.  The constructor checks each
    image as a codomain word (HomomorphismError) and then validates.
    _parsed takes images that are already int words of the codomain's
    length, one per domain generator (parsed by the CLI, or built by the
    package), and only validates.
    """

    __slots__ = ("domain", "codomain", "images")

    def __init__(self, domain: PcGroup, codomain: PcGroup, images):
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
        self.validate()

    @classmethod
    def _parsed(cls, domain: PcGroup, codomain: PcGroup, images) -> PcHom:
        hom = cls.__new__(cls)
        hom.domain, hom.codomain, hom.images = domain, codomain, tuple(images)
        hom.validate()
        return hom

    def validate(self):
        """HomomorphismError at the first generator pair, in (i, j < i)
        order, whose images do not commute to the image of the pair's
        relation.  A class-2 commutator reads only the noncentral parts of
        its arguments, so a pair can fail only when the domain relates it
        or both images have noncentral parts; only those pairs are visited.
        A relation's terms are the terms of its central word."""
        dom, cod = self.domain, self.codomain
        images = self.images
        m = cod.n_noncentral
        noncentral = [g for g, w in enumerate(images) if any(w[:m])]
        relations = {(i, j): terms for i, j, terms in dom._relations}
        pairs = set(relations)
        pairs.update((i, j) for a, i in enumerate(noncentral) for j in noncentral[:a])
        identity = cod.identity()
        for i, j in sorted(pairs):
            terms = relations.get((i, j))
            lhs = cod._commutator(images[i], images[j])
            rhs = self._apply(terms) if terms else identity
            if lhs != rhs:
                raise HomomorphismError(
                    f"images of {dom.labels[i]} and {dom.labels[j]} violate "
                    f"the commutator relation: [{dom.labels[i]}, "
                    f"{dom.labels[j]}] maps to {rhs} but the images "
                    f"commute to {lhs}"
                )

    def apply(self, word) -> tuple[int, ...]:
        return self._apply(_terms(self.domain.check_word(word)))

    def _apply(self, terms) -> tuple[int, ...]:
        """The image of the word with these terms (see _terms): the
        collected product of the images' powers in ascending generator
        order, starting from the first factor, with an image taken as it is
        for exponent 1.  No terms give the identity."""
        cod, images = self.codomain, self.images
        out = None
        for g, e in terms:
            factor = images[g] if e == 1 else cod._power(images[g], e)
            out = factor if out is None else cod._multiply(out, factor)
        return cod.identity() if out is None else out

    def __repr__(self):
        pairs = ", ".join(
            f"{lab} -> {img}" for lab, img in zip(self.domain.labels, self.images)
        )
        return f"PcHom({pairs})"


def identity_pc_hom(group: PcGroup) -> PcHom:
    """The identity map of group.  Its images are unit words the package
    builds, so they skip the word check, but the map is validated."""
    images = []
    for i in range(group.n):
        w = [0] * group.n
        w[i] = 1
        images.append(tuple(w))
    return PcHom._parsed(group, group, images)


def _shared_ends(homs) -> tuple[PcGroup, PcGroup]:
    """homs[0]'s domain and codomain; ShapeError names a map with others."""
    domain, codomain = homs[0].domain, homs[0].codomain
    for i, h in enumerate(homs):
        if h.domain != domain:
            raise ShapeError(f"map {i} has a different domain")
        if h.codomain != codomain:
            raise ShapeError(f"map {i} has a different codomain")
    return domain, codomain


def combine_homs(homs, power_group: PcGroup) -> PcHom:
    """The map g -> (phi_1(g), ..., phi_m(g)) into the direct power.

    Factors commute elementwise, so the product's normal form is the
    blockwise concatenation of the factor images, words the input maps
    already hold, so the map skips the word check but is validated.
    """
    homs = list(homs)
    if not homs:
        raise ShapeError("need at least one map to combine")
    domain, factor = _shared_ends(homs)
    copies = len(homs)
    if power_group != direct_power_pc(factor, copies):
        raise ShapeError("power_group is not the direct power of the shared codomain")
    images = []
    for l in range(domain.n):
        parts = [h.images[l] for h in homs]
        nc = [x for w in parts for x in factor.noncentral_part(w)]
        ce = [x for w in parts for x in factor.central_part(w)]
        images.append(tuple(nc + ce))
    return PcHom._parsed(domain, power_group, images)


# -- central extension reduction -------------------------------------------------


@dataclass(frozen=True)
class CentralExtensionData:
    """Coordinates for 1 -> A -> G -> B -> 1 with A the commutator sublattice.

    _rows holds the rows of a unimodular basis of the central block whose
    first a_rank rows span A, and _dual the rows of its inverse transpose,
    each once, as terms: (word slot, nonzero coefficient) pairs.  Only
    _coords and _lift multiply by them.  B keeps the noncentral exponents
    plus the trailing adapted coordinates.  adapted and coords are dense
    views of _rows and _dual, built when read.
    """

    group: PcGroup
    a_rank: int
    _rows: tuple
    _dual: tuple
    b_rank = property(lambda self: self.group.n - self.a_rank)
    adapted = property(lambda self: _dense(self._rows, self.group))
    coords = property(lambda self: _dense(self._dual, self.group))

    def _coords(self, word, first: int) -> tuple[int, ...]:
        """word's central block over the adapted rows from row first on."""
        return tuple(sum(c * word[l] for l, c in row) for row in self._dual[first:])

    def _lift(self, vector, first: int) -> tuple[int, ...]:
        """The word with vector's noncentral head, and as central block its
        remaining entries times the adapted rows from row first on."""
        m = self.group.n_noncentral
        word = list(vector[:m]) + [0] * self.group.n_central
        for y, row in zip(vector[m:], self._rows[first:]):
            for l, c in row:
                word[l] += y * c
        return tuple(word)

    def project(self, word) -> tuple[int, ...]:
        return self._project(self.group.check_word(word))

    def _project(self, word) -> tuple[int, ...]:
        return self.group.noncentral_part(word) + self._coords(word, self.a_rank)

    def section(self, b_vector) -> tuple[int, ...]:
        b_vector = tuple(b_vector)
        if len(b_vector) != self.b_rank:
            raise ShapeError(
                f"quotient vector has length {len(b_vector)}, expected {self.b_rank}"
            )
        return self._lift(b_vector, self.a_rank)

    def a_coords(self, central_vec) -> tuple[int, ...] | None:
        x = self._coords(self.group.central_word(central_vec), 0)
        return None if any(x[self.a_rank :]) else x[: self.a_rank]

    def a_embed(self, a_vector) -> tuple[int, ...]:
        a_vector = tuple(a_vector)
        if len(a_vector) != self.a_rank:
            raise ShapeError(
                f"sublattice vector has length {len(a_vector)}, expected {self.a_rank}"
            )
        return self._lift((0,) * self.group.n_noncentral + a_vector, 0)


def _dense(rows, group: PcGroup) -> IntMatrix:
    """The square matrix over the central block with these terms as rows."""
    m, z = group.n_noncentral, group.n_central
    return IntMatrix._built([[t.get(l, 0) for l in range(m, m + z)] for t in map(dict, rows)], z)


def central_extension_data(group: PcGroup) -> CentralExtensionData:
    """Split the central block into the commutator sublattice and a complement.

    Requires the commutator sublattice to be a direct summand of the central
    lattice; otherwise the quotient has torsion, no free-abelian matrix
    picture exists, and a StructureError explains that.

    A Hermite basis of unit rows (free groups, the Heisenberg group) makes
    the adapted basis the permutation listing their pivots first, one term
    per row: its head is the basis and it is its own inverse transpose, so
    only distinct pivots are checked and no matrix is built.  Other bases B,
    r x z, take their graph rows (exact_linalg._graph_rows), whose heads
    must be [I_r; 0], else the r x r head block's invariant factors go in
    the StructureError.  coords is their tails W, B @ W^T == [I_r 0], and
    adapted is W^-T, whose first r rows are B, through unimodular_inverse,
    which checks W^T @ W^-T == I.  Both are kept as terms.
    """
    m, z = group.n_noncentral, group.n_central
    basis = hermite_basis(group.commutators.values(), z)
    r = len(basis)
    if all(row.count(0) == z - 1 and 1 in row for row in basis):
        pivots = [row.index(1) for row in basis]
        taken = set(pivots)
        if len(taken) != r:
            raise ConsistencyError("the unit rows of the commutator basis repeat")
        order = pivots + [l for l in range(z) if l not in taken]
        rows = dual = tuple(((m + l, 1),) for l in order)
    else:
        graph = _graph_rows(IntMatrix._built(basis, z))
        if any(graph[i][i] != 1 for i in range(r)):
            head = IntMatrix._built([row[:r] for row in graph[:r]], r)
            raise StructureError(
                "the commutator subgroup is not a direct summand of the central "
                f"lattice (invariant factors {smith_normal_form(head).divisors}); "
                "the abelianized group would have torsion, which this reduction "
                "does not support"
            )
        coords = IntMatrix._built([row[r:] for row in graph], z)
        adapted = unimodular_inverse(coords.transpose())
        if hermite_basis([adapted.row(s) for s in range(r)], z) != basis:
            raise ConsistencyError("adapted basis does not span the commutator sublattice")
        rows, dual = (
            tuple(tuple((m + l, c) for l, c in enumerate(row) if c) for row in mat.iter_rows())
            for mat in (adapted, coords)
        )
    return CentralExtensionData(group=group, a_rank=r, _rows=rows, _dual=dual)


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


def _sublattice_coords(data, word, what: str) -> tuple[int, ...]:
    """Coordinates over A of a word the package built that must lie in A;
    its length is not checked again."""
    if any(data.group.noncentral_part(word)):
        raise ConsistencyError(f"{what} outside the central block")
    x = data._coords(word, 0)
    if any(x[data.a_rank :]):
        raise ConsistencyError(f"{what} outside the commutator sublattice")
    return x[: data.a_rank]


def _pair_reductions(homs) -> list[PairReduction]:
    """The reductions of the pairs (phi_1, phi_j), j = 2..k, of a family
    sharing one domain and one codomain (else ShapeError).  Extension data is
    built once per group, and every map is pushed through it once, one basis
    vector of B and of A at a time, whose lift (a generator or a stored
    adapted row) serves all k maps.  On free groups and the Heisenberg group
    every lift is one generator, so a column is a projected image."""
    homs = list(homs)
    if len(homs) < 2:
        raise ShapeError(f"need at least two maps, got {len(homs)}")
    domain, codomain = _shared_ends(homs)
    d1 = central_extension_data(domain)
    d2 = d1 if codomain == domain else central_extension_data(codomain)
    # a unit vector lifts to a generator (B's noncentral coordinates) or to
    # the central word of one adapted row, whose stored terms are its lift
    b_lifts = [[(g, 1)] for g in range(domain.n_noncentral)] + list(d1._rows[d1.a_rank :])
    a_lifts = d1._rows[: d1.a_rank]
    what = "a commutator-subgroup element maps"

    def matrices(hom):
        bar = [d2._project(hom._apply(w)) for w in b_lifts]
        prime = [_sublattice_coords(d2, hom._apply(w), what) for w in a_lifts]
        return (
            IntMatrix._built(bar, d2.b_rank).transpose(),
            IntMatrix._built(prime, d2.a_rank).transpose(),
        )

    phi_bar, phi_prime = matrices(homs[0])
    return [
        PairReduction(homs[0], psi, d1, d2, phi_bar, psi_bar, phi_prime, psi_prime)
        for psi, (psi_bar, psi_prime) in zip(homs[1:], map(matrices, homs[1:]))
    ]


def central_reduction(phi: PcHom, psi: PcHom) -> PairReduction:
    """The pair (phi, psi) pushed through the central extension of its
    domain and codomain: the one reduction of _pair_reductions([phi, psi])."""
    return _pair_reductions([phi, psi])[0]


def _stack(reds) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """phi_bar, psi_bar, phi_prime, psi_prime of pair reductions sharing their
    extension data, in the direct power's layout; one pair is its own stack."""
    if len(reds) == 1:
        return reds[0].phi_bar, reds[0].psi_bar, reds[0].phi_prime, reds[0].psi_prime
    m = reds[0].codomain_data.group.n_noncentral

    def quotient(mats):
        blocks = [tuple(mat.iter_rows()) for mat in mats]
        rows = [r for b in blocks for r in b[:m]] + [r for b in blocks for r in b[m:]]
        return IntMatrix._built(rows, mats[0].cols)

    return (
        quotient([r.phi_bar for r in reds]),
        quotient([r.psi_bar for r in reds]),
        IntMatrix.stack_rows(r.phi_prime for r in reds),
        IntMatrix.stack_rows(r.psi_prime for r in reds),
    )


def delta_image_vectors(red: PairReduction) -> list[tuple[int, ...]]:
    """Images of a basis of the quotient-level coincidence group under
    theta -> psi(theta) * phi(theta)^(-1), in sublattice coordinates.

    The coincidence group is kernel_basis of the induced difference on B;
    the lifted values are forced into A because the projections agree there.
    red may be a sequence of pair reductions sharing their extension data:
    then B's difference is their stack and the lift joins block by block.
    """
    reds = [red] if isinstance(red, PairReduction) else list(red)
    phi_bar, psi_bar, _, _ = _stack(reds)
    d1, d2 = reds[0].domain_data, reds[0].codomain_data
    cod = d2.group
    vectors = []
    for kappa in kernel_basis(psi_bar - phi_bar):
        theta = _terms(d1._lift(kappa, d1.a_rank))
        vector = ()
        for r in reds:
            g = cod._multiply(r.psi._apply(theta), cod._power(r.phi._apply(theta), -1))
            vector += _sublattice_coords(d2, g, "a quotient-level coincidence lifts")
        vectors.append(vector)
    return vectors


def _count(reds, bar: int = 0, prime: int = 0) -> ReidemeisterReport:
    """The count read off the stack of pair reductions (phi_1, phi_j): the
    joint value from the stacked matrices, the pairwise values from each
    pair's own matrices.  Every order comes from the index route
    (_cokernel_order), with no Smith form.
    A finite R_bar means full row rank, so only a quotient difference with
    more columns than rows has a kernel to lift delta-vectors from.

    bar and prime are known multiples of R_bar and R_prime (0: none).  Each
    pair's quotient and central differences are coordinate projections of
    the stacked ones, so a finite stacked R_bar and R_prime are such
    multiples for every pair; and the joint lattice of the central
    difference and the delta-vectors contains the one R_prime counts, so
    R_prime is a multiple of its order.  An order of 1 passes down with no
    matrix work, and a passed-down R_prime of 1 makes |Im delta| = 1, so no
    delta-vector is lifted."""
    d1, d2 = reds[0].domain_data, reds[0].codomain_data
    copies = len(reds)
    phi_bar, psi_bar, phi_prime, psi_prime = _stack(reds)
    diff_bar = psi_bar - phi_bar
    r_bar = _cokernel_order(diff_bar, multiple=bar)
    diff_prime = psi_prime - phi_prime
    r_prime = _cokernel_order(diff_prime, multiple=prime)
    b_rank, a_rank = copies * d2.b_rank, copies * d2.a_rank
    fold = f"{copies + 1} maps folded into a pair targeting the direct power"
    trace = [f"{fold} with {copies} factors"] if copies > 1 else []
    trace += [
        f"free abelian quotient ranks: domain {d1.b_rank}, codomain {b_rank}",
        f"commutator sublattice ranks: domain {d1.a_rank}, codomain {a_rank}",
        f"quotient-level count: {r_bar}",
        f"sublattice-level count: {r_prime}",
    ]
    intermediates = {
        "quotient_matrix_first": phi_bar.to_lists(),
        "quotient_matrix_second": psi_bar.to_lists(),
        "sublattice_matrix_first": phi_prime.to_lists(),
        "sublattice_matrix_second": psi_prime.to_lists(),
        "quotient_count": r_bar.to_json(),
        "sublattice_count": r_prime.to_json(),
        "nielsen_note": NIELSEN_NOTE,
    }
    value, status, pairwise = INFINITE, STATUS_OK, ()
    if not r_bar.is_finite:
        trace.append("the quotient-level count is infinite, so the value is infinite")
    elif not r_prime.is_finite:
        trace.append(
            "the difference restricted to the commutator sublattice has a "
            "singular cokernel; the class count does not factor through this "
            "reduction, and the deeper quotient tower it would need is not "
            "implemented"
        )
        value, status = None, STATUS_UNSUPPORTED
    else:
        # R_prime passed down as 1 leaves Im delta trivial: nothing is lifted
        lifted = diff_bar.cols > diff_bar.rows and prime != 1
        deltas = delta_image_vectors(reds) if lifted else []
        joint = r_prime
        if deltas:
            columns = IntMatrix._built(deltas, diff_prime.rows).transpose()
            joint = _cokernel_order(diff_prime.hstack(columns), multiple=r_prime.value)
        im_delta = r_prime.divide_exact(joint)
        value = (r_prime * r_bar).divide_exact(im_delta)
        trace.append(
            f"coincidence group of the quotient pair has rank {len(deltas)}; "
            f"its central image has order {im_delta}"
            if prime != 1
            else "the sublattice-level count passed down is 1, so the central image is trivial"
        )
        trace.append(f"value = {r_prime} * {r_bar} / {im_delta} = {value}")
        intermediates["delta_vectors"] = [list(v) for v in deltas]
        intermediates["im_delta"] = im_delta.to_json()
    if status == STATUS_OK and copies == 1:
        pairwise = (value,)
    elif status == STATUS_OK:
        bar, prime = (c.value if c.is_finite else 0 for c in (r_bar, r_prime))
        pairs = [_count([r], bar, prime) for r in reds]
        if all(p.status == STATUS_OK for p in pairs):
            pairwise = tuple(p.value for p in pairs)
            intermediates["pairwise"] = [v.to_json() for v in pairwise]
        else:
            trace.append(
                "a pairwise computation fell outside this reduction; pairwise "
                "values are omitted"
            )
    return ReidemeisterReport(
        value, pairwise, intermediates=intermediates, trace=tuple(trace), status=status
    )


def reid_nilpotent(phi: PcHom, psi: PcHom) -> ReidemeisterReport:
    """Count of twisted classes alpha ~ phi(z) alpha psi(z)^(-1) on the
    shared codomain: reid_nilpotent_multi of the two maps, so pairwise holds
    the value itself."""
    return reid_nilpotent_multi([phi, psi])


def reid_nilpotent_multi(homs) -> ReidemeisterReport:
    """Count for k >= 2 maps: classes of (k-1)-tuples over the codomain under
    alpha_i -> phi_1(z) alpha_i phi_i(z)^(-1), that is, the pair count of
    (phi_1, ..., phi_1) against (phi_2, ..., phi_k) into the direct power.

    The power is never built.  _pair_reductions reduces each pair
    (phi_1, phi_j) once, and the power's matrices are those pair matrices
    stacked (see _stack): quotient rows as every block's noncentral
    coordinates, then every block's complement coordinates; sublattice rows
    block by block.  Delta-vectors lift block by block at the kernel vectors
    of the stacked quotient difference.  The pairwise values come from the
    same pair reductions.
    """
    return _count(_pair_reductions(homs))


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
