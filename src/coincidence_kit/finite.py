"""Twisted conjugacy counts on finite groups.

A group is indices 0..order-1 behind one of two backings: a Cayley table
(closures, cyclic groups, tables read from input) or, for every direct
product, componentwise arithmetic on its two factors.  A closure forms one
element product per edge of its right Cayley graph, a permutation's as one
itemgetter gather, and fills the table and the inverse array from that
graph and its breadth-first tree by lookups.  Input data is checked
exactly against a greedy generating set: a table by Light's associativity
test, an image table by multiplicativity on the generators.  The twisted
counts read a table-backed codomain's rows and inverse array directly, and
call mul and inv only on a product-backed one.

Tuples (alpha_2, ..., alpha_k) over the codomain are equivalent when some z
in the domain sends every alpha_i to phi_1(z) * alpha_i * phi_i(z)^{-1}.
With all maps equal this degenerates to plain conjugacy, which is why the
tests anchor it to the conjugacy class count.

The action of z only depends on the image tuple (phi_1(z), ..., phi_k(z)),
and those image tuples form a subgroup Gamma of codomain^k, collected once
by a scan of the whole domain (nothing sampled).  The count descends through
stabilizers, as R(phi_1, ..., phi_k) relates to R(phi_1, phi_2): the orbits
of Gamma on the first coordinate are the R(phi_1, phi_2) classes, the
stabilizer of each acts on the second coordinate, and so on.  Each leaf is
one class, its size |Gamma| / |stabilizer|; no tuple space is swept, and
every orbit is checked against orbit-stabilizer.  R(phi_1, phi_2) is the
number of distinct leading coordinates among the class representatives.
The partition keeps Gamma, and each R(phi_1, phi_j) with phi_j unlike phi_2
is one more descent over Gamma's projection onto coordinates 1 and j, which
is the image subgroup of (phi_1, phi_j): the domain is scanned once per
count.  A second, structurally different algorithm runs union-find over a
generating subset of Gamma and reads off each class's smallest tuple and
size; the two must agree on both, which, as any one member determines its
class, makes the partitions equal.
Each generator moves every coordinate on its own, so union-find tabulates
its action once per coordinate, 2n codomain products for n elements, and
moves a tuple index by summing one table entry per coordinate: the whole
run makes 2 * |generators| * (k - 1) * n products plus one union per tuple
and generator.
"""

from __future__ import annotations

import itertools
import operator

from .cardinal import Cardinal
from .errors import (
    ConsistencyError,
    HomomorphismError,
    ShapeError,
    SizeCapError,
    StructureError,
)
from .exact_linalg import IntMatrix, determinant

DEFAULT_CLOSURE_CAP = 10_000
DEFAULT_PRODUCT_CAP = 1_000_000
DEFAULT_TUPLE_CAP = 10_000_000
DEFAULT_WORK_CAP = 100_000_000


class FiniteGroup:
    """A finite group on indices 0..order-1; identity is the index it names.

    Backed either by an explicit Cayley table or, for a direct product, by
    componentwise index arithmetic on its factors.  Both expose the same
    interface: mul(i, j), inv(i), identity, order.
    """

    __slots__ = ("order", "identity", "_table", "_inv", "_pair", "elements")

    def __init__(self, *, table=None, pair=None, elements=None, identity=0):
        if (table is None) == (pair is None):
            raise StructureError("exactly one backing (table or pair) is required")
        self._table = table
        self._pair = pair
        self.elements = elements
        if table is not None:
            self.order = len(table)
            self.identity = identity
            self._inv = []
            for i, row in enumerate(table):
                try:
                    self._inv.append(row.index(identity))
                except ValueError:
                    raise StructureError(f"element {i} has no inverse") from None
        else:
            g, h = pair
            self.order = g.order * h.order
            self.identity = g.identity * h.order + h.identity
            self._inv = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_table(cls, table):
        """Build from an explicit Cayley table, verifying the group laws.

        Rows and columns must be permutations and there must be a two-sided
        identity, found by search, so the table is a loop.  Associativity
        then follows, by Light's test, from (x*s)*y == x*(s*y) for all x, y
        and every s of a generating set: the elements s passing it are
        closed under the product.  The check is exact and costs order^2 per
        generator.
        """
        table = [list(row) for row in table]
        n = len(table)
        indices = list(range(n))
        for i, row in enumerate(table):
            if len(row) != n:
                raise StructureError(f"table row {i} has {len(row)} entries, expected {n}")
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                    raise StructureError(f"table row {i} holds a non-index {v!r}")
            if sorted(row) != indices:
                raise StructureError(f"table row {i} is not a permutation")
        for j in range(n):
            if sorted(table[i][j] for i in range(n)) != indices:
                raise StructureError(f"table column {j} is not a permutation")
        # permutation columns make the rows distinct: one at most is indices
        identity = next((e for e, row in enumerate(table) if row == indices), None)
        if identity is None or any(row[identity] != x for x, row in enumerate(table)):
            raise StructureError("table has no two-sided identity")
        group = cls(table=table, identity=identity)
        for s in group.generators():
            row_s = table[s]
            for x, row_x in enumerate(table):
                row_xs = table[row_x[s]]
                for y in range(n):
                    if row_xs[y] != row_x[row_s[y]]:
                        raise StructureError(f"associativity fails at ({x}, {s}, {y})")
        return group

    @classmethod
    def _trusted(cls, table, inverses, elements) -> FiniteGroup:
        """A Cayley table with identity 0 and its inverse array, both built
        by the package itself, taken as they are: no row is scanned."""
        group = cls.__new__(cls)
        group.order, group.identity = len(table), 0
        group._table, group._inv, group._pair = table, inverses, None
        group.elements = elements
        return group

    def generators(self) -> list[int]:
        """A greedy generating set, taken in index order."""
        return _generating_set(range(self.order), self.identity, self.mul)

    # -- arithmetic ----------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        if self._table is not None:
            return self._table[i][j]
        g, h = self._pair
        i1, i2 = divmod(i, h.order)
        j1, j2 = divmod(j, h.order)
        return g.mul(i1, j1) * h.order + h.mul(i2, j2)

    def inv(self, i: int) -> int:
        if self._inv is not None:
            return self._inv[i]
        g, h = self._pair
        i1, i2 = divmod(i, h.order)
        return g.inv(i1) * h.order + h.inv(i2)

    def same_group(self, other: FiniteGroup) -> bool:
        if self is other:
            return True
        if self.order != other.order or self.identity != other.identity:
            return False
        if self._table is not None and other._table is not None:
            return self._table == other._table
        if self._pair is not None and other._pair is not None:
            return self._pair[0].same_group(other._pair[0]) and self._pair[1].same_group(
                other._pair[1]
            )
        return False

    def __repr__(self):
        kind = "table" if self._table is not None else "product"
        return f"FiniteGroup(order={self.order}, backing={kind})"


# -- closure from generators -------------------------------------------------


def _perm_degree(perms):
    degrees = {len(p) for p in perms}
    if len(degrees) != 1:
        raise StructureError(f"permutation generators disagree on degree: {sorted(degrees)}")
    return degrees.pop()


def _validate_perm(p, degree):
    if sorted(p) != list(range(degree)):
        raise StructureError(f"not a permutation of 0..{degree - 1}: {p}")


def _check_entries(values, what):
    """Raise StructureError unless every value is an int (bools are not)."""
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise StructureError(f"{what} holds {x!r}, not an integer")


# Miller-Rabin on the first 13 prime bases is exact below _PRIME_BOUND, the
# least number that is a strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p below _PRIME_BOUND."""
    if p < 2:
        return False
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    # p - 1 = d * 2^r with d odd; p > 41 here, so every base is a unit
    r = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> r
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _matrix_mod(m, p):
    for row in m:
        _check_entries(row, "matrix generator")
    return tuple(tuple(x % p for x in row) for row in m)


def _matrix_mul(a, b, p):
    columns = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) % p for col in columns) for row in a)


def close_group(generators, *, field: int | None = None,
                cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Breadth-first closure of permutation or matrix generators.

    Element 0 is the identity and the discovery order is fixed by the
    generator order, so two runs of the same input agree index for index.
    Raises SizeCapError as soon as the closure would pass cap.

    The closure walks the right Cayley graph and keeps its edges and a
    breadth-first spanning tree.  The Cayley table is then filled from those
    by lookups, with no further element products: order * len(generators)
    products in all, instead of order^2 (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, ch. 4).  A permutation edge el * g is one
    itemgetter(*g) call on el, the getter built once per generator; a
    matrix edge is one _matrix_mul.  Permutations of at most one point are
    all the identity and close as the trivial group.  The tree gives each
    generator's left-multiplication array in order * len(generators)
    lookups, and each table row is its tree parent's row read through one of
    those arrays by a single itemgetter call.  The inverses come off the
    same tree: a = parent(a) * g_s gives a^-1 = g_s^-1 * parent(a)^-1, one
    lookup in the inverse of left multiplication by g_s, so no table row is
    scanned.  Entries must be ints; bools are refused, and a field must be
    a prime below _PRIME_BOUND.

    >>> s3 = close_group([(1, 0, 2), (1, 2, 0)])
    >>> s3.order, s3.elements[:3]
    (6, [(0, 1, 2), (1, 0, 2), (1, 2, 0)])
    >>> s3._table[1]
    [1, 0, 3, 2, 5, 4]
    """
    gens = list(generators)
    if field is None:
        gens_canon = [tuple(g) for g in gens]
        degree = _perm_degree(gens_canon) if gens_canon else 1
        for g in gens_canon:
            _check_entries(g, "permutation generator")
            _validate_perm(g, degree)
        identity = tuple(range(degree))
        # el * g maps i to el[g[i]]; itemgetter with fewer than two indices
        # returns no tuple, and a permutation of at most one point is the
        # identity anyway
        steps = [operator.itemgetter(*g) for g in gens_canon] if degree > 1 else []
    else:
        p = field
        if p >= _PRIME_BOUND:
            raise StructureError(
                f"matrix fields must be primes below {_PRIME_BOUND}, where "
                f"primality is proven; got {p}"
            )
        if not _is_prime(p):
            raise StructureError(f"matrix generators need a prime field, got {p}")
        if not gens:
            raise StructureError("matrix closure needs at least one generator")
        size = len(gens[0])
        gens_canon = []
        for g in gens:
            g = _matrix_mod(g, p)
            if len(g) != size or any(len(r) != size for r in g):
                raise StructureError("matrix generators must share a square shape")
            if determinant(IntMatrix._built(g, size)) % p == 0:
                raise StructureError(f"generator is singular over GF({p}): {g}")
            gens_canon.append(g)
        identity = tuple(
            tuple(1 if i == j else 0 for j in range(size)) for i in range(size)
        )
        steps = [lambda a, g=g: _matrix_mul(a, g, p) for g in gens_canon]

    # Breadth-first over the right Cayley graph: the loop visits elements in
    # the order it appends them.  right[a][s] is the index of a * gens[s];
    # element b > 0 was found as elements[parent[b]] * gens[via[b]].
    index = {identity: 0}
    elements = [identity]
    parent = [0]
    via = [0]
    right = []
    for a, el in enumerate(elements):
        row = []
        for s, step in enumerate(steps):
            prod = step(el)
            b = index.get(prod)
            if b is None:
                if len(elements) >= cap:
                    raise SizeCapError(f"closure exceeded the cap of {cap} elements")
                b = len(elements)
                index[prod] = b
                elements.append(prod)
                parent.append(a)
                via.append(s)
            row.append(b)
        right.append(row)
    # Left multiplication by gens[s] along the same tree:
    # gens[s] * b = (gens[s] * parent(b)) * gens[via(b)] and parent(b) < b, so
    # left[s] fills left to right by lookups alone.
    n = len(elements)
    tree = list(zip(parent, via))[1:]
    left = []
    for s in range(len(steps)):
        row = [right[0][s]]
        for up, t in tree:
            row.append(right[row[up]][t])
        left.append(row)
    # a * b = parent(a) * (gens[via(a)] * b): row a is its parent's row read
    # through left[via(a)], one itemgetter call per row; and
    # a^-1 = gens[via(a)]^-1 * parent(a)^-1, read through left[via(a)]'s
    # inverse, which undo[s] maps back from g_s * b to b.
    through = [operator.itemgetter(*row) for row in left]
    undo = [dict(zip(row, range(n))) for row in left]
    table = [list(range(n))]
    inverses = [0]
    for up, s in tree:
        table.append(list(through[s](table[up])))
        inverses.append(undo[s][inverses[up]])
    return FiniteGroup._trusted(table, inverses, elements)


def cyclic_group(n: int, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Z/n by its Cayley table, refused above cap elements as a closure is.
    Row i is range(n) rotated left by i, so all rows share one list's ints."""
    if n < 1:
        raise StructureError(f"cyclic group order must be positive, got {n}")
    if n > cap:
        raise SizeCapError(f"cyclic group of order {n} exceeds the cap of {cap} elements")
    base = list(range(n))
    return FiniteGroup(table=[base[i:] + base[:i] for i in range(n)], identity=0)


def binary_icosahedral_group(cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """The order-120 double cover of the icosahedral rotation group, realized
    by closing two 2x2 matrices over GF(5)."""
    return close_group(
        [((1, 1), (0, 1)), ((0, -1), (1, 0))],
        field=5,
        cap=cap,
    )


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; index of (a, b) is a * h.order + b.

    No table is built: products are computed from the factors on demand.
    A product above DEFAULT_PRODUCT_CAP elements is refused.
    """
    combined = g.order * h.order
    if combined > DEFAULT_PRODUCT_CAP:
        raise SizeCapError(
            f"direct product of order {combined} exceeds the cap {DEFAULT_PRODUCT_CAP}"
        )
    return FiniteGroup(pair=(g, h))


# -- homomorphisms ------------------------------------------------------------


class FiniteHom:
    """A homomorphism as a full image table over domain indices.

    The table is verified exactly: the identity maps to the identity and
    phi(x*s) == phi(x)*phi(s) for every x and every s of a generating set of
    the domain.  The elements s passing that test are closed under the
    product, so phi is multiplicative everywhere.  The check costs domain
    order times the number of generators.
    """

    __slots__ = ("domain", "codomain", "image")

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup, image):
        self.domain = domain
        self.codomain = codomain
        self.image = tuple(image)
        if len(self.image) != domain.order:
            raise HomomorphismError(
                f"image table has {len(self.image)} entries, expected {domain.order}"
            )
        for v in self.image:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < codomain.order:
                raise HomomorphismError(f"image entry {v!r} is not a codomain index")
        self.validate()

    @classmethod
    def _trusted(cls, domain: FiniteGroup, codomain: FiniteGroup, image) -> FiniteHom:
        """A table of codomain indices built by the package itself, taken as
        it is: no entry or multiplicativity check."""
        hom = cls.__new__(cls)
        hom.domain, hom.codomain, hom.image = domain, codomain, tuple(image)
        return hom

    def validate(self):
        if self.image[self.domain.identity] != self.codomain.identity:
            raise HomomorphismError("identity does not map to identity")
        image, dmul, cmul = self.image, self.domain.mul, self.codomain.mul
        for s in self.domain.generators():
            fs = image[s]
            for x in range(self.domain.order):
                if image[dmul(x, s)] != cmul(image[x], fs):
                    raise HomomorphismError(f"multiplicativity fails at ({x}, {s})")

    def __call__(self, i: int) -> int:
        return self.image[i]


def identity_hom(g: FiniteGroup) -> FiniteHom:
    return FiniteHom._trusted(g, g, range(g.order))


def constant_hom(domain: FiniteGroup, codomain: FiniteGroup) -> FiniteHom:
    return FiniteHom._trusted(domain, codomain, [codomain.identity] * domain.order)


def projection_hom(product: FiniteGroup, factor: int) -> FiniteHom:
    """Projection of a two-factor direct product onto factor 0 or 1."""
    if product._pair is not None:
        g, h = product._pair
    else:
        raise StructureError(
            "projection needs a product-backed group; build it with direct_product"
        )
    if factor == 0:
        image = [i // h.order for i in range(product.order)]
        return FiniteHom._trusted(product, g, image)
    if factor == 1:
        image = [i % h.order for i in range(product.order)]
        return FiniteHom._trusted(product, h, image)
    raise StructureError(f"factor must be 0 or 1, got {factor}")


# -- twisted tuple classes -----------------------------------------------------


class TwistedPartition:
    """Partition of codomain^(k-1) tuples into twisted classes.

    Each class is given by its smallest tuple index, its representative, and
    its size; any one member determines a class.  Construction checks one
    representative per class, in ascending order, and sizes that cover the
    tuple space and divide the domain's order.  images is the image subgroup
    Gamma the classes were counted from, in first-appearance order.
    """

    __slots__ = ("homs", "images", "representatives", "class_sizes",
                 "class_count", "tuple_space", "arity")

    def __init__(self, homs, images, representatives, class_sizes):
        self.homs = homs
        self.images = images
        self.representatives = tuple(representatives)
        self.class_sizes = tuple(class_sizes)
        self.class_count = len(self.class_sizes)
        self.arity = len(homs) - 1
        self.tuple_space = homs[0].codomain.order**self.arity
        reps = self.representatives
        if len(reps) != self.class_count or any(a >= b for a, b in zip(reps, reps[1:])):
            raise ConsistencyError(
                "expected one representative per class in ascending order, "
                f"got {len(reps)} for {self.class_count} classes"
            )
        if sum(self.class_sizes) != self.tuple_space:
            raise ConsistencyError("class sizes do not cover the tuple space")
        domain_order = homs[0].domain.order
        for s in self.class_sizes:
            if s == 0 or domain_order % s:
                raise ConsistencyError(
                    f"class size {s} does not divide the domain order {domain_order}"
                )

    @property
    def value(self) -> Cardinal:
        return Cardinal(self.class_count)

    def pairwise(self) -> tuple[Cardinal, ...]:
        """R(phi_1, phi_j) for j = 2..k, counted when asked.

        R(phi_1, phi_2) is read off the representatives: the first
        coordinate of a class ranges over one Gamma-orbit, an R(phi_1, phi_2)
        class, and every such class is so reached, so a class's smallest
        tuple leads with its orbit's smallest element and the distinct
        leading coordinates count the R(phi_1, phi_2) classes.  That holds
        for any partition into classes keyed by their smallest tuples,
        union-find's as much as the descent's; with two maps it is the value.

        Each phi_j whose image table differs from phi_2's is counted by a
        descent: projecting Gamma onto coordinates 1 and j and dropping
        repeats gives the image subgroup of (phi_1, phi_j) in the order a
        scan of the domain would, so the count runs the same descent and
        checks as twisted_reidemeister([phi_1, phi_j]), without that scan.
        """
        first, *rest = self.homs
        codomain = first.codomain
        weight = codomain.order ** (self.arity - 1)
        values = {rest[0].image: Cardinal(len({r // weight for r in self.representatives}))}
        columns = list(zip(*self.images))
        for j, h in enumerate(rest, 1):
            if h.image not in values:
                images = list(dict.fromkeys(zip(columns[0], columns[j])))
                found = _descend(_actions(images, codomain), codomain, 1)
                values[h.image] = TwistedPartition([first, h], images, *found).value
        return tuple(values[h.image] for h in rest)


def _image_tuples(homs):
    """Distinct (phi_1(z), ..., phi_k(z)) in first-appearance order.

    Iterates the entire domain: every z contributes, duplicates act
    identically and are dropped, nothing is sampled.
    """
    return list(dict.fromkeys(zip(*(h.image for h in homs))))


def _actions(images, codomain):
    """For each image tuple, the left factor and the inverted right factors.

    The right factors are inverted a column at a time, each column mapped
    through the codomain's inverse array when it has one (a table backing)
    and through inv otherwise.  No tuples, as for union-find's empty
    generating set on a trivial codomain, give no actions.
    """
    if not images:
        return []
    lefts, *columns = zip(*images)
    inv = codomain.inv if codomain._inv is None else codomain._inv.__getitem__
    return list(zip(lefts, zip(*[map(inv, column) for column in columns])))


def _descend(actions, codomain, arity):
    """Representatives and sizes of the twisted classes, by descending
    through stabilizers one coordinate at a time.

    At depth i the subgroup H (the whole image subgroup at the root) acts on
    coordinate i.  Codomain elements are scanned in ascending order; each one
    not yet seen starts an H-orbit, and the actions fixing it form its
    stabilizer, which acts on coordinate i+1 in turn.  Each leaf is one
    class: its representative is the smallest tuple of the class and its size
    is |image subgroup| / |stabilizer|.  Every orbit must newly reach exactly
    |H| / |stabilizer| elements, a division that must be exact.

    An action step moves x to left * x * right_inv with two reads of a
    table-backed codomain's Cayley table, or two calls of mul on a
    product-backed one; which of the two is fixed once per call.
    """
    n, table, mul = codomain.order, codomain._table, codomain.mul
    total = len(actions)
    last = arity - 1
    representatives, sizes = [], []

    # One frame per depth, as (H, depth, prefix, seen, remaining elements):
    # a child frame runs to its end before its parent scans on, so the
    # representatives come out ascending.
    stack = [(actions, 0, 0, bytearray(n), iter(range(n)))]
    while stack:
        group, depth, prefix, seen, xs = stack[-1]
        order = len(group)
        for x in xs:
            if seen[x]:
                continue
            reached = 0
            stabilizer = []
            for action in group:
                if table:
                    y = table[table[action[0]][x]][action[1][depth]]
                else:
                    y = mul(mul(action[0], x), action[1][depth])
                if not seen[y]:
                    seen[y] = 1
                    reached += 1
                if y == x:
                    stabilizer.append(action)
            fixed = len(stabilizer)
            if not fixed or order % fixed or reached != order // fixed:
                raise ConsistencyError(
                    f"an orbit of {reached} elements under {order} actions "
                    f"with a stabilizer of {fixed} breaks orbit-stabilizer"
                )
            t = prefix * n + x
            if depth == last:
                representatives.append(t)
                sizes.append(total // fixed)
            else:
                stack.append((stabilizer, depth + 1, t, bytearray(n), iter(range(n))))
                break
        else:
            stack.pop()
    return representatives, sizes


def _generating_set(candidates, identity, mul):
    """Greedy generating set: each candidate not yet reached becomes a
    generator.

    Adding generator c to the reached subgroup H reaches <H, c>, a union of
    left cosets rH; each new coset is found by left multiplication with a
    generator, so the work is about twice the group order overall.  Every
    reached element is a product of earlier ones, which is all that Light's
    test and the homomorphism check rely on.
    """
    gens = []
    seen = {identity}
    for c in candidates:
        if c in seen:
            continue
        gens.append(c)
        subgroup = list(seen)
        reps = [c]
        while reps:
            r = reps.pop()
            if r in seen:
                continue
            seen.update(mul(r, h) for h in subgroup)
            reps.extend(mul(g, r) for g in gens)
    return gens


def twisted_reidemeister(homs, *, algorithm: str = "orbit") -> TwistedPartition:
    """Partition codomain^(k-1) under the twisted action of the domain.

    algorithm "orbit" descends through stabilizers (see _descend): the
    orbits of the image subgroup on the first coordinate are the
    R(phi_1, phi_2) classes, each one's stabilizer acts on the next
    coordinate, and so on.  It yields the representatives and sizes without
    touching every tuple.  "union-find" merges each tuple with its image
    under every generator of a generating set, a sum of one entry per
    coordinate j of the table (left * d * right_inv[j]) * n^(k-2-j) over
    codomain elements d: 2 * |generators| * (k - 1) * n products in all.
    It keeps each class's smallest tuple and size.  Both are exact and must
    agree; the CLI oracle and tests hold them to that.

    Both refuse with SizeCapError, rather than sample, a tuple space above
    DEFAULT_TUPLE_CAP, or an estimated |image subgroup| * tuple space above
    DEFAULT_WORK_CAP.

    >>> s3 = close_group([(1, 0, 2), (1, 2, 0)])
    >>> part = twisted_reidemeister([identity_hom(s3), identity_hom(s3), constant_hom(s3, s3)])
    >>> part.class_count, part.class_sizes
    (6, (6, 6, 6, 6, 6, 6))
    >>> part.representatives
    (0, 6, 8, 10, 12, 13)
    """
    homs = list(homs)
    k = len(homs)
    if k < 2:
        raise ShapeError(f"need at least two homomorphisms, got {k}")
    domain, codomain = homs[0].domain, homs[0].codomain
    for i, h in enumerate(homs):
        if not h.domain.same_group(domain):
            raise ShapeError(f"hom {i} has a different domain")
        if not h.codomain.same_group(codomain):
            raise ShapeError(f"hom {i} has a different codomain")
    arity = k - 1
    n = codomain.order
    tuple_space = n**arity
    if tuple_space > DEFAULT_TUPLE_CAP:
        raise SizeCapError(
            f"tuple space of size {tuple_space} exceeds the cap {DEFAULT_TUPLE_CAP}"
        )
    images = _image_tuples(homs)
    if len(images) * tuple_space > DEFAULT_WORK_CAP:
        raise SizeCapError(
            f"estimated work {len(images) * tuple_space} exceeds the cap "
            f"{DEFAULT_WORK_CAP}; refusing rather than sampling"
        )

    if algorithm == "orbit":
        actions = _actions(images, codomain)
        return TwistedPartition(homs, images, *_descend(actions, codomain, arity))

    if algorithm == "union-find":
        identity = tuple([codomain.identity] * k)

        def mul(a, b):
            return tuple(codomain.mul(x, y) for x, y in zip(a, b))

        parent = list(range(tuple_space))
        table, cmul = codomain._table, codomain.mul
        weights = [n ** (arity - 1 - j) for j in range(arity)]
        for left, right_inv in _actions(_generating_set(images, identity, mul), codomain):
            # the action moves each coordinate on its own, so tuple t goes to
            # the sum of one entry per coordinate table, in ascending t; a
            # table-backed codomain gives left * d as row left's entry d
            if table:
                cols = [[table[x][r] * w for x in table[left]] for r, w in zip(right_inv, weights)]
            else:
                cols = [
                    [cmul(cmul(left, d), r) * w for d in range(n)]
                    for r, w in zip(right_inv, weights)
                ]
            for t, u in enumerate(map(sum, itertools.product(*cols))):
                # find both roots by path halving: each step links the tuple
                # to its grandparent and moves there
                while (p := parent[t]) != t:
                    parent[t] = t = parent[p]
                while (p := parent[u]) != u:
                    parent[u] = u = parent[p]
                if u != t:
                    parent[u] = t
        # a root's first member is its class's smallest tuple: classes ascend
        classes = {}
        for t in range(tuple_space):
            r = t
            while (p := parent[r]) != r:
                parent[r] = r = parent[p]
            classes.setdefault(r, [t, 0])[1] += 1
        return TwistedPartition(homs, images, *zip(*classes.values()))

    raise ValueError(f"unknown algorithm {algorithm!r}")


__all__ = [
    "FiniteGroup",
    "FiniteHom",
    "TwistedPartition",
    "binary_icosahedral_group",
    "close_group",
    "constant_hom",
    "cyclic_group",
    "direct_product",
    "identity_hom",
    "projection_hom",
    "twisted_reidemeister",
]
