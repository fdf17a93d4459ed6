"""Twisted conjugacy counts on finite groups.

A group is indices 0..order-1 behind one of two backings: a Cayley table
(closures, cyclic groups, tables read from input) or, for every direct
product, componentwise arithmetic on its two factors.  Input data is checked
exactly against a greedy generating set: a table by Light's associativity
test, an image table by multiplicativity on the generators.

Tuples (alpha_2, ..., alpha_k) over the codomain are equivalent when some z
in the domain sends every alpha_i to phi_1(z) * alpha_i * phi_i(z)^{-1}.
With all maps equal this degenerates to plain conjugacy, which is why the
conjugacy class count doubles as a sanity anchor.

The action of z only depends on the image tuple (phi_1(z), ..., phi_k(z)),
and those image tuples form a subgroup of codomain^k.  The sweep therefore
collects the distinct image tuples once (every z accounted for, nothing
sampled) and expands each orbit under that set.  A second, structurally
different algorithm runs union-find over a generating subset; the two must
produce identical partitions.
"""

from __future__ import annotations

import math

from .cardinal import Cardinal, cardinal_product
from .errors import (
    ConsistencyError,
    HomomorphismError,
    ShapeError,
    SizeCapError,
    StructureError,
)

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

    __slots__ = ("order", "identity", "_table", "_inv", "_pair", "elements", "labels")

    def __init__(self, *, table=None, pair=None, elements=None, labels=None, identity=0):
        if (table is None) == (pair is None):
            raise StructureError("exactly one backing (table or pair) is required")
        self._table = table
        self._pair = pair
        self.elements = elements
        self.labels = labels
        if table is not None:
            self.order = len(table)
            self.identity = identity
            self._inv = [None] * self.order
            for i in range(self.order):
                row = table[i]
                for j in range(self.order):
                    if row[j] == self.identity:
                        self._inv[i] = j
                        break
                if self._inv[i] is None:
                    raise StructureError(f"element {i} has no inverse")
        else:
            g, h = pair
            self.order = g.order * h.order
            self.identity = g.identity * h.order + h.identity
            self._inv = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_table(cls, table, labels=None, identity=None):
        """Build from an explicit Cayley table, verifying the group laws.

        Rows and columns must be permutations and there must be a two-sided
        identity (the given one, if any), so the table is a loop.  Associativity then follows, by Light's test,
        from (x*s)*y == x*(s*y) for all x, y and every s of a generating set:
        the elements s passing it are closed under the product.  The check
        is exact and costs order^2 per generator.
        """
        table = [list(row) for row in table]
        n = len(table)
        for i, row in enumerate(table):
            if len(row) != n:
                raise StructureError(f"table row {i} has {len(row)} entries, expected {n}")
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                    raise StructureError(f"table row {i} holds a non-index {v!r}")
            if sorted(row) != list(range(n)):
                raise StructureError(f"table row {i} is not a permutation")
        for j in range(n):
            col = sorted(table[i][j] for i in range(n))
            if col != list(range(n)):
                raise StructureError(f"table column {j} is not a permutation")
        identity = next(
            (
                e
                for e in (range(n) if identity is None else [identity])
                if e in range(n)
                and all(table[e][x] == x and table[x][e] == x for x in range(n))
            ),
            None,
        )
        if identity is None:
            raise StructureError("table has no two-sided identity")
        group = cls(table=table, labels=labels, identity=identity)
        for s in group.generators():
            row_s = table[s]
            for x, row_x in enumerate(table):
                row_xs = table[row_x[s]]
                for y in range(n):
                    if row_xs[y] != row_x[row_s[y]]:
                        raise StructureError(f"associativity fails at ({x}, {s}, {y})")
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

    def conjugate(self, z: int, x: int) -> int:
        return self.mul(self.mul(z, x), self.inv(z))

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        if self._pair is not None:
            g, h = self._pair
            i1, i2 = divmod(i, h.order)
            return f"({g.label(i1)}, {h.label(i2)})"
        return str(i)

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


def _matrix_mod(m, p):
    return tuple(tuple(int(x) % p for x in row) for row in m)


def _matrix_mul(a, b, p):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def _matrix_det(m, p):
    m = [list(row) for row in m]
    n = len(m)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            if f:
                for j in range(c, n):
                    m[r][j] = (m[r][j] - f * m[c][j]) % p
    return det % p


def close_group(generators, *, field: int | None = None, cap: int = DEFAULT_CLOSURE_CAP,
                labels=None) -> FiniteGroup:
    """Breadth-first closure of permutation or matrix generators.

    Element 0 is the identity and the discovery order is fixed by the
    generator order, so two runs of the same input agree index for index.
    Raises SizeCapError as soon as the closure would pass cap.
    """
    gens = list(generators)
    if field is None:
        if not gens:
            identity = (0,)
            gens_canon = []
        else:
            degree = _perm_degree([tuple(g) for g in gens])
            gens_canon = [tuple(int(x) for x in g) for g in gens]
            for g in gens_canon:
                _validate_perm(g, degree)
            identity = tuple(range(degree))

        def mul(a, b):
            return tuple(a[b[i]] for i in range(len(a)))

    else:
        p = field
        if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            raise StructureError(f"matrix generators need a prime field, got {p}")
        if not gens:
            raise StructureError("matrix closure needs at least one generator")
        size = len(gens[0])
        gens_canon = []
        for g in gens:
            g = _matrix_mod(g, p)
            if len(g) != size or any(len(r) != size for r in g):
                raise StructureError("matrix generators must share a square shape")
            if _matrix_det(g, p) == 0:
                raise StructureError(f"generator is singular over GF({p}): {g}")
            gens_canon.append(g)
        identity = tuple(
            tuple(1 if i == j else 0 for j in range(size)) for i in range(size)
        )

        def mul(a, b):
            return _matrix_mul(a, b, p)

    index = {identity: 0}
    elements = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens_canon:
                prod = mul(el, g)
                if prod not in index:
                    if len(elements) >= cap:
                        raise SizeCapError(
                            f"closure exceeded the cap of {cap} elements"
                        )
                    index[prod] = len(elements)
                    elements.append(prod)
                    nxt.append(prod)
        frontier = nxt
    n = len(elements)
    table = [[index[mul(a, b)] for b in elements] for a in elements]
    return FiniteGroup(table=table, elements=elements, labels=labels, identity=0)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise StructureError(f"cyclic group order must be positive, got {n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table=table, identity=0, labels=[str(i) for i in range(n)])


def binary_icosahedral_group(cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """The order-120 double cover of the icosahedral rotation group, realized
    by closing two 2x2 matrices over GF(5)."""
    return close_group(
        [((1, 1), (0, 1)), ((0, -1), (1, 0))],
        field=5,
        cap=cap,
    )


def direct_product(g: FiniteGroup, h: FiniteGroup, *,
                   order_cap: int = DEFAULT_PRODUCT_CAP) -> FiniteGroup:
    """Componentwise product; index of (a, b) is a * h.order + b.

    No table is built: products are computed from the factors on demand.
    """
    combined = g.order * h.order
    if combined > order_cap:
        raise SizeCapError(
            f"direct product of order {combined} exceeds the cap {order_cap}"
        )
    return FiniteGroup(pair=(g, h))


# -- homomorphisms ------------------------------------------------------------


class FiniteHom:
    """A homomorphism as a full image table over domain indices.

    With check=True the table is verified exactly: the identity maps to the
    identity and phi(x*s) == phi(x)*phi(s) for every x and every s of a
    generating set of the domain.  The elements s passing that test are
    closed under the product, so phi is multiplicative everywhere.  The
    check costs domain order times the number of generators.
    """

    __slots__ = ("domain", "codomain", "image")

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup, image,
                 check: bool = True):
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
        if check:
            self.validate()

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
    return FiniteHom(g, g, range(g.order), check=False)


def constant_hom(domain: FiniteGroup, codomain: FiniteGroup) -> FiniteHom:
    return FiniteHom(domain, codomain, [codomain.identity] * domain.order, check=False)


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
        return FiniteHom(product, g, image, check=False)
    if factor == 1:
        image = [i % h.order for i in range(product.order)]
        return FiniteHom(product, h, image, check=False)
    raise StructureError(f"factor must be 0 or 1, got {factor}")


# -- conjugacy ----------------------------------------------------------------


def conjugacy_class_count(g: FiniteGroup) -> int:
    """Number of conjugacy classes, by a direct orbit sweep (no twisting)."""
    visited = [False] * g.order
    count = 0
    for x in range(g.order):
        if visited[x]:
            continue
        count += 1
        for z in range(g.order):
            visited[g.conjugate(z, x)] = True
    return count


# -- twisted tuple classes -----------------------------------------------------


class TwistedPartition:
    """Partition of codomain^(k-1) tuples into twisted classes.

    Classes are numbered by the smallest tuple index they contain, so the
    labeling is reproducible across runs and algorithms.
    """

    __slots__ = ("class_count", "class_of", "class_sizes", "tuple_space", "arity")

    def __init__(self, class_of, tuple_space, arity, domain_order):
        self.class_of = tuple(class_of)
        self.tuple_space = tuple_space
        self.arity = arity
        count = max(self.class_of) + 1 if self.class_of else 0
        sizes = [0] * count
        for c in self.class_of:
            sizes[c] += 1
        self.class_count = count
        self.class_sizes = tuple(sizes)
        if sum(self.class_sizes) != tuple_space:
            raise ConsistencyError("class sizes do not cover the tuple space")
        for s in self.class_sizes:
            if s == 0 or domain_order % s:
                raise ConsistencyError(
                    f"class size {s} does not divide the domain order {domain_order}"
                )

    @property
    def value(self) -> Cardinal:
        return Cardinal(self.class_count)


def _image_tuples(homs):
    """Distinct (phi_1(z), ..., phi_k(z)) in first-appearance order.

    Iterates the entire domain: every z contributes, duplicates act
    identically and are dropped, nothing is sampled.
    """
    domain = homs[0].domain
    seen = {}
    for z in range(domain.order):
        img = tuple(h.image[z] for h in homs)
        if img not in seen:
            seen[img] = len(seen)
    return list(seen)


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


def _check_homs(homs):
    homs = list(homs)
    if len(homs) < 2:
        raise ShapeError(f"need at least two homomorphisms, got {len(homs)}")
    domain = homs[0].domain
    codomain = homs[0].codomain
    for i, h in enumerate(homs):
        if not h.domain.same_group(domain):
            raise ShapeError(f"hom {i} has a different domain")
        if not h.codomain.same_group(codomain):
            raise ShapeError(f"hom {i} has a different codomain")
    return homs, domain, codomain


def twisted_reidemeister(homs, *, tuple_cap: int = DEFAULT_TUPLE_CAP,
                         work_cap: int = DEFAULT_WORK_CAP,
                         algorithm: str = "orbit") -> TwistedPartition:
    """Partition codomain^(k-1) under the twisted action of the domain.

    algorithm "orbit" expands each unvisited tuple's full orbit; "union-find"
    merges along a generating set and renumbers.  Both are exact; they must
    agree, and tests hold them to that.
    """
    homs, domain, codomain = _check_homs(homs)
    k = len(homs)
    arity = k - 1
    n = codomain.order
    tuple_space = n**arity
    if tuple_space > tuple_cap:
        raise SizeCapError(
            f"tuple space of size {tuple_space} exceeds the cap {tuple_cap}"
        )
    images = _image_tuples(homs)
    if len(images) * tuple_space > work_cap:
        raise SizeCapError(
            f"estimated work {len(images) * tuple_space} exceeds the cap {work_cap}; "
            "refusing rather than sampling"
        )

    # For each action, the left factor and the ready-inverted right factors.
    actions = [
        (img[0], tuple(codomain.inv(img[i]) for i in range(1, k))) for img in images
    ]

    def decode(t):
        digits = []
        for _ in range(arity):
            t, r = divmod(t, n)
            digits.append(r)
        digits.reverse()
        return digits

    def apply_action(action, digits):
        left, right_inv = action
        t = 0
        for d, r in zip(digits, right_inv):
            t = t * n + codomain.mul(codomain.mul(left, d), r)
        return t

    if algorithm == "orbit":
        class_of = [-1] * tuple_space
        next_class = 0
        for seed in range(tuple_space):
            if class_of[seed] != -1:
                continue
            digits = decode(seed)
            for action in actions:
                class_of[apply_action(action, digits)] = next_class
            if class_of[seed] != next_class:
                raise ConsistencyError("orbit expansion missed its own seed")
            next_class += 1
        return TwistedPartition(class_of, tuple_space, arity, domain.order)

    if algorithm == "union-find":
        identity = tuple([codomain.identity] * k)

        def mul(a, b):
            return tuple(codomain.mul(x, y) for x, y in zip(a, b))

        gen_actions = [
            (img[0], tuple(codomain.inv(img[i]) for i in range(1, k)))
            for img in _generating_set(images, identity, mul)
        ]
        parent = list(range(tuple_space))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for t in range(tuple_space):
            digits = decode(t)
            rt = find(t)
            for action in gen_actions:
                ru = find(apply_action(action, digits))
                if ru != rt:
                    parent[ru] = rt
        # Renumber by smallest member so both algorithms label identically.
        smallest = {}
        for t in range(tuple_space):
            r = find(t)
            if r not in smallest:
                smallest[r] = t
            elif t < smallest[r]:
                smallest[r] = t
        order = sorted(smallest.values())
        rank_of_root = {find(m): i for i, m in enumerate(order)}
        class_of = [rank_of_root[find(t)] for t in range(tuple_space)]
        return TwistedPartition(class_of, tuple_space, arity, domain.order)

    raise ValueError(f"unknown algorithm {algorithm!r}")


def pairwise_values(homs) -> tuple[Cardinal, ...]:
    """R(phi_1, phi_j) for each j >= 2, each by its own twisted sweep."""
    homs, _, _ = _check_homs(homs)
    return tuple(
        twisted_reidemeister([homs[0], h]).value for h in homs[1:]
    )


class FiniteDivisibilityReport:
    __slots__ = ("value", "pairwise", "product", "divides", "witness")

    def __init__(self, value: Cardinal, pairwise, product: Cardinal, divides: bool):
        self.value = value
        self.pairwise = tuple(pairwise)
        self.product = product
        self.divides = divides
        verdict = "divides" if divides else "does NOT divide"
        self.witness = f"pairwise product {product} {verdict} {value}"


def pairwise_divisibility_report(homs, partition=None) -> FiniteDivisibilityReport:
    """Whether the product of pairwise values divides the multi-map value.

    For finite targets it need not: the sweep reports whichever way the
    instance falls, with a witness string.  A caller that already swept the
    tuples passes that partition instead of having the sweep rerun.
    """
    homs, _, _ = _check_homs(homs)
    if partition is None:
        partition = twisted_reidemeister(homs)
    value = partition.value
    pairwise = pairwise_values(homs)
    product = cardinal_product(pairwise)
    return FiniteDivisibilityReport(value, pairwise, product, product.divides(value))


__all__ = [
    "FiniteGroup",
    "FiniteHom",
    "FiniteDivisibilityReport",
    "TwistedPartition",
    "binary_icosahedral_group",
    "close_group",
    "conjugacy_class_count",
    "constant_hom",
    "cyclic_group",
    "direct_product",
    "identity_hom",
    "pairwise_divisibility_report",
    "pairwise_values",
    "projection_hom",
    "twisted_reidemeister",
]
