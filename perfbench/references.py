"""Exact reference answers for benchmark problems, computed off the clock.

Each family gets a route that does not share the engine's counting path:

- torus (``snf``, ``abelian-pair``, ``abelian-multi``): a Hermite echelon
  form written here, never the package's Smith or Hermite code.  The
  cokernel order of an n-row matrix is the product of the echelon pivots of
  its column lattice, or infinite when that lattice has rank below n.
  Invariant factors come from alternating row and column echelon forms until
  the matrix is diagonal, then a gcd/lcm sweep of the diagonal.
- finite: the Burnside count
  (1/|G|) sum_z prod_{i>=2} [phi_i(z) ~ phi_1(z)] * |C(phi_1(z))|
  over the domain, on groups closed here from the problem's own generators.
- nilpotent: the fiberwise sum over quotient classes a of [A : f_a(H)],
  assembled from the package's public reduction and lattice functions.
  It does not assume that every fiber has the size of the identity fiber.

Every reference takes the problem document exactly as the program receives
it and returns a ``Reference`` or raises ``Unverifiable`` when the problem
lies beyond the reference's own enumeration cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from coincidence_kit import (
    IntMatrix,
    PcGroup,
    PcHom,
    central_reduction,
    combine_homs,
    direct_power_pc,
    enumerate_cokernel,
    kernel_basis,
)
from coincidence_kit import cokernel_order as package_cokernel_order
from coincidence_kit.errors import SizeCapError

INFINITE = "infinite"
FIBER_CLASS_CAP = 20_000


class Unverifiable(Exception):
    """The reference would pass its own cap; the answer stays unverified."""


@dataclass(frozen=True)
class Reference:
    """value and pairwise use the CLI's JSON encoding: an int or "infinite".

    ker_psi is set for finite torus systems; divisors for ``snf`` problems;
    unequal_fibers marks nilpotent problems whose fibers differ in size.
    """

    value: object
    pairwise: tuple = ()
    ker_psi: object = None
    divisors: tuple | None = None
    unequal_fibers: bool = False


def _int(x) -> int:
    return int(x) if isinstance(x, str) else x


# -- Hermite echelon forms ----------------------------------------------------------


def _ext_gcd(a: int, b: int):
    """(g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _max_minor(rows) -> tuple[int, int]:
    """(rank, |nonzero maximal minor|) by fraction-free (Bareiss) elimination
    with full pivoting; the minor is 1 for a zero matrix."""
    a = [list(r) for r in rows]
    n, m = len(a), len(a[0]) if a else 0
    prev, rank = 1, 0
    for k in range(min(n, m)):
        pivot = next(((i, j) for i in range(k, n) for j in range(k, m) if a[i][j]), None)
        if pivot is None:
            break
        i, j = pivot
        a[k], a[i] = a[i], a[k]
        if j != k:
            for row in a:
                row[k], row[j] = row[j], row[k]
        pk = a[k]
        for row in a[k + 1 :]:
            f = row[k]
            for c in range(k + 1, m):
                row[c] = (row[c] * pk[k] - f * pk[c]) // prev
            row[k] = 0
        prev, rank = pk[k], rank + 1
    return rank, abs(prev)


def echelon(vectors, width: int, modulus: int = 0) -> list[list[int]]:
    """Row echelon basis of the integer span of ``vectors``, pivots positive
    and strictly increasing, entries above each pivot reduced modulo it.

    Two rows meeting at one pivot column are replaced by a unimodular 2x2
    combination (extended gcd), so the span never changes.  With a modulus
    d the span is taken together with d*Z^width, which holds every d*e_i, so
    entries may be reduced mod d and stay small; the result then has a pivot
    in every column.
    """
    by_pivot: dict[int, list[int]] = {}
    if modulus:
        by_pivot = {i: [modulus * (j == i) for j in range(width)] for i in range(width)}
    for raw in vectors:
        v = [_int(x) for x in raw]
        if len(v) != width:
            raise ValueError(f"vector of length {len(v)}, expected {width}")
        if modulus:
            v = [x % modulus for x in v]
        p = next((j for j, x in enumerate(v) if x), None)
        while p is not None:
            r = by_pivot.get(p)
            if r is None:
                by_pivot[p] = v
                break
            a, b = r[p], v[p]
            g, x, y = _ext_gcd(a, b)
            ag, bg = a // g, b // g
            r, v = [x * ri + y * vi for ri, vi in zip(r, v)], [ag * vi - bg * ri for ri, vi in zip(r, v)]
            if modulus:
                # the pivot g is a proper divisor of the modulus and survives
                r = [x % modulus for x in r]
                v = [x % modulus for x in v]
            by_pivot[p] = r
            p = next((j for j in range(p + 1, width) if v[j]), None)
    pivots = sorted(by_pivot)
    rows = [by_pivot[p] for p in pivots]
    for i, (row, p) in enumerate(zip(rows, pivots)):
        if row[p] < 0:
            rows[i] = row = [-x for x in row]
        for above in rows[:i]:
            q = above[p] // row[p]
            if q:
                for j in range(p, width):
                    above[j] -= q * row[j]
    return rows


def cokernel_order(columns, height: int):
    """|Z^height / span(columns)|: the product of the echelon pivots, or
    "infinite" when the span has rank below height.  A nonzero maximal minor
    d of the columns puts d*Z^height inside the span, so the echelon form is
    taken mod d."""
    if height == 0:
        return 1
    rank, d = _max_minor([list(r) for r in zip(*columns)] if columns else [[]] * height)
    if rank < height:
        return INFINITE
    rows = echelon(columns, height, modulus=d)
    return prod(row[i] for i, row in enumerate(rows))


def _diagonal(rows) -> bool:
    return all(sum(1 for x in r if x) == 1 for r in rows)


def invariant_factors(matrix) -> tuple[int, ...]:
    """Positive invariant factors, by alternating row and column echelon forms
    until one nonzero entry remains per row, then a gcd/lcm sweep.

    Row operations (automorphisms of Z^n) and column operations (new
    generators) both keep the cokernel.  When the columns span a full-rank
    lattice, every echelon form is taken mod a nonzero maximal minor d,
    which lies in the cokernel's annihilator; otherwise plain forms are used.
    """
    rows = [[_int(x) for x in r] for r in matrix]
    height = len(rows)
    rank, d = _max_minor(rows)
    modulus = d if rank == height and height > 0 else 0
    vectors, size = [list(c) for c in zip(*rows)], height  # the columns
    for _ in range(10_000):
        rows = echelon(vectors, size, modulus)
        if _diagonal(rows):
            break
        vectors, size = [list(c) for c in zip(*rows)], len(rows)
    else:
        raise RuntimeError("alternating echelon forms did not reach a diagonal")
    diag = sorted(abs(x) for r in rows for x in r if x)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return tuple(diag)


def _columns(matrix):
    return [list(c) for c in zip(*matrix)] if matrix and matrix[0] else []


def torus_reference(doc: dict) -> Reference:
    if doc["kind"] == "snf":
        matrix = [[_int(x) for x in r] for r in doc["matrix"]]
        return Reference(
            value=cokernel_order(_columns(matrix), len(matrix)),
            divisors=invariant_factors(matrix),
        )
    maps = [[[_int(x) for x in r] for r in m] for m in doc["maps"]]
    n = len(maps[0])
    base = maps[0]
    diffs = [
        [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(m, base)] for m in maps[1:]
    ]
    stacked = [row for d in diffs for row in d]
    value = cokernel_order(_columns(stacked), len(stacked))
    pairwise = tuple(cokernel_order(_columns(d), n) for d in diffs)
    ker = None
    if value != INFINITE:
        ker, rem = divmod(value, prod(pairwise))
        if rem:
            raise RuntimeError("pairwise product does not divide a finite torus value")
    return Reference(value=value, pairwise=pairwise, ker_psi=ker)


# -- finite groups -------------------------------------------------------------------


class _Group:
    """Elements closed from generators under ``mul``, with conjugacy data."""

    def __init__(self, gens, identity, mul):
        self.mul = mul
        self.identity = identity
        self.elements = [identity]
        seen = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        self.elements.append(y)
                        nxt.append(y)
            frontier = nxt
        self.order = len(self.elements)
        inv_gens = [self._inverse(g) for g in gens]
        # Conjugacy classes as orbits under conjugation by the generators.
        self.class_of: dict = {}
        self.class_size: list[int] = []
        for x in self.elements:
            if x in self.class_of:
                continue
            cid = len(self.class_size)
            self.class_of[x] = cid
            orbit = [x]
            for y in orbit:
                for g, gi in zip(gens, inv_gens):
                    z = mul(mul(gi, y), g)
                    if z not in self.class_of:
                        self.class_of[z] = cid
                        orbit.append(z)
            self.class_size.append(len(orbit))

    def _inverse(self, g):
        prev, cur = self.identity, g
        while cur != self.identity:
            prev, cur = cur, self.mul(cur, g)
        return prev

    def centralizer_order(self, x) -> int:
        return self.order // self.class_size[self.class_of[x]]


def _perm_mul(a, b):
    return tuple(a[i] for i in b)


def _matrix_group(gens, p):
    size = len(gens[0])

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(size)) % p for j in range(size))
            for i in range(size)
        )

    canon = [tuple(tuple(_int(x) % p for x in r) for r in g) for g in gens]
    eye = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
    return _Group(canon, eye, mul)


def _cyclic_group(n):
    return _Group([1 % n], 0, lambda a, b: (a + b) % n)


BINARY_ICOSAHEDRAL_GENERATORS = [((1, 1), (0, 1)), ((0, -1), (1, 0))]


def _build_group(spec: dict):
    if "permutations" in spec:
        gens = [tuple(_int(x) for x in g) for g in spec["permutations"]]
        return _Group(gens, tuple(range(len(gens[0]))), _perm_mul)
    if "matrices" in spec:
        return _matrix_group(spec["matrices"], _int(spec["field"]))
    if "cyclic" in spec:
        return _cyclic_group(_int(spec["cyclic"]))
    if spec.get("builtin") == "binary-icosahedral":
        return _matrix_group(BINARY_ICOSAHEDRAL_GENERATORS, 5)
    raise Unverifiable(f"no finite reference for group spec {sorted(spec)}")


def burnside_count(domain_elements, maps, codomain: _Group) -> int:
    """(1/|D|) sum over z in D of prod_{i>=2} [phi_i(z) ~ phi_1(z)] |C(phi_1(z))|."""
    cls = codomain.class_of
    total = 0
    for z in domain_elements:
        first = maps[0](z)
        c1 = cls[first]
        if all(cls[m(z)] == c1 for m in maps[1:]):
            total += codomain.centralizer_order(first) ** (len(maps) - 1)
    count, rem = divmod(total, len(domain_elements))
    if rem:
        raise RuntimeError("Burnside sum is not divisible by the domain order")
    return count


def finite_reference(doc: dict) -> Reference:
    specs = doc["groups"]
    built: dict[str, _Group] = {}

    def factors(name):
        spec = specs[name]
        if "product" in spec:
            return [f for part in spec["product"] for f in factors(part)]
        return [name]

    for name in {f for n in (doc["domain"], doc["codomain"]) for f in factors(n)}:
        built[name] = _build_group(specs[name])
    dom_factors = factors(doc["domain"])
    cod_factors = factors(doc["codomain"])
    if len(cod_factors) != 1:
        raise Unverifiable("finite reference needs a single-factor codomain")
    codomain = built[cod_factors[0]]
    if len(dom_factors) == 1:
        domain = [(x,) for x in built[dom_factors[0]].elements]
    else:
        a, b = (built[f].elements for f in dom_factors)
        domain = [(x, y) for x in a for y in b]
    maps = []
    for m in doc["maps"]:
        if "projection" in m:
            i = _int(m["projection"])
            if built[dom_factors[i]] is not codomain:
                raise Unverifiable("projection onto another factor than the codomain")
            maps.append(lambda z, i=i: z[i])
        elif "constant" in m:
            maps.append(lambda z: codomain.identity)
        elif "identity" in m and dom_factors == cod_factors:
            maps.append(lambda z: z[0])
        else:
            raise Unverifiable(f"no finite reference for map {sorted(m)}")
    value = burnside_count(domain, maps, codomain)
    pairwise = tuple(burnside_count(domain, [maps[0], m], codomain) for m in maps[1:])
    return Reference(value=value, pairwise=pairwise)


# -- class-2 nilpotent groups ---------------------------------------------------------


def _pc_group(spec: dict):
    relations = {}
    for x, y, word in spec.get("commutators", []):
        if isinstance(word, list):
            word = {lab: e for lab, e in zip(spec["central"], word) if e}
        relations[(x, y)] = {lab: _int(e) for lab, e in word.items()}
    return PcGroup.from_presentation(spec["generators"], spec["central"], relations)


def _pc_maps(doc: dict):
    domain = _pc_group(doc["domain"])
    codomain = _pc_group(doc["codomain"])
    slot = {lab: i for i, lab in enumerate(codomain.labels)}
    homs = []
    for images in doc["maps"]:
        if isinstance(images, dict):
            rows = []
            for lab in domain.labels:
                word = [0] * codomain.n
                for target, e in images.get(lab, {}).items():
                    word[slot[target]] += _int(e)
                rows.append(tuple(word))
        else:
            rows = [tuple(_int(x) for x in img) for img in images]
        homs.append(PcHom(domain, codomain, rows))
    return homs


def fiberwise_count(phi, psi, cap: int = FIBER_CLASS_CAP):
    """Classes of alpha ~ phi(z) alpha psi(z)^-1, summed fiber by fiber over
    the quotient classes abar of coker(psi_bar - phi_bar); returns the count
    and whether the fibers differ in size.

    H, the preimage of ker(psi_bar - phi_bar), fixes each quotient class and
    acts on the fiber alpha*A by translation through
    f_alpha(z) = alpha^-1 phi(z) alpha psi(z)^-1, a homomorphism H -> A.
    The fiber over abar therefore holds [A : f_alpha(H)] classes.
    """
    red = central_reduction(phi, psi)
    d1, d2 = red.domain_data, red.codomain_data
    cod = d2.group
    diff_bar = red.psi_bar - red.phi_bar
    if not package_cokernel_order(diff_bar).is_finite:
        return INFINITE, False
    # Generators of H: sections of a kernel basis, plus the domain's A.
    kernel_lifts = [d1.section(v) for v in kernel_basis(diff_bar)]
    a_lifts = [d1.a_embed([int(s == t) for t in range(d1.a_rank)]) for s in range(d1.a_rank)]

    def f(alpha, z):
        w = cod.multiply(
            cod.multiply(cod.inverse(alpha), phi.apply(z)),
            cod.multiply(alpha, cod.inverse(psi.apply(z))),
        )
        if any(cod.noncentral_part(w)):
            raise RuntimeError("f_alpha(z) left the central block")
        coords = d2.a_coords(cod.central_part(w))
        if coords is None:
            raise RuntimeError("f_alpha(z) left the commutator sublattice")
        return coords

    def fiber(columns):
        if d2.a_rank == 0:
            return 1
        if not columns:
            return INFINITE
        c = package_cokernel_order(IntMatrix.from_columns(columns, rows=d2.a_rank))
        return c.value if c.is_finite else INFINITE

    identity = cod.identity()
    constant = [f(identity, a) for a in a_lifts]  # f_alpha on A ignores alpha
    if not kernel_lifts:
        # H is A itself, so every fiber is the same translation quotient.
        per_fiber = fiber(constant)
        count = package_cokernel_order(diff_bar).value
        return (INFINITE if per_fiber == INFINITE else per_fiber * count), False
    try:
        reps = enumerate_cokernel(diff_bar, cap=cap)
    except SizeCapError as exc:
        raise Unverifiable(f"fiberwise sum: {exc}") from None
    total = 0
    seen: dict[tuple, object] = {}
    for rep in reps:
        alpha = d2.section(rep)
        columns = constant + [f(alpha, z) for z in kernel_lifts]
        key = tuple(map(tuple, columns))
        if key not in seen:
            seen[key] = fiber(columns)
        if seen[key] == INFINITE:
            return INFINITE, len(set(seen.values())) > 1
        total += seen[key]
    return total, len(set(seen.values())) > 1


def nilpotent_reference(doc: dict) -> Reference:
    homs = _pc_maps(doc)
    if len(homs) == 2:
        phi, psi = homs
    else:
        power = direct_power_pc(homs[0].codomain, len(homs) - 1)
        phi = combine_homs([homs[0]] * (len(homs) - 1), power)
        psi = combine_homs(homs[1:], power)
    value, unequal = fiberwise_count(phi, psi)
    if len(homs) == 2:
        pairwise = (value,)
    else:
        pairwise = tuple(fiberwise_count(homs[0], h)[0] for h in homs[1:])
    return Reference(value=value, pairwise=pairwise, unequal_fibers=unequal)


def reference(doc: dict) -> Reference:
    kind = doc["kind"]
    if kind in ("snf", "abelian-pair", "abelian-multi"):
        return torus_reference(doc)
    if kind == "finite":
        return finite_reference(doc)
    if kind == "nilpotent":
        return nilpotent_reference(doc)
    raise Unverifiable(f"no reference for kind {kind!r}")
