"""Seeded problem generators for the four benchmark workloads.

A workload is a fixed list of strata (family, size band, count).  The seed
only fills in the entries: matrices, map images, generator presentations and
map orders.  Two runs with one seed get byte-identical problem lists; the mix
of families and sizes is the same for every seed, so the seed moves values
but not the shape of the workload.

Each problem is a dict with an ``id``, its ``family`` and size ``band`` for
the mix report, the CLI ``argv`` (problem passed as literal JSON), and the
``doc`` itself for the reference.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("torus", "finite", "nilmanifold", "verify")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _matrix(rng, rows, cols, bound=4):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _problem(family, band, doc, command="compute", flags=()):
    text = json.dumps(doc, separators=(",", ":"))
    return {
        "family": family,
        "band": band,
        "argv": [command, text, *flags, "--format", "structured"],
        "doc": doc,
    }


# -- torus ---------------------------------------------------------------------------

# Strata in rising order of cost, (kind, k or size, target ranks, count).
# Finite systems have source rank m = n(k-1) + delta with delta cycling
# through 0..1.  The 120 problems put forty k=3, n=4 systems around p50
# and twelve 32x32 snf problems around p90, with six heavier ones above.
TORUS_STRATA = [
    ("infinite", (3, 4, 5, 6, 7, 8), (4, 5, 6), 12),
    ("snf", 8, (), 10),
    ("snf", 12, (), 10),
    ("snf", 16, (), 8),
    ("multi", 3, (4,), 40),
    ("multi", 3, (5,), 8),
    ("multi", 4, (4,), 6),
    ("snf", 24, (), 4),
    ("multi", 3, (6,), 4),
    ("snf", 32, (), 12),
    ("multi", 6, (4,), 2),
    ("multi", 7, (4,), 1),
    ("snf", 48, (), 1),
    ("multi", 8, (4,), 1),
]


def _rows_band(rows):
    for top in (12, 24, 36):
        if rows <= top:
            return f"rows<={top}"
    return "rows>36"


def multi_problem(rng, k, n, m, bound=4):
    doc = {"kind": "abelian-multi", "maps": [_matrix(rng, n, m, bound) for _ in range(k)]}
    band = f"k={k} {_rows_band((k - 1) * n)}" if m >= n else f"k={k} m<n"
    return _problem("abelian-multi", band, doc)


def snf_problem(rng, size):
    doc = {"kind": "snf", "matrix": _matrix(rng, size, size)}
    band = "<8" if size < 8 else "8-16" if size <= 16 else "17-32" if size <= 32 else "33-48"
    return _problem("snf", band, doc)


def torus(rng):
    out = []
    for kind, k, ranks, count in TORUS_STRATA:
        for i in range(count):
            if kind == "snf":
                out.append(snf_problem(rng, k))
            elif kind == "infinite":
                kk, n = k[i % len(k)], ranks[i % len(ranks)]
                out.append(multi_problem(rng, kk, n, rng.randint(1, n - 1)))
            else:
                n = ranks[i % len(ranks)]
                out.append(multi_problem(rng, k, n, n * (k - 1) + i // len(ranks) % 2))
    return out


# -- finite --------------------------------------------------------------------------

S4 = [[1, 0, 2, 3], [1, 2, 3, 0]]
S5 = [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]
A5 = [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]
S6 = [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]
GL23 = ([[[1, 1], [0, 1]], [[0, 1], [2, 0]], [[2, 0], [0, 1]]], 3)
SL25 = ([[[1, 1], [0, 1]], [[0, 4], [1, 0]]], 5)


def _relabelled_perms(rng, gens):
    """The same group, presented through a random relabelling of the points
    and a random generator order."""
    degree = len(gens[0])
    sigma = list(range(degree))
    rng.shuffle(sigma)
    inv = [0] * degree
    for i, s in enumerate(sigma):
        inv[s] = i
    out = [[sigma[g[inv[x]]] for x in range(degree)] for g in gens]
    rng.shuffle(out)
    return {"permutations": out}


def _conjugated_matrices(rng, gens_field):
    """The same matrix group, conjugated by a random invertible matrix."""
    gens, p = gens_field
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        det = (a * d - b * c) % p
        if det:
            break
    inv_det = pow(det, p - 2, p)
    t = [[a, b], [c, d]]
    t_inv = [[d * inv_det % p, -b * inv_det % p], [-c * inv_det % p, a * inv_det % p]]

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(2)) % p for j in range(2)] for i in range(2)]

    out = [mul(mul(t_inv, g), t) for g in gens]
    rng.shuffle(out)
    return {"matrices": out, "field": p}


GROUPS = {
    "S4": lambda rng: _relabelled_perms(rng, S4),
    "S5": lambda rng: _relabelled_perms(rng, S5),
    "A5": lambda rng: _relabelled_perms(rng, A5),
    "S6": lambda rng: _relabelled_perms(rng, S6),
    "GL23": lambda rng: _conjugated_matrices(rng, GL23),
    "SL25": lambda rng: _conjugated_matrices(rng, SL25),
    "BI": lambda rng: {"builtin": "binary-icosahedral"},
    "C16": lambda rng: {"cyclic": 16},
    "C10": lambda rng: {"cyclic": 10},
}

ID, CONST, P0, P1 = {"identity": True}, {"constant": True}, {"projection": 0}, {"projection": 1}

# (group, square domain, map lists cycled through, count), in rising order
# of cost.  The seed re-presents the group; the maps and their order are
# fixed, because which map comes first changes the cost of the sweep.  Every pattern stays under the engine's
# work cap.  The 120 problems put forty A5 closures around p50 and twelve
# three-map S5 sweeps around p90, with six product domains and large
# closures above.
FINITE_STRATA = [
    ("C16", False, [(ID, CONST), (CONST, ID, ID)], 12),
    ("S4", False, [(ID, CONST), (CONST, ID), (ID, ID, CONST), (ID, CONST, CONST)], 16),
    ("A5", False, [(ID, CONST)], 12),
    ("A5", False, [(ID, ID, CONST)], 40),
    ("GL23", False, [(ID, CONST), (ID, ID, CONST)], 8),
    ("S5", False, [(ID, CONST)], 4),
    ("S4", False, [(ID, CONST, ID, CONST)], 4),
    ("C10", True, [(P0, P1), (P0, P1, CONST)], 6),
    ("S5", False, [(ID, ID, CONST)], 12),
    ("S4", True, [(P0, P1), (P0, P1, P0, CONST)], 2),
    ("S5", True, [(P0, P0, CONST)], 1),
    ("SL25", False, [(ID, CONST)], 1),
    ("BI", False, [(ID, CONST)], 1),
    ("BI", True, [(P0, P1)], 1),
]


def finite_problem(rng, group, square, pattern):
    spec = GROUPS[group](rng)
    maps = list(pattern)
    groups = {"G": spec}
    if square:
        groups["D"] = {"product": ["G", "G"]}
    doc = {
        "kind": "finite",
        "groups": groups,
        "domain": "D" if square else "G",
        "codomain": "G",
        "maps": maps,
    }
    family = f"{group}^2" if square else group
    backing = ("table" if group in ("S4", "GL23", "C10", "C16") else "pair") if square else "single"
    return _problem(family, f"{backing} k={len(maps)}", doc)


def finite(rng):
    out = []
    for group, square, patterns, count in FINITE_STRATA:
        for i in range(count):
            out.append(finite_problem(rng, group, square, patterns[i % len(patterns)]))
    return out


# -- nilmanifold ---------------------------------------------------------------------

HEIS = {"generators": ["a", "b"], "central": ["c"], "commutators": [["a", "b", {"c": 1}]]}
SIX = {
    "generators": ["a", "b", "d", "t"],
    "central": ["c", "e"],
    "commutators": [["a", "b", {"c": 1}], ["a", "d", {"e": 1}]],
}


# The Heisenberg commutator for the presentation [a, b] = c, written out so
# the generators do not depend on the package.
def _heis_comm(u, v):
    return (0, 0, u[0] * v[1] - u[1] * v[0])


def _heis_endo(rng):
    u = tuple(rng.randint(-3, 3) for _ in range(3))
    v = tuple(rng.randint(-3, 3) for _ in range(3))
    return [u, v, _heis_comm(u, v)]


def _six_to_heis(rng):
    """Images of a, b, d, t, c, e respecting the relations: d's and t's
    images are central, c and e go to the commutators.

    With d and t central, the coincidences of the induced pair on the free
    abelian quotient map into the centre, so every fiber of the central
    reduction has the same size and the engine's formula applies.
    """
    u_a = tuple(rng.randint(-3, 3) for _ in range(3))
    u_b = tuple(rng.randint(-3, 3) for _ in range(3))
    u_d = (0, 0, rng.randint(-3, 3))
    u_t = (0, 0, rng.randint(-4, 4))
    return [u_a, u_b, u_d, u_t, _heis_comm(u_a, u_b), _heis_comm(u_a, u_d)]


def _det(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _difference(x, y):
    return [[p - q for p, q in zip(rx, ry)] for rx, ry in zip(x, y)]


def _reduction_applies(first, second) -> bool:
    """Whether the engine's central reduction gives a count for a pair of
    maps, each given as (quotient matrix, sublattice matrix), both square.

    A singular quotient difference makes the count infinite; otherwise the
    sublattice difference must be nonsingular, or the engine reports
    ``unsupported-reduction``.
    """
    quotient = _det(_difference(second[0], first[0]))
    return quotient == 0 or _det(_difference(second[1], first[1])) != 0


def _heis_matrices(images):
    """Quotient and sublattice matrices of a map into the Heisenberg group,
    from the images of a and b."""
    u, v = images[0], images[1]
    return [[u[0], v[0]], [u[1], v[1]]], [[u[0] * v[1] - u[1] * v[0]]]


def free_class2(rank):
    gens = [f"x{i}" for i in range(rank)]
    central = [f"z{i}{j}" for i in range(rank) for j in range(i + 1, rank)]
    comms = [[f"x{i}", f"x{j}", {f"z{i}{j}": 1}] for i in range(rank) for j in range(i + 1, rank)]
    return {"generators": gens, "central": central, "commutators": comms}


def _free_endo(rng, rank):
    """Free images for the x_i; each z_ij goes to [image x_i, image x_j].

    In these coordinates [u, v] has z_ij exponent u_i v_j - u_j v_i,
    because the group is free of class 2 on the x_i.
    """
    noncentral = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)]
    pairs = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    central = [[rng.randint(-2, 2) for _ in pairs] for _ in range(rank)]
    images = [noncentral[i] + central[i] for i in range(rank)]
    for i, j in pairs:
        u, v = noncentral[i], noncentral[j]
        images.append([0] * rank + [u[p] * v[q] - u[q] * v[p] for p, q in pairs])
    return images


def _free_matrices(images, rank):
    """Quotient and sublattice matrices of a free class-2 endomorphism: the
    commutator sublattice is the whole central block."""
    size = len(images) - rank
    quotient = [[images[i][p] for i in range(rank)] for p in range(rank)]
    sublattice = [[images[rank + c][rank + r] for c in range(size)] for r in range(size)]
    return quotient, sublattice


def nil_doc(domain, codomain, maps):
    return {
        "kind": "nilpotent",
        "domain": domain,
        "codomain": codomain,
        "maps": [[list(w) for w in m] for m in maps],
    }


# Pairs are drawn again until the engine's reduction applies to them
# (``_reduction_applies``); the folded pairs with k >= 3 map into a direct
# power of larger rank, so their count is always infinite.
# (rank, k, count) of free class-2 endomorphism families, in rising order
# of cost after the 120 Heisenberg and six-generator pairs, which hold
# p50.  Twenty rank-5 pairs hold p90, with nine heavier problems above.
FREE_STRATA = [
    (3, 2, 10), (4, 2, 10), (3, 3, 6), (3, 4, 4),
    (5, 2, 20),
    (4, 3, 4), (4, 4, 2), (5, 3, 2), (5, 4, 1),
]
SIX_PAIRS = 60
HEIS_PAIRS = 60


def _applicable_pair(draw, matrices):
    while True:
        maps = [draw(), draw()]
        if _reduction_applies(*map(matrices, maps)):
            return maps


def six_pair(rng):
    maps = _applicable_pair(lambda: _six_to_heis(rng), _heis_matrices)
    return _problem("six->heis", "k=2 d central", nil_doc(SIX, HEIS, maps))


def heis_pair(rng):
    maps = _applicable_pair(lambda: _heis_endo(rng), _heis_matrices)
    return _problem("heis-endo", "k=2", nil_doc(HEIS, HEIS, maps))


def free_problem(rng, rank, k):
    group = free_class2(rank)
    if k == 2:
        maps = _applicable_pair(lambda: _free_endo(rng, rank), lambda m: _free_matrices(m, rank))
    else:
        maps = [_free_endo(rng, rank) for _ in range(k)]
    return _problem(f"free-rank{rank}", f"k={k}", nil_doc(group, group, maps))


def nilmanifold(rng):
    out = [heis_pair(rng) for _ in range(HEIS_PAIRS)]
    out += [six_pair(rng) for _ in range(SIX_PAIRS)]
    for rank, k, count in FREE_STRATA:
        out += [free_problem(rng, rank, k) for _ in range(count)]
    return out


# -- verify --------------------------------------------------------------------------

SHIPPED = (
    "example1_poincare.json",
    "example2_torus.json",
    "example3_nilmanifold.json",
    "heisenberg_pair.json",
    "snf_worked.json",
)
ORACLE = ("--oracle",)
VERIFY_FINITE = (
    ("S4", False, [(ID, CONST), (ID, ID, CONST), (ID, CONST, CONST)], 3),
    ("GL23", False, [(ID, CONST), (ID, ID, CONST)], 2),
    ("A5", False, [(ID, CONST), (ID, ID, CONST)], 2),
    ("C10", True, [(P0, P1), (P0, P1, CONST)], 2),
    ("S4", True, [(P0, P1), (P0, P0, CONST)], 6),
)


def shipped_documents(root: Path):
    docs = []
    for name in SHIPPED:
        with open(root / "problems" / name, encoding="utf-8") as fh:
            docs.append((name, json.load(fh)))
    return docs


def _with_command(problem, command, flags):
    return _problem(problem["family"], problem["band"], problem["doc"], command, flags)


def verify(rng, root: Path):
    """Each problem runs twice: through ``check`` and ``compute --oracle``."""
    draws = [_problem("shipped", name, doc) for name, doc in shipped_documents(root)]
    for i in range(8):
        k = 3 + i % 2
        draws.append(multi_problem(rng, k, 3, 3 * (k - 1) + 3, bound=3))
    draws += [snf_problem(rng, size) for size in (3, 4, 5, 6, 3, 4, 5, 6)]
    for group, square, patterns, count in VERIFY_FINITE:
        draws += [
            finite_problem(rng, group, square, patterns[i % len(patterns)]) for i in range(count)
        ]
    draws += [six_pair(rng) for _ in range(12)]
    draws += [heis_pair(rng) for _ in range(8)]
    draws += [free_problem(rng, rank, k) for rank, k in ((3, 2), (3, 2), (3, 2), (3, 3))]
    out = []
    for p in draws:
        out.append(_with_command(p, "check", ()))
        out.append(_with_command(p, "compute", ORACLE))
    return out


def generate(workload: str, seed: int, root: Path):
    rng = _rng(workload, seed)
    if workload == "verify":
        problems = verify(rng, root)
    else:
        problems = {"torus": torus, "finite": finite, "nilmanifold": nilmanifold}[workload](rng)
    for i, p in enumerate(problems):
        p["id"] = f"{workload}-{i:03d}"
    return problems
