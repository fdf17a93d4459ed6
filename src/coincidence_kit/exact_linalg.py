"""Exact integer linear algebra: Smith and Hermite forms, kernels, cokernels.

Everything here runs on plain Python ints, so intermediate values may grow
without bound and nothing ever rounds.  Matrices are immutable.

A cokernel order |Z^rows / (column lattice of m)| is fixed by m's shape
before any Smith form.  _column_index decides it: a tall m has rank below
its row count, so the order is infinite with no arithmetic; a square m gives
|det m| from one Bareiss pass (0: infinite); a wide m gives the product of
its Hermite pivots, found modulo the gcd d of the maximal minors that its
Bareiss passes hold, and the product must divide d.  cokernel_order wraps
that index, and engines take every order whose divisors they do not print
from it, through the private _cokernel_order.  That one also takes a known
multiple of the order: a pairwise order divides the stacked order it is a
projection of, so a stacked order of 1 makes it 1 with no arithmetic, and
otherwise a wide block is triangulated modulo gcd(d, multiple).
smith_normal_form's result takes its order from the same index pass; an
SnfResult built with divisors multiplies them, and the oracles recount by
that route, with the divisors of the bare Smith loop and no multiple.

One triangulation, _hermite_rows, serves every Hermite basis modulo a
multiple d of the index (d * Z^rows lies in the lattice).  The wide index
route keeps its basis (_hermite_index_rows), SnfResult._lattice_basis
returns it, and every later use of L reads it.  _dropped_block_indices
reads off it, modulo the index V, the index of the projection that drops
each block of coordinates: the dual group Hom(Z^R / L, Q/Z), found by
back-substitution modulo V (_dual_generators), restricted to one block has
the order of that block's image in Z^R / L.  Each index must be an integer
dividing V, and the last block's must equal the product of the pivots that
its projection keeps.

Smith forms serve callers that print divisors, and compute them only when
they are read: smith_normal_form runs the index pass at once and keeps it,
and the first read of the divisors runs what follows, with every check.  A
tall m is replaced by its transpose a, which has the same divisors, and its
pass runs then.  Every route has _hermite_rows triangulate L + d * Z^R,
whose divisors are gcd(d_i, d) (d_i = 0 past the rank rho), modulo d, and
_smith_divisors reduce those R x R rows, never a itself.  When
_column_index finds rho = R, _certified_divisors takes d = gcd(g, D) for
the index D and the gcd g of the (R-1)-minors its pass holds: d = 1 gives
(1, ..., 1, D); else the loop gives d_1 ... d_(R-1), d_R is D over their
product, and the loop's last must be gcd(d_R, d).  For rho < R the read
runs a second pass, which drops each dependent row where the index pass
stops at the first, and d is the gcd of the rho x rho minors in its last
row, a multiple of d_1 ... d_rho: the loop's first rho divisors are the
answer and its last R - rho must equal d.  The divisors must number rho,
form a chain, start with the gcd of the entries and multiply to D (below
full rank, to a divisor of d): checks that pin the rank, order, d_1 and
chain, not each middle divisor.

The Hermite rows of the graph lattice {(m @ x, x)} (_graph_rows) give
kernel_basis, the tails of the rows with zero heads, and unimodular_inverse,
the transposed tails when the heads are the identity.  No engine route runs
the Smith loop with transforms: certify_smith alone runs it, once
(_smith_with_transforms), and proves every divisor, at any size, by
|det s| == |det t| == 1 (Bareiss), since unimodular s and t with
s @ m @ t == d make d the Smith form of m, which is unique.

IntMatrix's public constructor and from_columns check every entry; what the
package computes from matrices it holds is built by IntMatrix._built, which
checks nothing.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd, prod
from operator import mul

from .cardinal import Cardinal, INFINITE, cardinal_product
from .errors import ConsistencyError, ContainmentError, ShapeError, SizeCapError


def _as_int(x, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ShapeError(f"{where}: expected an integer entry, got {x!r}")
    return x


class IntMatrix:
    """Immutable matrix of arbitrary-precision integers, row-major.

    The public constructor and from_columns check every entry: a float or
    bool is a ShapeError.  Matrices the package computes from matrices it
    already holds, or from ints it built itself, take the private _built
    instead, which checks nothing; every operation below builds its result
    that way.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data, *, cols: int | None = None):
        rows = []
        for i, raw in enumerate(data):
            row = tuple(raw)
            for x in row:
                if type(x) is not int:
                    _as_int(x, f"row {i}")
            if rows and len(row) != len(rows[0]):
                raise ShapeError(
                    f"row {i} has {len(row)} entries, expected {len(rows[0])}"
                )
            rows.append(row)
        self._data = tuple(rows)
        self.rows = len(rows)
        if rows:
            width = len(rows[0])
            if cols is not None and cols != width:
                raise ShapeError(f"cols={cols} contradicts row width {width}")
            self.cols = width
        else:
            self.cols = 0 if cols is None else cols

    @classmethod
    def _built(cls, rows, cols: int) -> IntMatrix:
        """The matrix on rows the package computed, each a sequence of cols
        ints; neither an entry nor a width is checked."""
        m = cls.__new__(cls)
        m._data = tuple(map(tuple, rows))
        m.rows = len(m._data)
        m.cols = cols
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> IntMatrix:
        return cls._built([(0,) * cols] * rows, cols)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls._built([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, columns, rows: int) -> IntMatrix:
        columns = [tuple(c) for c in columns]
        for j, c in enumerate(columns):
            if len(c) != rows:
                raise ShapeError(f"column {j} has length {len(c)}, expected {rows}")
        return cls(
            [[columns[j][i] for j in range(len(columns))] for i in range(rows)],
            cols=len(columns),
        )

    @classmethod
    def stack_rows(cls, blocks) -> IntMatrix:
        blocks = list(blocks)
        if not blocks:
            raise ShapeError("cannot stack zero blocks")
        width = blocks[0].cols
        rows = []
        for b in blocks:
            if b.cols != width:
                raise ShapeError(f"block widths differ: {b.cols} vs {width}")
            rows.extend(b._data)
        return cls._built(rows, width)

    def __getitem__(self, key):
        i, j = key
        return self._data[i][j]

    def row(self, i: int):
        return self._data[i]

    def column(self, j: int):
        return tuple(r[j] for r in self._data)

    def iter_rows(self):
        return iter(self._data)

    @property
    def entries(self):
        """Row-major flat tuple of all entries."""
        return tuple(x for r in self._data for x in r)

    def transpose(self) -> IntMatrix:
        rows = zip(*self._data) if self._data else [()] * self.cols
        return IntMatrix._built(rows, self.rows)

    def hstack(self, other: IntMatrix) -> IntMatrix:
        if other.rows != self.rows:
            raise ShapeError(f"row counts differ: {self.rows} vs {other.rows}")
        return IntMatrix._built(
            [a + b for a, b in zip(self._data, other._data)], self.cols + other.cols
        )

    def __add__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix addition needs equal shapes")
        return IntMatrix._built(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._data, other._data)],
            self.cols,
        )

    def __sub__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix subtraction needs equal shapes")
        return IntMatrix._built(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._data, other._data)],
            self.cols,
        )

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = [other.column(j) for j in range(other.cols)]
        return IntMatrix._built(
            [[sum(map(mul, row, col)) for col in cols] for row in self._data], other.cols
        )

    def apply(self, vector):
        """Matrix-vector product, returned as a tuple."""
        v = tuple(vector)
        if len(v) != self.cols:
            raise ShapeError(f"vector length {len(v)}, expected {self.cols}")
        return tuple([sum(map(mul, row, v)) for row in self._data])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def to_lists(self):
        return [list(r) for r in self._data]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __repr__(self):
        return f"IntMatrix({self.to_lists()!r})"


class SnfResult:
    """Smith form of m: the chain of positive invariant factors
    l1 | l2 | ... | lr, and the decomposition s @ m @ t == d with unimodular
    s and t, where d carries the divisors on its diagonal followed by zeros.

    s, t and d are set by certify_smith alone, from its run of the Smith
    loop with transforms, checked by s @ m @ t == d with d built from the
    divisors; smith_normal_form leaves them None on every route.

    A result of smith_normal_form knows cokernel_order and _lattice_basis
    from its index pass at once, and computes divisors on their first read,
    from that same pass (_checked_divisors), where every check runs (see
    smith_normal_form).  A failed check raises ConsistencyError there, and
    again at every later read; reading the order or the basis never runs
    one.  Built with divisors, as the oracles and certify_smith build it,
    the order is their product.
    """

    __slots__ = ("m", "s", "t", "d", "_divisors", "_order", "_basis", "_pass")

    def __init__(self, m: IntMatrix, divisors, s=None, t=None, d=None, basis=None):
        self.m, self.s, self.t, self.d, self._basis = m, s, t, d, basis
        self._divisors, self._order, self._pass = divisors, None, None

    @property
    def divisors(self) -> tuple[int, ...]:
        """The divisor chain, computed and checked on the first read."""
        if self._divisors is None:
            self._divisors = _checked_divisors(self.m, self._pass)
        return self._divisors

    def cokernel_order(self) -> Cardinal:
        """Order of Z^rows / (column lattice of m): infinite exactly when the
        rank falls short of the row count, else the product of the divisors
        (the index, when smith_normal_form gave this result)."""
        if self._order is None:
            divisors = self.divisors
            self._order = (
                INFINITE if len(divisors) < self.m.rows else Cardinal(prod(divisors, start=1))
            )
        return self._order

    def _lattice_basis(self) -> list[list[int]]:
        """Hermite rows of m's column lattice, entries modulo a multiple of
        its index: the wide index route's, else m's columns triangulated
        modulo the order once.  ValueError when the cokernel is infinite."""
        if self._basis is None:
            order, m = self.cokernel_order(), self.m
            if not order.is_finite:
                raise ValueError("cokernel is infinite; it has no Hermite basis of full rank")
            self._basis = _hermite_rows(map(m.column, range(m.cols)), m.rows, order.value)
        return self._basis


def _smith_divisors(rows, t=None) -> tuple[int, ...]:
    """Divisor chain of the list-of-rows matrix rows, which it may
    overwrite, by Smith reduction on the live submatrix (Cohen, GTM 138,
    algorithm 2.4.14; Kannan and Bachem, SIAM J. Comput. 8, 1979).

    A pivot is a smallest-magnitude entry (the hunt stops at the first
    unit), and its column is cleared by row operations; a remainder becomes
    the next, smaller pivot.  Column operations against the cleared column
    change the pivot row alone and take it modulo the pivot; a remainder
    again becomes the pivot.  A pivot is accepted once it divides every
    remaining entry, else a violating row is folded into its row, which
    shrinks it; so the chain comes out sorted.  An accepted pivot's row and
    column leave the live submatrix, and so does every row that turns zero.

    With t, a list of the columns of t starting as the identity, the run
    keeps its transforms: each row carries its row of s past its first
    w = len(t) entries, where the row operations reach it, and the column
    operations act on t's columns, also those that clear an accepted
    pivot's row.  A negative pivot negates its row of s.  On return rows
    holds the rows of s and t the columns of t, the accepted pivots first,
    so that s @ m @ t has the divisors on its diagonal and zeros elsewhere.
    """
    w = len(t) if t is not None else len(rows[0]) if rows else 0
    if t is not None:
        s_pivots, s_zeros, t_pivots = [], [], []
    divisors = []
    a = rows
    while True:
        # Without t a row holds matrix entries only, and the scans over
        # every row take it whole rather than copy it.
        if t is not None:
            s_zeros += [row[w:] for row in a if not any(row[:w])]
        a = [row for row in a if any(row if t is None else row[:w])]
        if not a:
            break
        best = pi = None
        for i, row in enumerate(a):
            v = min(map(abs, filter(None, row if t is None else row[:w])))
            if best is None or v < best:
                best, pi = v, i
                if v == 1:
                    break
        prow = a.pop(pi)
        head = prow[:w]  # an entry of s may equal +-best
        pj = head.index(best) if best in head else head.index(-best)
        while True:
            # Clear the pivot column by row operations; a remainder becomes
            # the next, smaller pivot.
            p = prow[pj]
            low = None
            for i, row in enumerate(a):
                f = row[pj]
                if f:
                    q = f // p
                    if q:
                        a[i] = row = [x - q * y for x, y in zip(row, prow)]
                        f = row[pj]
                    if f and (low is None or abs(f) < abs(a[low][pj])):
                        low = i
            if low is not None:
                a[low], prow = prow, a[low]
                continue
            if t is not None:
                # the column operations that take the pivot row modulo p:
                # the remainder step, the clearing before a fold, and the
                # clearing of an accepted pivot's row
                col = t[pj]
                for j, x in enumerate(prow[:w]):
                    q = x // p
                    if q and j != pj:
                        t[j] = [y - q * z for y, z in zip(t[j], col)]
            if p not in (1, -1):
                # Column operations against the cleared pivot column change
                # the pivot row alone: they leave its entries modulo p.
                rest = [x % p for x in prow[:w]]
                if any(rest):
                    j = min((j for j, x in enumerate(rest) if x), key=lambda j: abs(rest[j]))
                    rest[pj] = p
                    prow, pj = rest + prow[w:], j
                    continue
                # Divisibility sweep: fold a violating row into the pivot
                # row, cleared to p at pj.
                offender = next(
                    (row for row in a if any(x % p for x in (row if t is None else row[:w]))),
                    None,
                )
                if offender is not None:
                    prow = offender[:w] + [x + y for x, y in zip(prow[w:], offender[w:])]
                    prow[pj] = p
                    continue
            break
        divisors.append(abs(p))
        if t is not None:
            s_pivots.append(prow[w:] if p > 0 else [-x for x in prow[w:]])
            t_pivots.append(t.pop(pj))
        for row in a:
            del row[pj]
        w -= 1
    if t is not None:
        rows[:] = s_pivots + s_zeros
        t[:0] = t_pivots
    return tuple(divisors)


def _smith_with_transforms(m: IntMatrix) -> SnfResult:
    """Smith form with its transforms, verified by s @ m @ t == d; a helper
    of certify_smith alone, which proves s and t unimodular.

    _smith_divisors reduces m with identity transforms beside it: each row
    carries a row of I_rows, which becomes s, and the columns of I_cols
    become t.  d is the divisors on the diagonal, zeros elsewhere.
    """
    r, c = m.rows, m.cols
    rows = m.hstack(IntMatrix.identity(r)).to_lists()
    columns = IntMatrix.identity(c).to_lists()
    divisors = _smith_divisors(rows, columns)
    s = IntMatrix._built(rows, r)
    t = IntMatrix._built(columns, c).transpose()
    diagonal = divisors + (0,) * (r - len(divisors))
    d = IntMatrix._built(
        [[x if i == j else 0 for j in range(c)] for i, x in enumerate(diagonal)], c
    )
    if (s @ m) @ t != d:
        raise ConsistencyError("smith decomposition failed verification s@m@t != d")
    _check_chain(divisors)
    return SnfResult(m, divisors, s, t, d)


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Diagonalize m over the integers with a divisor chain on the diagonal.

    The result's cokernel_order and _lattice_basis come at once from the
    index pass, _column_index(m, minors=True), which decides a tall m by
    its shape, with no arithmetic.  Its divisors are computed on their
    first read, by _checked_divisors, from that pass: a tall m is reduced
    through its transpose a, which has the same divisors, and whose pass
    runs then.  The Smith loop reduces the R x R Hermite rows of
    L + d * Z^R modulo d, never a: with a of full row rank R,
    _certified_divisors takes d = gcd(g, D) from the index D and minor gcd
    g of the pass; with a of rank rho < R (rho == R is a ConsistencyError),
    a second pass drops each dependent row, and d is the gcd of the
    rho x rho minors in its last row.  There must be one divisor per unit of
    rank, forming a chain that starts with the gcd of the entries and
    multiplies to D, or below full rank to a divisor of d after R - rho
    trailing d's.  A failed check raises at the read.  The oracles run the
    Smith loop on the input alone, never this function.  s, t and d stay
    None; certify_smith returns them.

    >>> snf = smith_normal_form(IntMatrix([[2, 4, 1], [2, 6, 2]]))
    >>> str(snf.cokernel_order()), snf.divisors
    ('2', (1, 2))
    """
    index, g, basis = _column_index(m, minors=True)
    snf = SnfResult(m, None, basis=basis)
    snf._order, snf._pass = (Cardinal(index) if index else INFINITE), (index, g, basis)
    return snf


def _checked_divisors(m: IntMatrix, index_pass) -> tuple[int, ...]:
    """The divisors of smith_normal_form(m), with every check (see there),
    from index_pass, the (index, g, basis) of _column_index(m, minors=True);
    for a tall m, from the pass over its transpose a, run here."""
    a = m.transpose() if m.rows > m.cols else m
    index, g, basis = index_pass if a is m else _column_index(a, minors=True)
    if index:
        divisors, rank, d = _certified_divisors(a, index, g, basis), a.rows, index
        kind = "nonsingular" if a.is_square else "full-rank"
        name = "|det m| =" if a.is_square else "the Hermite index ="
    else:
        rows = a.to_lists()
        _bareiss(rows, drop=True)
        rank, kind, name = len(rows), f"rank-{len(rows)}", "a divisor of the minor gcd"
        if rank >= a.rows:
            raise ConsistencyError(
                f"rank {rank} is not below the {a.rows} rows of a matrix of index 0"
            )
        d = gcd(*rows[-1][rank - 1 :]) if rows else 1
        modular = _hermite_rows(map(a.column, range(a.cols)), a.rows, d)
        loop = _smith_divisors([[0] * i + row for i, row in enumerate(modular)])
        divisors, tail = loop[:rank], loop[rank:]
        if tail != (d,) * (a.rows - rank):
            raise ConsistencyError(f"the Smith loop modulo the minor gcd {d} ends in {tail}")
    _check_chain(divisors)
    if len(divisors) != rank:
        raise ConsistencyError(f"{len(divisors)} divisors for a {kind} {a.rows}x{a.cols} matrix")
    product = prod(divisors, start=1)
    if product != d if index else d % product:
        raise ConsistencyError(f"divisors {divisors} do not multiply to {name} {d}")
    if divisors and divisors[0] != gcd(*m.entries):
        raise ConsistencyError(f"first divisor of {divisors} is not the gcd of the entries")
    return divisors


def _certified_divisors(a: IntMatrix, index: int, g: int, basis) -> tuple[int, ...]:
    """Divisors d_1 | ... | d_R of the R x C matrix a of full row rank,
    whose column lattice L has the given index, without reducing a.

    g is a gcd of (R-1)-minors of a, so d_1 ... d_(R-1) divides it
    (determinantal divisors; Newman, Integral Matrices, 1972), and each d_i
    with i < R divides h = gcd(g, index).  With h = 1 the divisors are
    (1, ..., 1, index), every one proven, and nothing is reduced.
    Otherwise L + h * Z^R has divisors gcd(d_i, h), so its first R - 1 are
    d_1 ... d_(R-1) exactly (Domich, Kannan and Trotter, Math. Oper.
    Res. 12, 1987): _hermite_rows gives its R x R triangular basis, entries
    below h, from the basis kept by a wide a's index route, the Smith loop
    reduces that, and d_R = index / (d_1 ... d_(R-1)).  The loop's last
    divisor must be gcd(d_R, h), else ConsistencyError.
    """
    rows = a.rows
    h = gcd(g, index)
    if h == 1:
        return (1,) * (rows - 1) + (index,) if rows else ()
    vectors = map(a.column, range(a.cols))
    if basis is not None:  # a wide a: its R kept rows, as vectors
        vectors = ([0] * i + row for i, row in enumerate(basis))
    modular = _hermite_rows(vectors, rows, h)
    *head, tail = _smith_divisors([[0] * i + row for i, row in enumerate(modular)])
    last = index // prod(head, start=1)
    if tail != gcd(last, h):
        raise ConsistencyError(
            f"the Smith loop modulo {h} ends in {tail}, "
            f"not gcd(d_R, {h}) for d_R = {last} from the index {index}"
        )
    return (*head, last)


def _check_chain(divisors):
    if any(a <= 0 for a in divisors) or any(
        b % a for a, b in zip(divisors, divisors[1:])
    ):
        raise ConsistencyError(f"divisor chain broken: {divisors}")


def _bareiss(a, *, minors: bool = False, drop: bool = False) -> tuple[int, int]:
    """One fraction-free (Bareiss) pass down the n rows of a (lists, which
    it overwrites), pivoting on columns.  Returns (det, g).

    det is det a for a square a, else the signed determinant of n
    independent columns; 0 at the first row that depends on the rows above
    it.  With drop, such a row is deleted from a and the pass goes on: a
    ends with full row rank, and n and det below are for its kept rows.  A
    pass of full rank leaves maximal minors in the last row: past column
    n - 2 it holds, in some order, the n x n minors on the first n - 1
    pivot columns and each other column (Sylvester's identity; the first
    of them is det).  With minors set (and no drop), g is the gcd of the
    (n-1)-minors that the pass holds: when three rows remain, after
    k = n - 3 pivots, their entries are the (k+1)-minors on the first k
    pivot rows and columns, and by Sylvester's identity each 2x2 minor of
    that block divided by the previous pivot is an (n-1)-minor (Bareiss,
    Math. Comp. 22, 1968).  With two rows, g is the gcd of the entries, and
    with fewer it is 1.  So d_1 ... d_(n-1) divides g.  Without minors, g
    is 0, which every integer divides.
    """
    n = len(a)
    cols = len(a[0]) if a else 0
    sign, prev = 1, 1
    g = 1 if minors else 0
    k = 0
    while k < len(a):
        row = a[k]
        if minors and k == max(n - 3, 0) and n > 1:
            g = _trailing_minor_gcd(a[k:], k, prev)
        j = next((j for j in range(k, cols) if row[j]), None)
        if j is None:
            if not drop:
                return 0, g
            del a[k]
            continue
        if j != k:
            sign = -sign
            for r in a[k:]:
                r[k], r[j] = r[j], r[k]
        p = row[k]
        for r in a[k + 1 :]:
            f = r[k]
            r[k + 1 :] = [(x * p - f * y) // prev for x, y in zip(r[k + 1 :], row[k + 1 :])]
        prev = p
        k += 1
    return sign * prev, g


def _trailing_minor_gcd(block, k, prev) -> int:
    """gcd of the 2x2 minors of a three-row Bareiss block past column k,
    each divided by prev, or of the entries of a two-row one; 1 as soon as
    it reaches 1."""
    if len(block) == 2:
        return gcd(*block[0], *block[1])
    g = 0
    for r, s in combinations([row[k:] for row in block], 2):
        for j, (x, y) in enumerate(zip(r, s)):
            for u, v in zip(r[j + 1 :], s[j + 1 :]):
                g = gcd(g, (x * v - u * y) // prev)
                if g == 1:
                    return 1
    return g


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise ShapeError(f"determinant of a non-square {m.rows}x{m.cols} matrix")
    return _bareiss(m.to_lists())[0]


def certify_smith(m: IntMatrix) -> SnfResult:
    """Smith form of m with every divisor proven, or ConsistencyError.

    The one run of the Smith loop with transforms, which no engine route
    runs, checks s @ m @ t == d, where d carries the divisor chain on its
    diagonal and zeros elsewhere.  What is left is |det s| == |det t| == 1
    (Bareiss): then d is the Smith form of m, which is unique.

    >>> certify_smith(IntMatrix([[2, 4, 1], [2, 6, 2]])).divisors
    (1, 2)
    """
    snf = _smith_with_transforms(m)
    for name, u in (("s", snf.s), ("t", snf.t)):
        det = determinant(u)
        if abs(det) != 1:
            raise ConsistencyError(
                f"smith transform {name} is not unimodular: det {name} = {det}"
            )
    return snf


# --- Hermite machinery ------------------------------------------------------
#
# Row-style Hermite normal form for integer lattices.  Bases come back with
# strictly increasing pivot columns, positive pivots, and entries above each
# pivot reduced into [0, pivot).  That canonical shape is what makes kernel
# bases and report output deterministic.


def _pivot_col(row, start=0):
    for j in range(start, len(row)):
        if row[j]:
            return j
    return None


def hermite_basis(vectors, width: int) -> tuple[tuple[int, ...], ...]:
    """Canonical row-HNF basis of the lattice spanned by the given vectors,
    whatever their order.  Column by column: each live vector waits in the
    bucket of its leading column, Euclid across a column's bucket leaves one
    pivot row and moves each vector it clears to the bucket of its next
    leading column, and the positive pivot at once reduces the earlier
    rows' entries in its column, so no entry above a pivot grows (Kannan
    and Bachem, SIAM J. Comput. 8, 1979; Cohen, GTM 138, section 2.4)."""
    buckets = [[] for _ in range(width)]
    for vec in vectors:
        v = list(vec)
        if len(v) != width:
            raise ShapeError(f"lattice vector has length {len(v)}, expected {width}")
        lead = _pivot_col(v)
        if lead is not None:
            buckets[lead].append(v)
    echelon = []
    for col, bucket in enumerate(buckets):
        while len(bucket) > 1:
            r = min(bucket, key=lambda v: abs(v[col]))
            support = [j for j in range(col, width) if r[j]]
            rest = [r]
            for v in bucket:
                if v is not r:
                    q = v[col] // r[col]
                    for j in support:
                        v[j] -= q * r[j]
                    if v[col]:
                        rest.append(v)
                    elif (lead := _pivot_col(v, col + 1)) is not None:
                        buckets[lead].append(v)
            bucket = rest
        if bucket:
            r = bucket[0]
            p = r[col]
            if p < 0:
                p = -p
                for j in range(col, width):
                    r[j] = -r[j]
            for e in echelon:
                q = e[col] // p
                if q:
                    for j in range(col, width):
                        e[j] -= q * r[j]
            echelon.append(r)
    return tuple(map(tuple, echelon))


def lattice_coordinates(hnf_rows, vector) -> tuple[int, ...] | None:
    """Express vector over an HNF basis; None when it lies outside."""
    v = list(vector)
    coeffs = [0] * len(hnf_rows)
    for idx, row in enumerate(hnf_rows):
        p = _pivot_col(row)
        if v[p]:
            q, r = divmod(v[p], row[p])
            if r:
                return None
            coeffs[idx] = q
            for j in range(len(v)):
                v[j] -= q * row[j]
    if any(v):
        return None
    return tuple(coeffs)


def _graph_rows(m: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Hermite rows of the graph lattice {(m @ x, x)} of the r x c matrix m,
    spanned by (column j of m, e_j) (Cohen, GTM 138, section 2.4): c rows
    (m @ w, w), heads first, whose tails w form a unimodular W.  The rows
    with nonzero heads come first, their heads the Hermite basis of m's
    column lattice; the rest span the kernel.  So for c >= r the heads are
    [I_r; 0], m @ W^T == [I_r 0], exactly when rows[i][i] == 1 for i < r."""
    r, c = m.rows, m.cols
    graph = [m.column(j) + (0,) * j + (1,) + (0,) * (c - j - 1) for j in range(c)]
    return hermite_basis(graph, r + c)


def kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the full integer kernel lattice {v : m @ v = 0}, in canonical
    Hermite form.  The lattice is saturated: any rational kernel vector with
    integer entries is an integer combination of the basis.  The graph rows
    of m (_graph_rows) whose first r entries are 0 span {(0, x) : m @ x = 0}
    and are already canonical, so their tails are the basis, from one
    triangulation and no Smith form.

    >>> kernel_basis(IntMatrix([[2, 4, 1], [2, 6, 2]]))
    [(1, -1, 2)]
    """
    r = m.rows
    basis = [row[r:] for row in _graph_rows(m) if not any(row[:r])]
    for v in basis:
        if any(m.apply(v)):
            raise ConsistencyError("kernel basis vector fails m @ v = 0")
    return basis


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of an integer matrix with determinant +-1, from the graph
    rows of m (_graph_rows): their heads must be the identity, else m is
    not unimodular, and then m @ W^T == I for their tails W, so
    m^-1 = W^T.  m @ m^-1 == I is checked exactly.

    >>> unimodular_inverse(IntMatrix([[2, 1], [1, 1]]))
    IntMatrix([[1, -1], [-1, 2]])
    """
    if not m.is_square:
        raise ShapeError("only square matrices invert")
    n = m.rows
    rows = _graph_rows(m)
    if any(rows[i][i] != 1 for i in range(n)):
        raise ShapeError("matrix is not unimodular: its columns do not span Z^n")
    inv = IntMatrix._built([row[n:] for row in rows], n).transpose()
    if m @ inv != IntMatrix.identity(n):
        raise ConsistencyError("unimodular inverse fails m @ inv == I")
    return inv


def _hermite_rows(vectors, width: int, d: int) -> list[list[int]]:
    """Hermite basis, modulo d, of the lattice L spanned by vectors (each of
    length width) together with d * Z^width: row i carries coordinates
    i .. width - 1, its pivot h_i = row[0] > 0 first and the rest reduced
    into [0, d).  The rows, read as upper triangular vectors, span L, whose
    index is the product of the pivots.

    Coordinate i is cleared by extended gcd into a pivot seeded with
    d * e_i; the rest carry only the trailing coordinates (Domich, Kannan
    and Trotter, Math. Oper. Res. 12, 1987; Cohen, GTM 138, algorithm
    2.4.8).  A vector with coordinate i already 0 leaves the pivot as it is
    and passes on its reduced tail untouched; a small d makes those common.
    With d = 1 the lattice is Z^width, so the rows are the unit rows and
    no vector is read.
    """
    if d == 1:
        return [[1] + [0] * (width - i - 1) for i in range(width)]
    vectors = [[x % d for x in v] for v in vectors]
    basis = []
    for i in range(width):
        pivot = [d] + [0] * (width - i - 1)
        rest = []
        for v in vectors:
            if not v[0]:
                w = v[1:]
            else:
                h = pivot[0]
                g = gcd(h, v[0])
                a, b = h // g, v[0] // g
                w = [(a * y - b * z) % d for y, z in zip(v[1:], pivot[1:])]
                if a > 1:  # v[0] is no multiple of h: the pivot becomes g
                    t = pow(b, -1, a)
                    s = (1 - t * b) // a
                    pivot = [g] + [(s * z + t * y) % d for y, z in zip(v[1:], pivot[1:])]
            if any(w):
                rest.append(w)
        basis.append(pivot)
        vectors = rest
    return basis


# columns past the row count in each window _hermite_index_rows passes over
_WINDOW = 16


def _hermite_index_rows(
    m: IntMatrix, *, minors: bool = False, multiple: int = 0
) -> tuple[list | None, int]:
    """Hermite rows (see _hermite_rows) of the column lattice L of m in Z^n,
    n = m.rows, modulo a multiple d of the index, or None when L has rank
    < n; and the g of the Bareiss pass (see _bareiss, with minors).  It is
    _column_index's route for a wide m, and enumerate_cokernel's.

    A Bareiss pass of full rank leaves n x n minors of m in its last row
    (see _bareiss).  Each maximal minor M puts M * Z^n in L, so their gcd D
    is a multiple of the index of L that divides |det|.  So is
    d = gcd(D, multiple) when multiple, if not 0, is a known multiple of
    the index, and _hermite_rows may triangulate L modulo d.  The index is
    the product of the pivots, which must divide d.

    A very wide m, C > 2 * (n + _WINDOW), is passed on its leading and on
    its trailing n + _WINDOW columns, far cheaper than one pass over all C.
    Their minors are minors of m: d is the gcd over the windows of full
    rank, and g the gcd of their g's.  When neither has full rank, one pass
    over all C columns decides the rank and gives d and g.
    """
    w = m.rows + _WINDOW
    windows = [slice(0, w), slice(-w, None)] if m.cols > 2 * w else []
    d = g = 0
    for cuts in (windows, [slice(None)]):
        for cut in cuts:
            a = [list(row[cut]) for row in m.iter_rows()]
            det, h = _bareiss(a, minors=minors)
            if det:
                d, g = (gcd(d, *a[-1][m.rows - 1 :]) if a else 1), gcd(g, h)
        if d:
            break
    if not d:
        return None, h
    d = gcd(d, multiple)
    basis = _hermite_rows(map(m.column, range(m.cols)), m.rows, d)
    pivots = [row[0] for row in basis]
    if d % prod(pivots, start=1):
        raise ConsistencyError(f"Hermite pivots {pivots} do not divide the modulus {d}")
    return basis, g


def _dual_generators(basis, v: int) -> list[list[int]]:
    """Generators, scaled by v, of the dual Hom(A, Q/Z) of A = Z^R / L, for
    Hermite rows spanning a lattice L of index v, entries modulo a multiple
    of v: y in (Z/v)^R with row . y = 0 mod v for every row, R = len(basis).

    Generator t has y_r = 0 for r > t and y_t = v / h_t, and then for
    i = t - 1 down to 0, h_i y_i = -(sum of basis[i][r - i] y_r, r > i)
    mod v.  Some dual element has those trailing coordinates (column t of
    v times the inverse basis matrix), so h_i divides the residue; a
    remainder means the basis is wrong.  Row t forces an element whose last
    nonzero coordinate is t to hold a multiple of v / h_t there, so
    subtracting a multiple of generator t removes it: the generators with
    h_t > 1 span the dual, and with h_t = 1 there is none.
    """
    gens = []
    for t, row_t in enumerate(basis):
        if row_t[0] == 1:
            continue
        y = [0] * len(basis)
        y[t] = v // row_t[0]
        for i in range(t - 1, -1, -1):
            row = basis[i]
            x = -sum(map(mul, y[i + 1 : t + 1], row[1 : t - i + 1])) % v
            q, rest = divmod(x, row[0])
            if rest:
                raise ConsistencyError(
                    f"pivot {row[0]} does not divide the residue {x} "
                    f"of dual generator {t}"
                )
            y[i] = q
        gens.append(y)
    return gens


def _dropped_block_indices(basis, blocks: int, v: int) -> tuple[int, ...]:
    """For Hermite rows spanning L of index v in Z^R, entries modulo a multiple
    of v, cut into `blocks` blocks of n = R / blocks coordinates: the index in
    Z^(R - n) of the projection of L that drops block j, for each j.

    Dropping block j divides A = Z^R / L by the image I_j of block j's
    coordinates, so the index is v / |I_j|.  By duality of finite abelian
    groups, |I_j| is the order of the dual's restriction to those
    coordinates: the subgroup of (Z/v)^n spanned by the block-j slices of
    _dual_generators, of order v^n / P_j, where P_j multiplies the pivots
    of _hermite_rows of those slices modulo v.  So the index is
    v * P_j / v^n.  Checks: the pivots multiply to v, every index is an
    integer that divides v, and the last block's index is the product of
    the first R - n pivots, since dropping the last coordinates keeps just
    those basis rows.
    """
    width = len(basis)
    n = width // blocks
    if prod(row[0] for row in basis) != v:
        raise ConsistencyError(f"Hermite pivots do not multiply to the index {v}")
    gens = _dual_generators(basis, v)
    whole = v**n
    indices = []
    for j in range(blocks):
        slices = [y[j * n : (j + 1) * n] for y in gens]
        p = prod(row[0] for row in _hermite_rows(slices, n, v))
        index, rest = divmod(v * p, whole)
        if rest or v % index:
            raise ConsistencyError(
                f"block {j} gives {v} * {p} / {v}^{n}, not an integer dividing {v}"
            )
        indices.append(index)
    last = prod(row[0] for row in basis[: width - n])
    if indices[-1] != last:
        raise ConsistencyError(
            f"the last block's index {indices[-1]} is not the product {last} "
            "of the pivots it keeps"
        )
    return tuple(indices)


def _column_index(
    m: IntMatrix, *, minors: bool = False, multiple: int = 0
) -> tuple[int, int, list | None]:
    """Index |Z^rows / L| of the column lattice L of m, 0 when infinite; the
    g of the same Bareiss pass (see _bareiss, with minors; 0 when tall,
    without minors or for a multiple of 1); and the Hermite rows of a wide m
    of full rank, else None (also for a multiple of 1).

    multiple, if not 0, is a known multiple of the index of a lattice of
    full rank, such as a stacked order that the index divides; a wrong one
    gives a wrong index.  The shape still picks the route first.  A tall m
    has rank below its row count, so the index is infinite with no
    arithmetic, whatever the multiple.  A multiple of 1 gives index 1 with
    no arithmetic.  A square m has index |det m|, from one Bareiss pass,
    which must divide the multiple.  A wide m has the product of its
    Hermite pivots (_hermite_index_rows), triangulated modulo the gcd of
    its maximal minors and the multiple.
    """
    if m.rows > m.cols:
        return 0, 0, None
    if multiple == 1:
        return 1, 0, None
    if m.is_square:
        det, g = _bareiss(m.to_lists(), minors=minors)
        if multiple % (det or 1):
            raise ConsistencyError(f"|det| = {abs(det)} does not divide the multiple {multiple}")
        return abs(det), g, None
    basis, g = _hermite_index_rows(m, minors=minors, multiple=multiple)
    return (0 if basis is None else prod(row[0] for row in basis)), g, basis


def cokernel_order(m: IntMatrix) -> Cardinal:
    """Order of Z^rows / (column lattice of m), without a Smith form:
    infinite when m is tall or short of full row rank, |det m| when square,
    and the product of the Hermite pivots when wide.

    >>> str(cokernel_order(IntMatrix([[2, 4, 1], [2, 6, 2]])))
    '2'
    >>> str(cokernel_order(IntMatrix([[1, 2], [2, 4]])))
    'infinite'
    """
    return _cokernel_order(m)


def _cokernel_order(m: IntMatrix, *, multiple: int = 0) -> Cardinal:
    """cokernel_order(m), given multiple, a known multiple of the order when
    it is finite (0: none; see _column_index).  The engines pass a stacked
    order, which every order of a coordinate projection of its lattice
    divides.  A wrong multiple gives a wrong order, so this stays private.

    >>> m = IntMatrix([[2, 4, 1], [2, 6, 2]])
    >>> [str(_cokernel_order(m, multiple=v)) for v in (0, 6, 10)]
    ['2', '2', '2']
    >>> str(_cokernel_order(m.transpose(), multiple=1))
    'infinite'
    """
    index = _column_index(m, multiple=multiple)[0]
    return Cardinal(index) if index else INFINITE


def lattice_index(sub_vectors, super_vectors, *, width: int | None = None) -> Cardinal:
    """Index [L_super : L_sub] of the lattice spanned by sub_vectors inside
    the lattice spanned by super_vectors.

    Every sub vector must lie in the super lattice (integrally), or a
    ContainmentError is raised.  The index is infinite when the sub lattice
    has strictly smaller rank.  Every entry must be an int (else
    ShapeError), checked here, so the coordinate matrix is built unchecked.
    """
    sub = [tuple(v) for v in sub_vectors]
    sup = [tuple(v) for v in super_vectors]
    if width is None:
        if sup:
            width = len(sup[0])
        elif sub:
            width = len(sub[0])
        else:
            width = 0
    for v in sub + sup:
        if len(v) != width:
            raise ShapeError(f"vector length {len(v)}, expected {width}")
        for x in v:
            if type(x) is not int:
                _as_int(x, "lattice vector")
    basis = hermite_basis(sup, width)
    coords = []
    for v in sub:
        c = lattice_coordinates(basis, v)
        if c is None:
            raise ContainmentError(
                f"vector {list(v)} is not in the super lattice"
            )
        coords.append(c)
    return cokernel_order(IntMatrix._built(coords, len(basis)).transpose())


def enumerate_cokernel(m: IntMatrix, cap: int = 1_000_000) -> list[tuple[int, ...]]:
    """All residue classes of Z^rows modulo the column lattice of m, as
    canonical representatives in lexicographic order.

    For a full-rank lattice the row-HNF basis is square, upper triangular,
    with pivots h_1 ... h_n on its diagonal, and reducing a vector by it
    leaves exactly one representative in the box 0 <= v_i < h_i per class
    (Cohen, GTM 138, section 2.4).  So the classes are that box, listed
    directly under the pivots cokernel_order multiplies.  Tests use
    the list as a reference.  Requires a finite cokernel; refuses beyond
    cap.

    >>> enumerate_cokernel(IntMatrix([[2, 4, 1], [2, 6, 2]]))
    [(0, 0), (0, 1)]
    """
    basis, _ = _hermite_index_rows(m)
    if basis is None:
        raise ValueError("cokernel is infinite; enumeration is impossible")
    pivots = [row[0] for row in basis]
    bound = prod(pivots, start=1)
    if bound > cap:
        raise SizeCapError(f"cokernel enumeration of size {bound} exceeds cap {cap}")
    return list(product(*(range(h) for h in pivots)))


__all__ = [
    "IntMatrix",
    "SnfResult",
    "smith_normal_form",
    "certify_smith",
    "determinant",
    "unimodular_inverse",
    "hermite_basis",
    "lattice_coordinates",
    "kernel_basis",
    "cokernel_order",
    "lattice_index",
    "enumerate_cokernel",
    "Cardinal",
    "INFINITE",
    "cardinal_product",
]
