"""Exact integer linear algebra: Smith and Hermite forms, kernels, cokernels.

Everything here runs on plain Python ints, so intermediate values may grow
without bound and nothing ever rounds.  Matrices are immutable.  The Smith
routine records its row and column operations in unimodular transforms and
re-multiplies them against the input before returning, so a result that comes
back at all is self-verified.  Callers keep that result and read the
cokernel order, the kernel and inverses off it rather than reducing the same
matrix again: unimodular_inverse takes m^-1 = t @ s from the verified
transforms of s @ m @ t == I and checks m @ m^-1 == I exactly.

Two independent routes exist for the invariant factors: gcd-driven
elimination (smith_normal_form) and gcds of k x k minors
(elementary_divisors_via_minors).  Tests hold them against each other.  The
minors route forms C(rows + cols, rows) - 1 determinants, so it refuses
shapes beyond MINORS_ORACLE_CAP before computing any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd, prod

from .cardinal import Cardinal, INFINITE, cardinal_product
from .errors import ConsistencyError, ContainmentError, ShapeError, SizeCapError

# Most k x k minors, over all k, that elementary_divisors_via_minors will form:
# a 9 x 9 input (48 619 minors, about 1.5 s) fits, a 10 x 10 (184 755) does not.
MINORS_ORACLE_CAP = 50_000


def _as_int(x, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ShapeError(f"{where}: expected an integer entry, got {x!r}")
    return x


class IntMatrix:
    """Immutable matrix of arbitrary-precision integers, row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data, *, cols: int | None = None):
        rows = []
        for i, raw in enumerate(data):
            row = tuple(_as_int(x, f"row {i}") for x in raw)
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
    def zeros(cls, rows: int, cols: int) -> IntMatrix:
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

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
        return cls(rows, cols=width)

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
        return IntMatrix.from_columns(self._data, rows=self.cols)

    def hstack(self, other: IntMatrix) -> IntMatrix:
        if other.rows != self.rows:
            raise ShapeError(f"row counts differ: {self.rows} vs {other.rows}")
        return IntMatrix(
            [a + b for a, b in zip(self._data, other._data)],
            cols=self.cols + other.cols,
        )

    def __add__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix addition needs equal shapes")
        return IntMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._data, other._data)],
            cols=self.cols,
        )

    def __sub__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix subtraction needs equal shapes")
        return IntMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._data, other._data)],
            cols=self.cols,
        )

    def __neg__(self):
        return IntMatrix([[-x for x in r] for r in self._data], cols=self.cols)

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = [other.column(j) for j in range(other.cols)]
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self._data],
            cols=other.cols,
        )

    def apply(self, vector):
        """Matrix-vector product, returned as a tuple."""
        v = tuple(vector)
        if len(v) != self.cols:
            raise ShapeError(f"vector length {len(v)}, expected {self.cols}")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self._data)

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


@dataclass(frozen=True)
class SnfResult:
    """Smith decomposition s @ m @ t == d with unimodular s, t.

    divisors is the chain of positive invariant factors l1 | l2 | ... | lr;
    d carries them on its diagonal followed by zeros.
    """

    s: IntMatrix
    t: IntMatrix
    d: IntMatrix
    divisors: tuple[int, ...]

    def cokernel_order(self) -> Cardinal:
        """Order of Z^rows / (column lattice of m): infinite exactly when the
        rank falls short of the row count, else the product of the divisors."""
        if len(self.divisors) < self.d.rows:
            return INFINITE
        return Cardinal(prod(self.divisors, start=1))


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _swap_cols(a, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_row(a, dst, src, mult):
    # row[dst] += mult * row[src]
    rd, rs = a[dst], a[src]
    for j in range(len(rd)):
        rd[j] += mult * rs[j]


def _add_col(a, dst, src, mult):
    for row in a:
        row[dst] += mult * row[src]


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Diagonalize m over the integers with a divisor chain on the diagonal.

    Pivoting always picks a smallest-magnitude nonzero entry of the working
    submatrix, then clears its row and column by Euclidean steps.  Before a
    pivot is accepted, every remaining entry must be divisible by it; a
    violating row is folded into the pivot row, which strictly shrinks the
    pivot and so terminates.  That discipline is what makes the divisor chain
    come out sorted without a separate fixup pass.

    >>> smith_normal_form(IntMatrix([[2, 4, 1], [2, 6, 2]])).divisors
    (1, 2)
    """
    rows, cols = m.rows, m.cols
    a = m.to_lists()
    s = IntMatrix.identity(rows).to_lists()
    t = IntMatrix.identity(cols).to_lists()

    k = 0
    limit = min(rows, cols)
    while k < limit:
        # Global pivot hunt over the untouched submatrix.
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                v = a[i][j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != k:
            _swap_rows(a, k, bi)
            _swap_rows(s, k, bi)
        if bj != k:
            _swap_cols(a, k, bj)
            _swap_cols(t, k, bj)

        while True:
            # Clear the pivot column by row operations.
            while True:
                dirty = [i for i in range(k + 1, rows) if a[i][k]]
                if not dirty:
                    break
                low = min(
                    range(k, rows),
                    key=lambda i: (a[i][k] == 0, abs(a[i][k]), i),
                )
                if low != k:
                    _swap_rows(a, k, low)
                    _swap_rows(s, k, low)
                for i in range(k + 1, rows):
                    if a[i][k]:
                        q = a[i][k] // a[k][k]
                        if q:
                            _add_row(a, i, k, -q)
                            _add_row(s, i, k, -q)
            # Clear the pivot row by column operations; a column swap here can
            # re-dirty the pivot column, hence the outer loop.
            while True:
                dirty = [j for j in range(k + 1, cols) if a[k][j]]
                if not dirty:
                    break
                low = min(
                    range(k, cols),
                    key=lambda j: (a[k][j] == 0, abs(a[k][j]), j),
                )
                if low != k:
                    _swap_cols(a, k, low)
                    _swap_cols(t, k, low)
                for j in range(k + 1, cols):
                    if a[k][j]:
                        q = a[k][j] // a[k][k]
                        if q:
                            _add_col(a, j, k, -q)
                            _add_col(t, j, k, -q)
            if any(a[i][k] for i in range(k + 1, rows)):
                continue
            # Divisibility sweep: the accepted pivot must divide everything
            # that remains, or the chain property would fail downstream.
            p = abs(a[k][k])
            offender = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if a[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _add_row(a, k, offender, 1)
            _add_row(s, k, offender, 1)

        if a[k][k] < 0:
            for j in range(cols):
                a[k][j] = -a[k][j]
            for j in range(rows):
                s[k][j] = -s[k][j]
        k += 1

    diag = [a[i][i] for i in range(limit)]
    divisors = []
    for v in diag:
        if v == 0:
            break
        divisors.append(v)
    s_m = IntMatrix(s, cols=rows)
    t_m = IntMatrix(t, cols=cols)
    d_m = IntMatrix(a, cols=cols)
    _verify_snf(m, s_m, t_m, d_m, tuple(divisors))
    return SnfResult(s=s_m, t=t_m, d=d_m, divisors=tuple(divisors))


def _verify_snf(m, s, t, d, divisors):
    if (s @ m) @ t != d:
        raise ConsistencyError("smith decomposition failed verification s@m@t != d")
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j and d[i, j]:
                raise ConsistencyError("smith form is not diagonal")
    for a, b in zip(divisors, divisors[1:]):
        if a <= 0 or b % a:
            raise ConsistencyError(f"divisor chain broken: {divisors}")
    lim = min(d.rows, d.cols)
    for i in range(len(divisors), lim):
        if d[i, i]:
            raise ConsistencyError("nonzero diagonal entry after a zero one")


def _minor_det(m: IntMatrix, row_idx, col_idx) -> int:
    sub = IntMatrix([[m[i, j] for j in col_idx] for i in row_idx])
    return determinant(sub)


def elementary_divisors_via_minors(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors from gcds of k x k minors; independent of the
    elimination route, so it serves as its oracle.

    d_k = gcd of all k x k minors, d_0 = 1, and the k-th divisor is
    d_k / d_{k-1} while d_k is nonzero.  There are C(rows + cols, rows) - 1
    minors in all; beyond MINORS_ORACLE_CAP of them a SizeCapError is raised
    before any is computed.
    """
    minors = comb(m.rows + m.cols, m.rows) - 1
    if minors > MINORS_ORACLE_CAP:
        raise SizeCapError(
            f"gcd-of-minors oracle on a {m.rows}x{m.cols} matrix needs {minors} "
            f"minors, over the cap of {MINORS_ORACLE_CAP}"
        )
    limit = min(m.rows, m.cols)
    divisors = []
    prev = 1
    for k in range(1, limit + 1):
        g = 0
        for row_idx in combinations(range(m.rows), k):
            for col_idx in combinations(range(m.cols), k):
                g = gcd(g, _minor_det(m, row_idx, col_idx))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return tuple(divisors)


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise ShapeError(f"determinant of a non-square {m.rows}x{m.cols} matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
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
    return sign * a[n - 1][n - 1]


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of an integer matrix with determinant +-1, read off its Smith
    form: s @ m @ t == I gives m^-1 = t @ s."""
    if not m.is_square:
        raise ShapeError("only square matrices invert")
    snf = smith_normal_form(m)
    if len(snf.divisors) < m.rows or any(d != 1 for d in snf.divisors):
        raise ShapeError(
            f"matrix is not unimodular (invariant factors {snf.divisors})"
        )
    inv = snf.t @ snf.s
    if m @ inv != IntMatrix.identity(m.rows):
        raise ConsistencyError("unimodular inverse fails m @ inv == I")
    return inv


# --- Hermite machinery ------------------------------------------------------
#
# Row-style Hermite normal form for integer lattices.  Bases come back with
# strictly increasing pivot columns, positive pivots, and entries above each
# pivot reduced into [0, pivot).  That canonical shape is what makes kernel
# bases and report output deterministic.


def _pivot_col(row):
    for j, v in enumerate(row):
        if v:
            return j
    return None


def hermite_basis(vectors, width: int) -> tuple[tuple[int, ...], ...]:
    """Canonical row-HNF basis of the lattice spanned by the given vectors."""
    rows: list[list[int]] = []  # kept in echelon, pivots strictly increasing
    for vec in vectors:
        v = list(vec)
        if len(v) != width:
            raise ShapeError(f"lattice vector has length {len(v)}, expected {width}")
        idx = 0
        while True:
            lead = _pivot_col(v)
            if lead is None:
                break
            while idx < len(rows) and _pivot_col(rows[idx]) < lead:
                idx += 1
            if idx == len(rows) or _pivot_col(rows[idx]) > lead:
                rows.insert(idx, v)
                break
            # Same pivot column: fold v into the resident row by gcd steps.
            r = rows[idx]
            p = lead
            while v[p]:
                if abs(v[p]) < abs(r[p]):
                    rows[idx], v = v, r
                    r = rows[idx]
                q = v[p] // r[p]
                for j in range(width):
                    v[j] -= q * r[j]
            # v now has a later pivot (or is zero); keep reducing it.
    # Normalize: positive pivots, entries above pivots reduced mod pivot.
    for r in rows:
        p = _pivot_col(r)
        if r[p] < 0:
            for j in range(len(r)):
                r[j] = -r[j]
    for i in range(len(rows)):
        p = _pivot_col(rows[i])
        for j in range(i):
            q = rows[j][p] // rows[i][p]
            if q:
                for c in range(width):
                    rows[j][c] -= q * rows[i][c]
    return tuple(tuple(r) for r in rows)


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


def rank(m: IntMatrix) -> int:
    """Rank over the rationals, computed by Hermite reduction of the rows.

    Deliberately avoids the Smith routine so the two can police each other.
    """
    return len(hermite_basis(m.iter_rows(), m.cols))


def kernel_basis(m: IntMatrix, snf: SnfResult | None = None) -> list[tuple[int, ...]]:
    """Basis of the full integer kernel lattice {v : m @ v = 0}, in canonical
    Hermite form.  The lattice is saturated: any rational kernel vector with
    integer entries is an integer combination of the basis.  Pass snf, the
    Smith form of m, when the caller already has it.

    >>> kernel_basis(IntMatrix([[2, 4, 1], [2, 6, 2]]))
    [(1, -1, 2)]
    """
    if m.cols == 0:
        return []
    if snf is None:
        snf = smith_normal_form(m)
    r = len(snf.divisors)
    raw = [snf.t.column(j) for j in range(r, m.cols)]
    basis = hermite_basis(raw, m.cols)
    for v in basis:
        if any(m.apply(v)):
            raise ConsistencyError("kernel basis vector fails m @ v = 0")
    return list(basis)


def cokernel_order(m: IntMatrix) -> Cardinal:
    """Order of Z^rows / (column lattice of m).

    Infinite exactly when the rank falls short of the row count; otherwise
    the product of the invariant factors.

    >>> str(cokernel_order(IntMatrix([[2, 4, 1], [2, 6, 2]])))
    '2'
    """
    return smith_normal_form(m).cokernel_order()


def lattice_index(sub_vectors, super_vectors, *, width: int | None = None) -> Cardinal:
    """Index [L_super : L_sub] of the lattice spanned by sub_vectors inside
    the lattice spanned by super_vectors.

    Every sub vector must lie in the super lattice (integrally), or a
    ContainmentError is raised.  The index is infinite when the sub lattice
    has strictly smaller rank.
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
    basis = hermite_basis(sup, width)
    coords = []
    for v in sub:
        c = lattice_coordinates(basis, v)
        if c is None:
            raise ContainmentError(
                f"vector {list(v)} is not in the super lattice"
            )
        coords.append(c)
    coord_matrix = IntMatrix.from_columns(coords, rows=len(basis))
    return cokernel_order(coord_matrix)


def enumerate_cokernel(m: IntMatrix, cap: int = 1_000_000) -> list[tuple[int, ...]]:
    """All residue classes of Z^rows modulo the column lattice of m, as
    canonical representatives, found by breadth-first closure from zero.

    This is the brute-force oracle for cokernel_order: it never touches the
    Smith machinery.  Requires a finite cokernel; refuses beyond cap.
    """
    n = m.rows
    basis = hermite_basis((m.column(j) for j in range(m.cols)), n)
    if len(basis) < n:
        raise ValueError("cokernel is infinite; enumeration is impossible")
    bound = prod((row[_pivot_col(row)] for row in basis), start=1)
    if bound > cap:
        raise SizeCapError(f"cokernel enumeration of size {bound} exceeds cap {cap}")

    def reduce(vec):
        v = list(vec)
        for row in basis:
            p = _pivot_col(row)
            q = v[p] // row[p]
            if q:
                for j in range(n):
                    v[j] -= q * row[j]
        return tuple(v)

    start = reduce([0] * n)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                for step in (1, -1):
                    w = list(v)
                    w[i] += step
                    w = reduce(w)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt
    return sorted(seen)


def cokernel_order_bruteforce(m: IntMatrix, cap: int = 1_000_000) -> Cardinal:
    return Cardinal(len(enumerate_cokernel(m, cap=cap)))


__all__ = [
    "IntMatrix",
    "SnfResult",
    "smith_normal_form",
    "elementary_divisors_via_minors",
    "MINORS_ORACLE_CAP",
    "determinant",
    "unimodular_inverse",
    "hermite_basis",
    "lattice_coordinates",
    "rank",
    "kernel_basis",
    "cokernel_order",
    "cokernel_order_bruteforce",
    "lattice_index",
    "enumerate_cokernel",
    "Cardinal",
    "INFINITE",
    "cardinal_product",
]
