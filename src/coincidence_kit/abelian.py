"""Reidemeister coincidence numbers for maps into a torus.

A system of k >= 2 homomorphisms Z^m -> Z^n is held as integer matrices.
Tuples (alpha_2, ..., alpha_k) of target classes are twisted by
alpha_j |-> phi_1(z) + alpha_j - phi_j(z), so the class set is the cokernel
of the (k-1)n x m matrix whose j-th block is matrix(phi_{j+1}) - matrix(phi_1).

Blockwise projection of that cokernel onto the pairwise cokernels is a
surjection Psi; its kernel size is a lattice index, and the product of the
pairwise numbers times |ker Psi| recovers the full value.  The failed
stronger guess, that products of leave-one-out subsystem values also divide,
is computed alongside so reports can exhibit counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cardinal import Cardinal, cardinal_product
from .errors import ShapeError
from .exact_linalg import (
    IntMatrix,
    cokernel_order,
    enumerate_cokernel,
    hermite_basis,
    lattice_coordinates,
    lattice_index,
    smith_normal_form,
)
from .reporting import NIELSEN_NOTE, ReidemeisterReport


class AbelianHom:
    """Homomorphism Z^m -> Z^n as an n x m integer matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: IntMatrix):
        if not isinstance(matrix, IntMatrix):
            matrix = IntMatrix(matrix)
        self.matrix = matrix

    @property
    def target_rank(self) -> int:
        return self.matrix.rows

    @property
    def source_rank(self) -> int:
        return self.matrix.cols

    def __eq__(self, other):
        if not isinstance(other, AbelianHom):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"AbelianHom({self.matrix.to_lists()!r})"


class AbelianSystem:
    """An ordered tuple of k >= 2 homomorphisms with one shared shape."""

    __slots__ = ("homs",)

    def __init__(self, homs):
        homs = tuple(h if isinstance(h, AbelianHom) else AbelianHom(h) for h in homs)
        if len(homs) < 2:
            raise ShapeError(f"a system needs at least two maps, got {len(homs)}")
        shape = (homs[0].target_rank, homs[0].source_rank)
        for i, h in enumerate(homs):
            if (h.target_rank, h.source_rank) != shape:
                raise ShapeError(
                    f"hom {i} has shape {h.target_rank}x{h.source_rank}, "
                    f"expected {shape[0]}x{shape[1]}"
                )
        self.homs = homs

    @property
    def k(self) -> int:
        return len(self.homs)

    @property
    def target_rank(self) -> int:
        return self.homs[0].target_rank

    @property
    def source_rank(self) -> int:
        return self.homs[0].source_rank

    def __repr__(self):
        return f"AbelianSystem(k={self.k}, {self.target_rank}x{self.source_rank})"


def stacked_difference(system: AbelianSystem) -> IntMatrix:
    """The (k-1)n x m matrix with j-th block matrix(phi_{j+1}) - matrix(phi_1)."""
    base = system.homs[0].matrix
    blocks = [h.matrix - base for h in system.homs[1:]]
    return IntMatrix.stack_rows(blocks)


def reid_pair(phi: AbelianHom, psi: AbelianHom) -> Cardinal:
    """R(phi, psi) = order of coker(psi - phi)."""
    phi = phi if isinstance(phi, AbelianHom) else AbelianHom(phi)
    psi = psi if isinstance(psi, AbelianHom) else AbelianHom(psi)
    if (phi.target_rank, phi.source_rank) != (psi.target_rank, psi.source_rank):
        raise ShapeError("paired homs must share their shape")
    return cokernel_order(psi.matrix - phi.matrix)


def _pairwise(system: AbelianSystem) -> tuple[Cardinal, ...]:
    first = system.homs[0]
    return tuple(reid_pair(first, h) for h in system.homs[1:])


def _block_lattice_vectors(system: AbelianSystem):
    """Generators of Im(D_2) x ... x Im(D_k) inside Z^{(k-1)n}."""
    n = system.target_rank
    k = system.k
    base = system.homs[0].matrix
    out = []
    for j, h in enumerate(system.homs[1:]):
        diff = h.matrix - base
        for c in range(diff.cols):
            col = diff.column(c)
            vec = [0] * ((k - 1) * n)
            vec[j * n : (j + 1) * n] = col
            out.append(tuple(vec))
    return out


def ker_psi_order(system: AbelianSystem) -> Cardinal:
    """Size of the kernel of the blockwise surjection Psi, as the lattice
    index of the stacked image inside the product of the blockwise images.

    Only defined when the multi-map number is finite.
    """
    stacked = stacked_difference(system)
    if not cokernel_order(stacked).is_finite:
        raise ValueError("ker Psi is defined only when the multi-map number is finite")
    return _ker_psi_order(system, stacked)


def _ker_psi_order(system: AbelianSystem, stacked: IntMatrix) -> Cardinal:
    """ker_psi_order for a caller that already knows the stacked cokernel of
    the system is finite."""
    sub = [stacked.column(j) for j in range(stacked.cols)]
    super_vectors = _block_lattice_vectors(system)
    return lattice_index(sub, super_vectors, width=stacked.rows)


def ker_psi_order_bruteforce(system: AbelianSystem, cap: int = 1_000_000,
                             classes=None) -> Cardinal:
    """Independent recount of |ker Psi|: enumerate the residue classes of the
    stacked cokernel and test blockwise membership directly.

    A caller that already enumerated the stacked cokernel passes its classes.
    An infinite cokernel raises ValueError from the enumeration; no Smith
    form is computed.
    """
    if classes is None:
        classes = enumerate_cokernel(stacked_difference(system), cap=cap)
    n = system.target_rank
    base = system.homs[0].matrix
    block_bases = []
    for h in system.homs[1:]:
        diff = h.matrix - base
        block_bases.append(
            hermite_basis((diff.column(j) for j in range(diff.cols)), n)
        )
    count = 0
    for rep in classes:
        in_kernel = True
        for j, basis in enumerate(block_bases):
            block = rep[j * n : (j + 1) * n]
            if lattice_coordinates(basis, block) is None:
                in_kernel = False
                break
        if in_kernel:
            count += 1
    return Cardinal(count)


def reid_multi(system: AbelianSystem) -> ReidemeisterReport:
    """Multi-map Reidemeister number with pairwise values and, when finite,
    the kernel size of the blockwise surjection."""
    if not isinstance(system, AbelianSystem):
        system = AbelianSystem(system)
    stacked = stacked_difference(system)
    snf = smith_normal_form(stacked)
    value = snf.cokernel_order()
    pairwise = _pairwise(system)
    trace = [
        f"stacked difference has shape {stacked.rows}x{stacked.cols}",
        "invariant factors: "
        + (", ".join(str(d) for d in snf.divisors) if snf.divisors else "(none)"),
        f"value = {value}",
        "pairwise values: " + ", ".join(str(p) for p in pairwise),
    ]
    ker = None
    if value.is_finite:
        if all(p == Cardinal(1) for p in pairwise):
            # Every block image is all of Z^n, so the lattice index would
            # reduce the stacked matrix itself again: Psi is trivial and its
            # kernel is the whole class set.
            ker = value
            trace.append(f"|ker Psi| = {ker} (every pairwise value is 1)")
        else:
            ker = _ker_psi_order(system, stacked)
            trace.append(f"|ker Psi| = {ker} (lattice index route)")
    intermediates = {
        "pairwise": [p.to_json() for p in pairwise],
        "nielsen_note": NIELSEN_NOTE,
    }
    if ker is not None:
        intermediates["ker_psi_order"] = ker.to_json()
    return ReidemeisterReport(
        value=value,
        pairwise=pairwise,
        ker_psi_order=ker,
        intermediates=intermediates,
        trace=tuple(trace),
    )


def permute_system(system: AbelianSystem, sigma) -> AbelianSystem:
    """Reorder the maps: new hom i is old hom sigma[i] (0-based)."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(system.k)):
        raise ShapeError(f"not a permutation of 0..{system.k - 1}: {sigma}")
    return AbelianSystem([system.homs[i] for i in sigma])


@dataclass
class DivisibilityReport:
    """Which product-divisibility facts hold for a system.

    The pairwise product R(phi_1,phi_2) * ... * R(phi_1,phi_k) always divides
    a finite multi-map value, with quotient |ker Psi|.  The leave-one-out
    product (dropping one non-first map at a time, k >= 4) need not divide;
    `leave_one_out_divides` records what actually happened.
    """

    applicable: bool
    value: Cardinal
    pairwise: tuple[Cardinal, ...]
    pairwise_product: Cardinal | None = None
    pairwise_divides: bool | None = None
    quotient: Cardinal | None = None
    ker_psi: Cardinal | None = None
    quotient_equals_ker_psi: bool | None = None
    leave_one_out: tuple[Cardinal, ...] | None = None
    leave_one_out_product: Cardinal | None = None
    leave_one_out_divides: bool | None = None
    witness: str = ""


def divisibility_report(
    system: AbelianSystem, report: ReidemeisterReport | None = None
) -> DivisibilityReport:
    """The divisibility facts of a system.  The value, the pairwise values
    and |ker Psi| come from report, the system's reid_multi report, which is
    computed here when not given; only the leave-one-out values are new."""
    if not isinstance(system, AbelianSystem):
        system = AbelianSystem(system)
    if report is None:
        report = reid_multi(system)
    value = report.value
    pairwise = report.pairwise
    if not value.is_finite:
        return DivisibilityReport(
            applicable=False,
            value=value,
            pairwise=pairwise,
            witness="divisibility not applicable: the multi-map number is infinite",
        )
    product = cardinal_product(pairwise)
    divides = product.divides(value)
    quotient = value.divide_exact(product) if divides else None
    ker = report.ker_psi_order
    report = DivisibilityReport(
        applicable=True,
        value=value,
        pairwise=pairwise,
        pairwise_product=product,
        pairwise_divides=divides,
        quotient=quotient,
        ker_psi=ker,
        quotient_equals_ker_psi=(quotient == ker),
        witness=f"pairwise product {product} divides {value}; quotient is |ker Psi| = {ker}",
    )
    if system.k >= 4:
        # Drop one non-first map at a time, keeping phi_1 as the base point.
        subs = []
        for drop in range(1, system.k):
            homs = [h for i, h in enumerate(system.homs) if i != drop]
            subs.append(cokernel_order(stacked_difference(AbelianSystem(homs))))
        sub_product = cardinal_product(subs)
        sub_divides = sub_product.divides(value)
        report.leave_one_out = tuple(subs)
        report.leave_one_out_product = sub_product
        report.leave_one_out_divides = sub_divides
        verdict = "divides" if sub_divides else "does NOT divide"
        report.witness += (
            f"; leave-one-out product {sub_product} {verdict} {value}"
        )
    return report


__all__ = [
    "AbelianHom",
    "AbelianSystem",
    "DivisibilityReport",
    "divisibility_report",
    "ker_psi_order",
    "ker_psi_order_bruteforce",
    "permute_system",
    "reid_multi",
    "reid_pair",
    "stacked_difference",
]
