"""Reidemeister coincidence numbers for maps into a torus.

A system of k >= 2 homomorphisms Z^m -> Z^n is held as integer matrices.
Tuples (alpha_2, ..., alpha_k) of target classes are twisted by
alpha_j |-> phi_1(z) + alpha_j - phi_j(z), so the class set is the cokernel
of the (k-1)n x m matrix whose j-th block is matrix(phi_{j+1}) - matrix(phi_1).

Blockwise projection of that cokernel onto the pairwise cokernels is a
surjection Psi; its kernel size is a lattice index, and the product of the
pairwise numbers times |ker Psi| recovers the full value.  The failed
stronger guess, that products of leave-one-out subsystem values also divide,
is computed alongside so reports can exhibit counterexamples.  A
leave-one-out value is the index of the stacked lattice's projection that
drops one block, so all of them come from one Hermite basis of the stack,
reduced modulo the stack's order, through the dual of its cokernel
(exact_linalg._dropped_block_indices); no subsystem is stacked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cardinal import Cardinal, cardinal_product
from .errors import ShapeError
from .exact_linalg import (
    IntMatrix,
    SnfResult,
    _dropped_block_indices,
    _hermite_rows,
    cokernel_order,
    lattice_index,
    smith_normal_form,
)
from .reporting import NIELSEN_NOTE, ReidemeisterReport


class AbelianSystem:
    """An ordered tuple of k >= 2 homomorphisms Z^m -> Z^n, each held as an
    n x m IntMatrix (nested lists are converted), all of one shape.

    blocks holds the k - 1 differences D_j = matrix(phi_j) - matrix(phi_1),
    j = 2..k, built once here; every count of the system reads them."""

    __slots__ = ("homs", "blocks", "_smith")

    def __init__(self, homs):
        homs = tuple(h if isinstance(h, IntMatrix) else IntMatrix(h) for h in homs)
        if len(homs) < 2:
            raise ShapeError(f"a system needs at least two maps, got {len(homs)}")
        shape = (homs[0].rows, homs[0].cols)
        for i, h in enumerate(homs):
            if (h.rows, h.cols) != shape:
                raise ShapeError(
                    f"hom {i} has shape {h.rows}x{h.cols}, "
                    f"expected {shape[0]}x{shape[1]}"
                )
        self.homs = homs
        self.blocks = tuple(h - homs[0] for h in homs[1:])
        self._smith = None

    def _stacked_smith(self) -> SnfResult:
        """Smith form of the stacked difference, computed on first use and
        kept: reid_multi prints its divisors, and divisibility_report reduces
        the stack's Hermite basis modulo its order."""
        if self._smith is None:
            self._smith = smith_normal_form(stacked_difference(self))
        return self._smith

    @property
    def k(self) -> int:
        return len(self.homs)

    @property
    def target_rank(self) -> int:
        return self.homs[0].rows

    @property
    def source_rank(self) -> int:
        return self.homs[0].cols

    def __repr__(self):
        return f"AbelianSystem(k={self.k}, {self.target_rank}x{self.source_rank})"


def stacked_difference(system: AbelianSystem) -> IntMatrix:
    """The (k-1)n x m matrix whose rows are the system's blocks, in order."""
    return IntMatrix.stack_rows(system.blocks)


def reid_pair(phi, psi) -> Cardinal:
    """R(phi, psi) = order of coker(psi - phi), for two matrices (or nested
    lists); the subtraction raises ShapeError unless they share one shape."""
    phi, psi = (h if isinstance(h, IntMatrix) else IntMatrix(h) for h in (phi, psi))
    return cokernel_order(psi - phi)


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
    the system is finite; each block's columns, placed in its coordinates,
    generate its factor of Im(D_2) x ... x Im(D_k)."""
    n = system.target_rank
    blockwise = []
    for j, block in enumerate(system.blocks):
        for c in range(block.cols):
            vec = [0] * stacked.rows
            vec[j * n : (j + 1) * n] = block.column(c)
            blockwise.append(tuple(vec))
    sub = [stacked.column(j) for j in range(stacked.cols)]
    return lattice_index(sub, blockwise, width=stacked.rows)


def reid_multi(system: AbelianSystem) -> ReidemeisterReport:
    """Multi-map Reidemeister number with pairwise values and, when finite,
    the kernel size of the blockwise surjection."""
    if not isinstance(system, AbelianSystem):
        system = AbelianSystem(system)
    snf = system._stacked_smith()
    stacked = snf.m
    value = snf.cokernel_order()
    pairwise = tuple(cokernel_order(block) for block in system.blocks)
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
    `leave_one_out_divides` records what actually happened.  Each
    leave-one-out value is that subsystem's own count, read off the dual of
    one Hermite basis of the system's stack rather than from a stack of its
    own.
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
    computed here when not given; only the leave-one-out values are new.
    They are reduced modulo the order of the system's own stacked Smith form,
    kept from reid_multi, not modulo report.value."""
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
        # Drop one non-first map at a time, keeping phi_1 as the base point:
        # the subsystem's stack is the system's, less the dropped block, so
        # its value is the index of the stacked lattice's projection that
        # drops that block's coordinates.  All of them are read off one
        # Hermite basis of the stacked columns, reduced modulo the stack's
        # own order (that order times Z^R lies in the lattice).
        snf = system._stacked_smith()
        order, stacked = snf.cokernel_order().value, snf.m
        columns = map(stacked.column, range(stacked.cols))
        basis = _hermite_rows(columns, stacked.rows, order)
        subs = [
            Cardinal(i) for i in _dropped_block_indices(basis, len(system.blocks), order)
        ]
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
    "AbelianSystem",
    "DivisibilityReport",
    "divisibility_report",
    "ker_psi_order",
    "permute_system",
    "reid_multi",
    "reid_pair",
    "stacked_difference",
]
