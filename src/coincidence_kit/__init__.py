"""Exact Reidemeister coincidence counts for families of homomorphisms.

Given k >= 2 homomorphisms phi_1, ..., phi_k between two groups, the tuples
(alpha_2, ..., alpha_k) over the codomain carry the action

    alpha_i  ->  phi_1(z) * alpha_i * phi_i(z)^(-1)

and the number of orbits is the Reidemeister coincidence number of the
family.  This package computes it exactly for three kinds of groups:

- free abelian groups (integer matrices; Smith normal form),
- finite groups (explicit orbit counting on multiplication tables),
- torsion-free class-2 nilpotent groups (polycyclic exponent coordinates
  reduced through the central extension by the commutator subgroup).

Each engine returns a report with the value, the pairwise counts, and the
intermediate quantities that certify the result, plus divisibility helpers
for the product-versus-joint comparisons the reports are built on.
"""

from .abelian import (
    AbelianSystem,
    DivisibilityReport,
    divisibility_report,
    ker_psi_order,
    permute_system,
    reid_multi,
    reid_pair,
    stacked_difference,
)
from .cardinal import INFINITE, Cardinal, cardinal_product
from .errors import (
    CoincidenceError,
    ConsistencyError,
    ContainmentError,
    HomomorphismError,
    ProblemError,
    ShapeError,
    SizeCapError,
    StructureError,
)
from .exact_linalg import (
    IntMatrix,
    certify_smith,
    cokernel_order,
    determinant,
    enumerate_cokernel,
    hermite_basis,
    kernel_basis,
    lattice_coordinates,
    lattice_index,
    smith_normal_form,
    unimodular_inverse,
)
from .finite import (
    FiniteGroup,
    FiniteHom,
    TwistedPartition,
    binary_icosahedral_group,
    close_group,
    constant_hom,
    cyclic_group,
    direct_product,
    identity_hom,
    projection_hom,
    twisted_reidemeister,
)
from .nilpotent import (
    CentralExtensionData,
    PcGroup,
    PcHom,
    central_extension_data,
    central_reduction,
    combine_homs,
    delta_image_vectors,
    direct_power_pc,
    heisenberg_group,
    identity_pc_hom,
    reid_nilpotent,
    reid_nilpotent_multi,
)
from .reporting import (
    NIELSEN_NOTE,
    STATUS_OK,
    STATUS_UNSUPPORTED,
    ReidemeisterReport,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianSystem",
    "Cardinal",
    "CentralExtensionData",
    "CoincidenceError",
    "ConsistencyError",
    "ContainmentError",
    "DivisibilityReport",
    "FiniteGroup",
    "FiniteHom",
    "HomomorphismError",
    "INFINITE",
    "IntMatrix",
    "NIELSEN_NOTE",
    "PcGroup",
    "PcHom",
    "ProblemError",
    "ReidemeisterReport",
    "STATUS_OK",
    "STATUS_UNSUPPORTED",
    "ShapeError",
    "SizeCapError",
    "StructureError",
    "TwistedPartition",
    "binary_icosahedral_group",
    "cardinal_product",
    "central_extension_data",
    "central_reduction",
    "certify_smith",
    "close_group",
    "cokernel_order",
    "combine_homs",
    "constant_hom",
    "cyclic_group",
    "delta_image_vectors",
    "determinant",
    "direct_power_pc",
    "direct_product",
    "divisibility_report",
    "enumerate_cokernel",
    "heisenberg_group",
    "hermite_basis",
    "identity_hom",
    "identity_pc_hom",
    "ker_psi_order",
    "kernel_basis",
    "lattice_coordinates",
    "lattice_index",
    "permute_system",
    "projection_hom",
    "reid_multi",
    "reid_nilpotent",
    "reid_nilpotent_multi",
    "reid_pair",
    "smith_normal_form",
    "stacked_difference",
    "twisted_reidemeister",
    "unimodular_inverse",
    "__version__",
]
