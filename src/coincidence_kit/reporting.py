"""Structured result of a Reidemeister computation, shared by the engines."""

from __future__ import annotations

from dataclasses import dataclass, field

from .cardinal import Cardinal
from .errors import ConsistencyError

STATUS_OK = "ok"
STATUS_UNSUPPORTED = "unsupported-reduction"

# Torus and nilmanifold targets obey a dichotomy: the Nielsen coincidence
# number is either zero or equal to the Reidemeister number.  Reports state
# the fact; deciding between the branches needs geometric input this tool
# does not have.
NIELSEN_NOTE = (
    "the Nielsen number is either 0 or equal to this value; "
    "deciding which requires geometric data beyond this computation"
)


@dataclass
class ReidemeisterReport:
    """value is None exactly under status "unsupported-reduction", where no
    number can be justified, so a caller reads the value alone; a report
    that breaks this either way raises ConsistencyError.  pairwise holds R(phi_1, phi_j) for
    j >= 2 when the computation is a multi-map one."""

    value: Cardinal | None
    pairwise: tuple[Cardinal, ...] = ()
    ker_psi_order: Cardinal | None = None
    intermediates: dict = field(default_factory=dict)
    trace: tuple[str, ...] = ()
    status: str = STATUS_OK

    def __post_init__(self):
        if (self.value is None) != (self.status == STATUS_UNSUPPORTED):
            raise ConsistencyError(
                f"a report has no value exactly under status {STATUS_UNSUPPORTED!r}; "
                f"got status {self.status!r} with value {self.value}"
            )
        if (
            self.value is not None
            and self.value.is_finite
            and any(not p.is_finite for p in self.pairwise)
        ):
            # A finite class count surjects onto every pairwise class set,
            # so an infinite pairwise value alongside a finite total is a bug.
            raise ConsistencyError("finite value with an infinite pairwise entry")
