"""Exception hierarchy shared by every module.

Two top-level families matter to callers (and to the CLI exit codes):
``PreconditionError`` for violated contracts on inputs (exit code 2) and
``NoConvergenceError`` for search procedures that exhaust their budget
(exit code 3). Everything else is a plain ``DebiasLabError``.
"""

from __future__ import annotations


class DebiasLabError(Exception):
    """Base class for all errors raised by debias_lab."""


class PreconditionError(DebiasLabError):
    """An operation was called with inputs that violate its contract."""


class DimensionMismatchError(PreconditionError):
    """Arrays defined on incompatible grids or with wrong shapes."""


class InfeasibleRadiusError(PreconditionError):
    """p + t*h leaves the density cone; carries the largest feasible |t|."""

    def __init__(self, t: float, radius: float):
        self.t = t
        self.radius = radius
        super().__init__(
            f"perturbation scale |t|={abs(t):g} exceeds the feasible radius {radius:g}"
        )


class DegenerateSliceError(PreconditionError):
    """Conditioning on a slice with zero probability mass."""


class DegenerateNuisanceError(PreconditionError):
    """A nuisance formula hits a zero denominator or a boundary value."""

    def __init__(self, message: str, atom: int | None = None):
        self.atom = atom
        super().__init__(message if atom is None else f"{message} (atom {atom})")


class UncertaintyViolationError(PreconditionError):
    """Requested perturbation scales exceed what the construction allows."""


class SizeLimitError(PreconditionError):
    """An enumeration would exceed its declared size cap."""


class EmptyDataError(PreconditionError):
    """An estimator was handed an empty dataset or empty fold."""


class ClippedCorruptionError(PreconditionError):
    """Corruption magnitude incompatible with the field's range constraints."""

    def __init__(self, requested: float, achievable: float):
        self.requested = requested
        self.achievable = achievable
        super().__init__(
            f"corruption eps={requested:g} violates the field's range bounds; "
            f"largest achievable eps is {achievable:g}"
        )


class PairingError(PreconditionError):
    """A bump does not annihilate the direction it multiplies."""


class ConstructionPreconditionError(PreconditionError):
    """Anchor violates a hypothesis of a hard-instance construction."""


class NondegeneracyError(PreconditionError):
    """The conditional outcome space is too small to orthogonalize in."""


class SeparationError(PreconditionError):
    """Declared separation between hypotheses fails its check."""


class NoConvergenceError(DebiasLabError):
    """A zero-finding / refinement budget was exhausted."""

    def __init__(self, message: str, best_residual: float):
        self.best_residual = best_residual
        super().__init__(f"{message} (best residual {best_residual:.3e})")
