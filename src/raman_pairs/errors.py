"""Exception hierarchy shared across the package.

Two families matter to callers: input problems, one class
(:class:`InputDomainError`) for a bad argument, config, species file, flag or
output path, whose message names the key, flag or file; and
physics/numerical-domain problems (:class:`PhysicsError` and subclasses).
The CLI maps the former to exit code 2 and the latter to exit code 3.
"""


class RamanPairsError(Exception):
    """Base class for all package-specific errors."""


class InputDomainError(RamanPairsError, ValueError):
    """An argument is outside the documented input domain."""


class PhysicsError(RamanPairsError):
    """The requested computation is physically or numerically undefined."""


class SingularDetuningError(PhysicsError):
    """A detuning is exactly zero; adiabatic elimination is invalid."""


class OffResonanceError(PhysicsError):
    """The far off-resonant condition |detuning| >> linewidth is violated."""


class EmptyStateError(PhysicsError):
    """All scattering amplitudes vanish for the requested configuration."""


class UndefinedOverlapError(PhysicsError):
    """Branch overlap requested while one branch has zero norm."""


class EmptyScanError(PhysicsError):
    """Every node of a scan is flagged; no maximum exists."""

