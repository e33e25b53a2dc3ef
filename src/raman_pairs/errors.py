"""Exception hierarchy shared across the package: two roots, no common base.

:class:`InputDomainError`, a ``ValueError``, is every input problem, one
class for a bad argument, config, species file, flag or output path, whose
message names the key, flag or file.  :class:`PhysicsError` and its
subclasses are the physics/numerical-domain problems.  The CLI maps the
former to exit code 2 and the latter to exit code 3.
"""


class InputDomainError(ValueError):
    """An argument is outside the documented input domain."""


class PhysicsError(Exception):
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

