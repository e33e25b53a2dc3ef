"""The package's two exceptions, one per CLI exit code, with no common base.

:class:`InputDomainError`, a ``ValueError``, is every input problem, one
class for a bad argument, config, species file, flag or output path, whose
message names the key, flag or file.  :class:`PhysicsError` is every
computation the physics or the numbers do not define, one class whose
message names the condition.  The CLI maps the former to exit code 2 and
the latter to exit code 3.
"""


class InputDomainError(ValueError):
    """An argument is outside the documented input domain."""


class PhysicsError(Exception):
    """The requested computation is physically or numerically undefined."""
