"""Exception types shared across the package."""

__all__ = [
    "SchubertError",
    "NonFiniteTypeError",
    "UnknownTypeError",
    "GroupTooLargeError",
    "MixedRootSystemsError",
    "NotDivisibleError",
    "NonzeroResidualError",
    "EngineMismatchError",
    "DimensionMismatchError",
]


class SchubertError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteTypeError(SchubertError):
    """Root closure exceeded the bound: the Cartan data is not of finite type."""


class UnknownTypeError(SchubertError):
    """Unrecognized named root-system label."""


class GroupTooLargeError(SchubertError):
    """Weyl group enumeration exceeded the configured bound."""


class MixedRootSystemsError(SchubertError):
    """Operands belong to different root systems."""


class NotDivisibleError(SchubertError):
    """An exact polynomial division failed.

    During class arithmetic this signals a violated GKM condition upstream
    (or a corrupted input); it aborts the computation instead of being
    swallowed.
    """


class NonzeroResidualError(SchubertError):
    """A memoized Schubert class is corrupt.

    Schubert-basis elimination raises it when ``S_w`` is nonzero below
    ``w``'s own index or its value at ``w`` is not the bottom restriction.
    """


class EngineMismatchError(SchubertError):
    """The recursive engine and the expansion oracle disagree on a coefficient."""

    def __init__(self, w, v, u, recurrence_value, oracle_value):
        self.w = w
        self.v = v
        self.u = u
        self.recurrence_value = recurrence_value
        self.oracle_value = oracle_value
        super().__init__(
            f"engines disagree at ({w!r}, {v!r}, {u!r}): "
            f"recurrence={recurrence_value!r}, oracle={oracle_value!r}"
        )


class DimensionMismatchError(SchubertError):
    """Lengths do not sum to the number of positive roots."""
