"""Exception types shared across the package."""


class MMFuseError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(MMFuseError):
    """Operand shapes are incompatible with the requested operation."""


class InputError(MMFuseError):
    """Caller-supplied data or configuration is invalid."""


class WidthMismatchError(DimensionError, InputError):
    """Records have other feature widths than the model reading them."""


class UsageError(MMFuseError):
    """An API was invoked in a way its contract forbids."""


class FileFormatError(MMFuseError):
    """A serialized artifact violates its binary format."""


class VariantMismatchError(MMFuseError):
    """A checkpoint holds a different model variant than requested."""


class NumericsError(MMFuseError):
    """A computation left the finite range (diverging loss, overflow)."""
