"""Error taxonomy shared across the package."""


class SelfRightError(Exception):
    """Base class for all package errors."""


class GeometryError(SelfRightError):
    """Degenerate or impossible geometry (non-positive body radius)."""


class DimensionError(SelfRightError):
    """Array shape, joint count, or module count mismatch."""


class IntegrationError(SelfRightError):
    """A roll lane turned non-finite or rolled a whole turn in one interval."""


class ContactError(SelfRightError):
    """Ground-contact resolution produced an empty or invalid contact set."""


class ConfigError(SelfRightError):
    """Malformed configuration: unknown keys, bad types, out-of-range values."""
