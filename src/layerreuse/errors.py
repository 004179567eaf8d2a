"""Exception types shared across the package."""

__all__ = [
    "LayerReuseError",
    "ConfigurationError",
    "NumericInputError",
    "InvalidSelectionError",
    "InvalidInputError",
]


class LayerReuseError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(LayerReuseError):
    """Shapes, dimensions, or component wiring do not line up."""


class NumericInputError(LayerReuseError):
    """An input contains NaN or infinite entries."""


class InvalidSelectionError(LayerReuseError):
    """A token or block selection is empty or out of range for its cache."""


class InvalidInputError(LayerReuseError):
    """An argument value violates an operation's contract."""
