"""Exception types shared across the package."""

__all__ = ["CapacityError", "ConfigError", "DegenerateInstanceError", "EstimationError"]


class ConfigError(ValueError):
    """A configuration document or CLI argument failed validation."""


class CapacityError(RuntimeError):
    """An exhaustive enumeration would exceed its hard evaluation cap."""


class DegenerateInstanceError(ValueError):
    """Every candidate action is worthless (utility -inf everywhere)."""


class EstimationError(ValueError):
    """A success-probability estimate was requested from an empty window."""
