"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(ValueError):
    """A configuration value is outside its legal range."""


class ValidationError(ValueError):
    """An input fails a structural precondition (e.g. not a permutation)."""


class ContractError(RuntimeError):
    """An operation was invoked outside its supported contract."""


class NoShadowRegion(Exception):
    """A patch grid contains no shadow-labeled patch."""
