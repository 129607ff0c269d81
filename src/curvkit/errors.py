"""Exception types shared across the toolkit."""


class CurvkitError(Exception):
    """Base class for toolkit-specific failures."""


class DimensionError(CurvkitError, ValueError):
    """A shape, size, or count precondition was violated."""


class ActivationError(CurvkitError, ValueError):
    """The operation requires a different activation function."""


class CapacityError(CurvkitError, RuntimeError):
    """A dense computation would exceed the configured size cap."""


class SymmetryError(CurvkitError, ValueError):
    """A matrix expected to be symmetric is not."""


class DirectionError(CurvkitError, ValueError):
    """A zero-norm direction or gradient was supplied."""


class DivergenceError(CurvkitError, RuntimeError):
    """Training loss blew past the divergence guard."""


class ConfigError(CurvkitError, ValueError):
    """Invalid, inconsistent, or unknown configuration content."""
