"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class NonFiniteError(RuntimeError):
    """A loss or gradient went NaN/Inf; carries diagnostics in the message."""


class OverwriteRefusedError(RuntimeError):
    """Output files already exist and --force was not given."""
