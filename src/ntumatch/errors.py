"""Exception types shared across the library."""


class InputError(ValueError):
    """A caller-supplied value violates a documented precondition."""


class MethodError(ValueError):
    """The requested engine does not apply to the instance."""


class ResourceLimitError(RuntimeError):
    """An explicit enumeration cap or budget was exceeded.

    Raised loudly instead of silently truncating: a partial enumeration
    would poison every result derived from it.
    """


class InvariantError(RuntimeError):
    """An internal structural guarantee failed; indicates a bug."""
