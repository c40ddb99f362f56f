"""Exception hierarchy shared across the package, and the integer check that
config and spec parsing raise through it."""


class MixerError(Exception):
    """Base class for all mixerlab errors."""


class MalformedQueryError(MixerError):
    """A query string has the wrong width or contains non-binary characters."""


class InvalidArgumentError(MixerError):
    """An argument is outside the oracle's declared domain."""


class BudgetExhaustedError(MixerError):
    """A query session exceeded its configured query budget."""


class PromiseViolationError(MixerError):
    """An instance violates the promise required by a protocol."""


def check_int(value, what: str) -> int:
    """``value`` if it is an integer (a bool is not), else an
    :class:`InvalidArgumentError` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")
    return value
