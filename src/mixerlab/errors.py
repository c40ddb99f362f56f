"""Exception hierarchy shared across the package, and the integer check that
config and spec parsing raise through it."""


class MixerError(Exception):
    """Base class for all mixerlab errors."""


class MalformedQueryError(MixerError):
    """A query string has the wrong width or contains non-binary characters."""


class InvalidArgumentError(MixerError):
    """An argument or config field is malformed or outside its declared
    domain; the CLI reports it as a config error."""


class BudgetExhaustedError(MixerError):
    """A query session exceeded its configured query budget."""


class PromiseViolationError(MixerError):
    """An instance violates the promise required by a protocol."""


def check_int(value, what: str, low=None, high=None) -> int:
    """``value`` if it is an integer (a bool is not), at least ``low`` and at
    most ``high`` where given, else an :class:`InvalidArgumentError` naming
    ``what``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise InvalidArgumentError(f"{what} must be between {low} and {high}, got {value}")
    if low is not None and value < low:
        raise InvalidArgumentError(f"{what} must be at least {low}, got {value}")
    return value
