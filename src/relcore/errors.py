"""Exception types shared across the library."""

import operator
from contextlib import contextmanager


class RelcoreError(Exception):
    """Base class for every error raised by this library."""


class InvalidLabel(RelcoreError):
    pass


class ArityMismatch(RelcoreError):
    pass


class OrderNotAvailable(RelcoreError):
    pass


class InvalidElement(RelcoreError):
    pass


class SignatureMismatch(RelcoreError):
    pass


class InvalidDimension(RelcoreError):
    pass


class TooLarge(RelcoreError):
    pass


class TooSmall(RelcoreError):
    pass


class BaseMismatch(RelcoreError):
    pass


class Unsupported(RelcoreError):
    pass


class KernelViolation(RelcoreError):
    pass


class HomValidationError(RelcoreError):
    pass


class InvalidInput(RelcoreError):
    """Serialized input with a missing key or a value of the wrong kind."""


@contextmanager
def parsing(what: str):
    """Report the lookup and conversion errors of reading `what` as InvalidInput."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"malformed {what} ({type(exc).__name__}: {exc})") from exc


def json_int(value) -> int:
    """A JSON integer as an int; a float, string or boolean raises TypeError,
    which parsing reports as InvalidInput."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)
