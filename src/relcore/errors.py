"""Exception types shared across the library, and the one work budget."""

import functools
import operator
from contextlib import contextmanager
from contextvars import ContextVar


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


# The one work budget: the most steps one public call may charge, the calls
# it makes included.  Each construction's docstring says what it charges.
WORK_BUDGET = 2_000_000

# The steps charged so far by the outermost metered call; None outside one.
_spent: ContextVar = ContextVar("relcore_work_spent", default=None)


def metered(func):
    """func run under the open work meter, or under a fresh one when none is
    open, so that every call it makes charges the outermost metered call."""

    @functools.wraps(func)
    def call(*args, **kwargs):
        if _spent.get() is not None:
            return func(*args, **kwargs)
        token = _spent.set(0)
        try:
            return func(*args, **kwargs)
        finally:
            _spent.reset(token)

    return call


def headroom() -> int:
    """The steps that may still be charged before the budget is exceeded."""
    return WORK_BUDGET - (_spent.get() or 0)


def charge(steps: int, what: str) -> None:
    """Charge steps to the open meter, or check them alone when none is open;
    raise TooLarge once the total exceeds WORK_BUDGET."""
    spent = _spent.get()
    if spent is not None:
        steps += spent
        _spent.set(steps)
    if steps > WORK_BUDGET:
        raise TooLarge(f"work budget {WORK_BUDGET} exceeded by {what}")
