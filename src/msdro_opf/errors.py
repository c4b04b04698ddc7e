"""Exception types shared across the package, and checks that raise them."""

from numbers import Integral, Real


class InputError(ValueError):
    """Invalid or inconsistent user-supplied data; the CLI exits 2 on it.
    A solve that cannot be used is ``lp.SolverError`` (exit 4)."""


def is_integer(value) -> bool:
    """Whether ``value`` is an integer (Python's or numpy's; not a bool)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def real(label: str, value) -> float:
    """``value`` as a float; an ``InputError`` naming ``label`` unless it is
    a real number (not a bool, nor text) that a float can hold."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InputError(f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{label} is an integer too large for a float") from None
