"""Exception types shared across the package, the byte counts in their messages, and the one
rule for integer arguments: sizes, dimensions and counts."""

import math
from numbers import Integral


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds a configured size cap."""


class DegenerateStateError(RuntimeError):
    """A normalized quantity was requested for a state with vanishing norm."""


def gib(nbytes):
    """nbytes / 2**30 as `.3g` text, for any integer byte count nbytes >= 0.

    A count past the float range is first divided by a power of ten, which the
    exponent then gets back.
    """
    shift = max(0, math.floor(nbytes.bit_length() * math.log10(2)) - 300)
    text = f"{nbytes // 10**shift / 2**30:.3g}"
    if not shift:
        return text
    mantissa, exponent = text.split("e")
    return f"{mantissa}e+{int(exponent) + shift}"


def is_integer(value):
    """Whether value is an integer: any `numbers.Integral`, numpy integers included, but `bool`."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def integer(value, name, minimum):
    """value as a Python int, whose arithmetic cannot overflow; ValueError naming the argument
    name unless `is_integer(value)` and value >= minimum."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return value
