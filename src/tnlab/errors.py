"""Exception types shared across the package, and the byte counts in their messages."""

import math


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
