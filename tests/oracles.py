"""Test-side oracles: independent reference implementations that only the tests use."""

from enum import Enum

import numpy as np


def by_area(counts):
    """Totals of a `PolyominoCounts` per area, summed over the upper perimeter."""
    out = {}
    for (m, _), c in counts.counts.items():
        out[m] = out.get(m, 0) + c
    return out


class ConfigClass(Enum):
    GROUND = "ground"
    VALID = "valid"
    ZERO = "zero"


def classify_config(config):
    """Ground (all down), zero (some up spin with both successors down), or valid."""
    c = np.asarray(config, dtype=bool)
    if not c.any():
        return ConfigClass.GROUND
    right = np.roll(c, -1, axis=1)
    down = np.roll(c, -1, axis=0)
    if np.any(c & ~right & ~down):
        return ConfigClass.ZERO
    return ConfigClass.VALID
