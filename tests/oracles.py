"""Test-side oracles: independent reference implementations that only the tests use."""

from enum import Enum

import numpy as np

from tnlab import network


def by_area(counts):
    """Totals of a `PolyominoCounts` per area, summed over the upper perimeter."""
    out = {}
    for (m, _), c in counts.counts.items():
        out[m] = out.get(m, 0) + c
    return out


def grid_stats(cells, frame=None):
    """(area, perimeter, upper perimeter) of a cell set, counted on a boolean grid.

    Cell (x, y) is grid[x, y]. The perimeter counts the neighbor pairs with one
    cell occupied and one empty, and the upper perimeter the pairs with (x, y)
    empty and (x + 1, y) occupied. On the plane the cells are padded into a grid
    with an empty border and each pair is taken once by slicing; on the L x L
    torus (frame = L) each cell is paired with its successor by np.roll.
    """
    xy = np.array(sorted(cells))
    if frame is None:
        xy = xy - xy.min(axis=0) + 1
        grid = np.zeros(xy.max(axis=0) + 2, dtype=bool)
        grid[xy[:, 0], xy[:, 1]] = True
        pairs = [(grid[:-1], grid[1:]), (grid[:, :-1], grid[:, 1:])]
    else:
        grid = np.zeros((frame, frame), dtype=bool)
        grid[xy[:, 0], xy[:, 1]] = True
        pairs = [(grid, np.roll(grid, -1, axis=0)), (grid, np.roll(grid, -1, axis=1))]
    perimeter = sum(int(np.count_nonzero(a != b)) for a, b in pairs)
    here, below = pairs[0]
    return int(grid.sum()), perimeter, int(np.count_nonzero(~here & below))


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


def normalized_local_gradient(ket, dket, site, op):
    """Gradient of N/z, N = <psi| op at site |psi> and z = <psi|psi>, by the quotient rule.

    (dN z - N dz) / z^2 from two public sweeps, with dN and dz twice the real
    part of the sweeps of `network.bra_ket` with and without the op (ket and
    dket are site tensors and their derivatives; op is Hermitian).
    """
    z, dz = network.bra_ket(ket, dket)
    n, dn = network.bra_ket(ket, dket, site, op)
    return 2.0 * (dn.real * z - n * dz.real) / z**2
