"""Torus geometry: lattice sizes, site indexing, and toric distances."""

from dataclasses import dataclass
from numbers import Integral


@dataclass(frozen=True)
class LatticeSpec:
    """An l1 x l2 periodic lattice with bond dimension D and physical dimension d.

    Sites are (x, y) with x in [0, l1) (rows) and y in [0, l2) (columns); the
    successors of (x, y) are ((x+1) % l1, y) and (x, (y+1) % l2).
    """

    l1: int
    l2: int
    D: int
    d: int

    def __post_init__(self):
        for name in ("l1", "l2", "D", "d"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.l1 < 2 or self.l2 < 2:
            raise ValueError("lattice sides must both be >= 2")
        if self.D < 2 or self.d < 2:
            raise ValueError("bond and physical dimensions must be >= 2")

    @property
    def n_sites(self):
        return self.l1 * self.l2

    @property
    def unitary_dim(self):
        return self.D * self.D * self.d

    def sites(self):
        for x in range(self.l1):
            for y in range(self.l2):
                yield (x, y)

    def toric_manhattan(self, a, b):
        """Shortest |dx| + |dy| between sites, minimized over torus windings."""
        dx = abs(a[0] - b[0]) % self.l1
        dy = abs(a[1] - b[1]) % self.l2
        return min(dx, self.l1 - dx) + min(dy, self.l2 - dy)
