"""Torus geometry: lattice sizes, site indexing, and toric distances."""

from dataclasses import dataclass

from .errors import integer


@dataclass(frozen=True)
class LatticeSpec:
    """An l1 x l2 periodic lattice with bond dimension D and physical dimension d.

    Sites are (x, y) with x in [0, l1) (rows) and y in [0, l2) (columns); the
    successors of (x, y) are ((x+1) % l1, y) and (x, (y+1) % l2). Each of l1, l2, D and d
    is an integer of at least 2, stored as a Python int (see `errors.integer`).
    """

    l1: int
    l2: int
    D: int
    d: int

    def __post_init__(self):
        for name in ("l1", "l2", "D", "d"):
            object.__setattr__(self, name, integer(getattr(self, name), name, 2))

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
