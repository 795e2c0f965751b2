"""Test-side oracles: independent reference implementations that only the tests use."""

import string
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from tnlab import network, tensors


def sample_unitaries(dim, count, rng):
    """`count` independent Haar unitaries, shape (count, dim, dim), through the library's
    transform; draws every real part, then every imaginary part."""
    re, im = rng.standard_normal((2, count, dim, dim))
    return tensors.haar_unitary(re, im)


def sample_unitary(dim, rng):
    """One dim x dim Haar unitary, drawn as `sample_unitaries(dim, 1, rng)`."""
    return sample_unitaries(dim, 1, rng)[0]


def sample_hermitian(dim, rng):
    """One Gaussian-ensemble Hermitian matrix through the library's transform; draws the real
    part, then the imaginary part."""
    re, im = rng.standard_normal((2, dim, dim))
    return tensors.random_hermitian(re, im)


def dense_amplitudes(ket):
    """Dense amplitudes of the (l1, l2, a, b, g, l, j) site tensors ket: one einsum over every bond.

    One leg of extent d per site, in row-major (x, y) order. The sites are
    contracted in that order, each into the running product, which the path
    keeps as the last operand: with optimize="greedy" the einsum takes about
    2 s at 3x2 with D = 3, and more than two minutes at 3x3.
    """
    l1, l2 = ket.shape[:2]
    sites = [(x, y) for x in range(l1) for y in range(l2)]
    letters = iter(string.ascii_letters)
    down = {s: next(letters) for s in sites}  # bond (x, y) -> (x + 1, y)
    right = {s: next(letters) for s in sites}  # bond (x, y) -> (x, y + 1)
    phys = {s: next(letters) for s in sites}
    terms = [down[(x - 1) % l1, y] + right[x, (y - 1) % l2] + down[x, y] + right[x, y] + phys[x, y]
             for x, y in sites]
    expr = ",".join(terms) + "->" + "".join(phys[s] for s in sites)
    path = ["einsum_path", (0, 1), *((0, k) for k in range(len(sites) - 2, 0, -1))]
    return np.einsum(expr, *(ket[s] for s in sites), optimize=path)


def _bits(s):
    """Indices of the set bits of the packed set s, in increasing order."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


def _unpack(s, width):
    """The plane cells (-a, -b) of the packed bits a * width + b."""
    return frozenset((-(i // width), -(i % width)) for i in _bits(s))


def _directed_levels(m_max):
    """The packed directed polyominoes of each area 1..m_max, and their row width.

    Grows by attaching one cell at a time: any absent cell whose right or down
    neighbor is present may be added, and every directed polyomino of area
    m + 1 arises this way from one of area m (remove a cell of minimal x + y).
    Each area is deduplicated in a set of ints.
    """
    width = m_max + 1  # a directed cell (-a, -b) of area <= m_max has b < m_max
    levels = [{1}]
    while len(levels) < m_max:
        levels.append({s | 1 << c for s in levels[-1]
                       for c in _bits(((s << width) | (s << 1)) & ~s)})
    return levels, width


def generate_directed(m_max):
    """All directed plane polyominoes rooted at (0, 0) with area <= m_max, as (area, cells)."""
    levels, width = _directed_levels(m_max)
    return [(m, _unpack(s, width)) for m, level in enumerate(levels, 1) for s in level]


def grown_counts(m_max):
    r"""D_{m,n} for m <= m_max by growth, the upper perimeter |S \ (S + e_x)| of each packed S."""
    levels, width = _directed_levels(m_max)
    return dict(Counter((m, (s & ~(s >> width)).bit_count())
                        for m, level in enumerate(levels, 1) for s in level))


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


def walk_pieces(config):
    """The plane pieces of a toric polyomino by one walk per cell: {root: frozenset of cells}.

    Cell (x, y) is bit (and root) x L + y. Every occupied cell has one out-edge,
    to (x+1, y) if occupied, else to (x, y+1), so the walk from any cell ends on
    the cycle of its component. A walk that closes a cycle not seen before roots
    that component at its smallest cycle vertex. Going back along the walk, every
    cell that reaches its root by a steps in x and b steps in y maps to plane cell
    (-a, -b); the pieces are packed with rows L^2 + 1 bits apart while they grow.
    """
    c = np.asarray(config, dtype=bool)
    L = len(c)
    s = int.from_bytes(np.packbits(c, axis=None, bitorder="little").tobytes(), "little")
    n, width = L * L, L * L + 1
    ahead_x = np.roll(c, -1, axis=0).reshape(-1)  # (x + 1, y) occupied, by bit
    ahead_y = np.roll(c, -1, axis=1).reshape(-1)  # (x, y + 1) occupied, by bit
    dead = np.flatnonzero(c.reshape(-1) & ~ahead_x & ~ahead_y)
    if dead.size:
        x, y = divmod(int(dead[0]), L)
        raise ValueError(f"cell ({x}, {y}) has no occupied successor; not a toric polyomino")
    # cell -> (successor, packed plane step): a step in x is a row, one in y a bit
    edges = {v: ((v + L) % n, width) if ahead_x[v] else (v - v % L + (v + 1) % L, 1)
             for v in _bits(s)}
    moves = {}  # cell -> (root, packed plane cell)
    for start in edges:
        path, v = [], start
        while v not in moves and v not in path:
            path.append(v)
            v = edges[v][0]
        if v not in moves:  # the walk closed a cycle not seen before
            root = min(path[path.index(v):])
            moves[root] = (root, 0)
            # cycle cells after the root are reached by later walks
            del path[path.index(root):]
        for u in reversed(path):
            w, step = edges[u]
            moves[u] = (moves[w][0], moves[w][1] + step)
    pieces = {}
    for root, cell in moves.values():
        if pieces.get(root, 0) >> cell & 1:
            raise RuntimeError("backtrace produced colliding plane cells")
        pieces[root] = pieces.get(root, 0) | 1 << cell
    return {root: _unpack(p, width) for root, p in pieces.items()}


def walk_problems(config):
    """The violated decomposition invariants of `walk_pieces`, with the library's messages."""
    c = np.asarray(config, dtype=bool)
    L = len(c)
    m, _, n = grid_stats([tuple(xy) for xy in np.argwhere(c)], L)
    piece_stats = [grid_stats(cells) for cells in walk_pieces(c).values()]
    k = len(piece_stats)
    total_area = sum(st[0] for st in piece_stats)
    total_upper = sum(st[2] for st in piece_stats)
    problems = []
    if not (k <= m / L <= L):
        problems.append(f"k={k} outside [.., m/L={m / L}, L={L}]")
    if any(st[0] < L for st in piece_stats):
        problems.append(f"piece areas {[st[0] for st in piece_stats]} below L")
    if total_area != m:
        problems.append(f"area sum {total_area} != {m}")
    if not (n <= total_upper <= n + k):
        problems.append(f"upper perimeter sum {total_upper} outside [{n}, {n + k}]")
    return problems


def normalized_local_gradient(ket, dket, site, op):
    """Gradient of N/z, N = <psi| op at site |psi> and z = <psi|psi>, by the quotient rule.

    (dN z - N dz) / z^2 from two public sweeps, with dN and dz twice the real
    part of the sweeps of `network.bra_ket` with and without the op (ket and
    dket are site tensors and their derivatives; op is Hermitian).
    """
    z, dz = network.bra_ket(ket, dket)
    n, dn = network.bra_ket(ket, dket, site, op)
    return 2.0 * (dn.real * z - n * dz.real) / z**2


# The closed forms of the two weight tables, one formula per entry: the oracle of the
# Weingarten sum that builds them in `tnlab.spinmodel`.

def closed_norm_weights(D, d):
    """Single-site weights of the norm second moment (field case): the closed-form table."""
    if D < 2 or d < 2:
        raise ValueError("D and d must be >= 2")
    den = D**4 * d**2 - 1
    v = np.zeros((2, 2, 2))
    v[0, 0, 0] = 1.0
    v[0, 0, 1] = v[0, 1, 0] = (D**3 * d**2 - D) / den
    v[0, 1, 1] = (D**2 * d**2 - D**2) / den
    v[1, 0, 0] = 0.0
    v[1, 0, 1] = v[1, 1, 0] = (D**3 * d - D * d) / den
    v[1, 1, 1] = (D**4 * d - d) / den
    return v


def closed_global_loss_weights(D, d):
    """Single-site weights of the global-loss second moment (no field): the closed-form table."""
    if D < 2 or d < 2:
        raise ValueError("D and d must be >= 2")
    den = (D**2 * d) ** 2 - 1
    v = np.zeros((2, 2, 2))
    v[0, 0, 0] = v[1, 1, 1] = (D**4 - 1.0 / d) / den
    v[0, 0, 1] = v[0, 1, 0] = v[1, 0, 1] = v[1, 1, 0] = (D**3 - D / d) / den
    v[1, 0, 0] = v[0, 1, 1] = (D**2 - D**2 / d) / den
    return v


# The closed forms of the bounds' weights, one formula each: the oracle of the table entries
# that `tnlab.bounds` reads.

def closed_global_variance_ratio(D, d):
    """Per-site decay ratio 2 (D^4 - 1/d) / ((D^2 d)^2 - 1) of the global-loss bound."""
    return 2.0 * (D**4 - 1.0 / d) / ((D**2 * d) ** 2 - 1.0)


def closed_onsite_floor_prefactors(D, d, tr_o2):
    """(D^2 (1 - 1/d) / ((D^2 d)^2 - 1), D^2 tr O^2 / ((D^2 d)^2 - 1)): the two on-site floor
    prefactors, for a traceless observable O."""
    den = (D**2 * d) ** 2 - 1.0
    return (D**2 * (1.0 - 1.0 / d) / den,
            D**2 * tr_o2 / den)


# The Boltzmann form of the two-layer Ising model. Spin-to-sign convention: down -> +1,
# up -> -1. The couplings enter the per-site energy as H_site = -(J1*s1*(s3+s4) + J2*s1*s2
# + hz*s1)/2: the printed form of the Hamiltonian in our source material carries a sign
# typo (no +-1 convention reproduces the tabulated weights), so the signs here are fixed by
# demanding consistency with the closed-form tables above, which are themselves verified
# against Monte-Carlo Haar integration.

_SIGN = (1, -1)  # index 0 = down, 1 = up


@dataclass(frozen=True)
class IsingCouplings:
    """Couplings of the two-layer model at unitary dimension N = D^2 d.

    j1 couples a bottom spin to the upper spins of its two successor sites,
    j2 couples the two layers on one site, hz is the external field acting on
    the bottom layer. The imaginary part pi of j2 realizes the sign of the
    cross-pairing Weingarten weight.
    """

    D: int
    d: int

    def __post_init__(self):
        if self.D < 2 or self.d < 2:
            raise ValueError("D and d must be >= 2")

    @property
    def N(self):
        return self.D * self.D * self.d

    @property
    def j1(self):
        return complex(np.log(self.D))

    @property
    def j2(self):
        return 1j * np.pi + np.log(self.N)

    @property
    def hz(self):
        return float(np.log(self.d))

    def site_prefactor(self, field):
        """Per-site constant multiplying the bottom-layer Boltzmann sum.

        Derived from the two-fold Weingarten identity: -i N/(N^2-1) when the
        physical leg carries the field, -i D^3/(sqrt(N) (N^2-1)) without it.
        """
        n = self.N
        if field:
            return -1j * n / (n**2 - 1)
        return -1j * self.D**3 / (np.sqrt(n) * (n**2 - 1))


def two_layer_site_weight(couplings, s1, s2, s3, s4, field=True):
    """Boltzmann factor exp(-H_site) for one site, spins given as +-1 (down = +1).

    s1 is the bottom-layer spin, s2 the same-site upper spin, s3/s4 the upper
    spins of the right/down successor sites.
    """
    h = couplings.j1 * s1 * (s3 + s4) + couplings.j2 * s1 * s2
    if field:
        h = h + couplings.hz * s1
    return np.exp(0.5 * h)


def _boltzmann_weights(couplings, field):
    """Site Boltzmann factors exp(-H_site) indexed [s1, s2, s3, s4], 0 = down."""
    s1, s2, s3, s4 = np.ix_(_SIGN, _SIGN, _SIGN, _SIGN)
    return two_layer_site_weight(couplings, s1, s2, s3, s4, field)


def table_from_boltzmann(D, d, field):
    """Rebuild a (2, 2, 2) weight table by summing the bottom layer of the Boltzmann form.

    field=True gives the norm table, field=False the global-loss one. Independent of
    the closed forms; equality of the two is the consistency check tying the
    Hamiltonian picture to the tabulated weights.
    """
    couplings = IsingCouplings(D, d)
    w = couplings.site_prefactor(field) * _boltzmann_weights(couplings, field).sum(axis=0)
    if np.abs(w.imag).max() >= 1e-12:
        raise RuntimeError(f"Boltzmann site weights {w.tolist()} are not real")
    return w.real.copy()


def exact_partition_function_two_layer(l1, l2, D, d, field=True):
    """Partition function summed over BOTH spin layers in the Boltzmann form.

    Every one of the 4**(l1*l2) configurations is enumerated at once: bit k of a
    code is the bottom spin of site k (row-major) and bit n + k its upper spin,
    for n = l1*l2 sites. Complex weights are accumulated and the imaginary part
    of the result must vanish; used as a cross-check of the single-layer table
    path at small sizes.
    """
    n = l1 * l2
    couplings = IsingCouplings(D, d)
    w = (couplings.site_prefactor(field) * _boltzmann_weights(couplings, field)).reshape(-1)
    x, y = np.divmod(np.arange(n), l2)
    right, down = x * l2 + (y + 1) % l2, (x + 1) % l1 * l2 + y
    bits = (np.arange(1 << 2 * n)[:, None] >> np.arange(2 * n)) & 1
    bottom, upper = bits[:, :n], bits[:, n:]
    z = np.sum(np.prod(w[8 * bottom + 4 * upper + 2 * upper[:, right] + upper[:, down]], axis=1))
    if abs(z.imag) >= 1e-10:
        raise RuntimeError(f"two-layer partition function {z} is not real")
    return float(z.real)
