r"""Directed plane polyominoes, toric polyominoes, and the decomposition between them.

A directed plane polyomino rooted at (0, 0) is a finite cell set containing the root in
which every other cell (x, y) has (x+1, y) or (x, y+1) in the set; all cells therefore lie
in the quadrant {(-a, -b): a, b >= 0}. The statistics of a cell set S are set differences
of S and its one-step shifts S + e: area m = |S|, perimeter p = sum over the four unit
steps e of |S \ (S + e)|, and upper perimeter n = |S \ (S + e_x)|, the occupied cells
(x, y) whose (x - 1, y) is empty. On the L x L torus, S + e is taken mod L, by np.roll.

The counts D_{m,n} of directed polyominoes by area and upper perimeter come from
two independent routes, both capped at area SERIES_BUDGET: the power series of
the closed form, and a transfer over the anti-diagonal layers a + b = k that
counts the polyominoes without generating one.

Toric polyominoes are the nonzero-weight upper-layer spin configurations of the
two-layer model: boolean (L, L) grids, cell (x, y) at grid[x, y], in which every occupied
cell has an occupied successor (x+1, y) or (x, y+1) (modulo L). A stack of them is split
into rooted plane polyominoes by arrays over the cells i L^2 + v of the stack, v = x L + y.
A cell's successor is (x+1, y) if occupied, else (x, y+1); an empty cell is its own. Pointer
doubling (ceil(log2 L^2) flat np.take gathers) gives each cell the smallest vertex on its
component's cycle, its root. A second doubling, with the roots absorbing, sums the steps:
a cell a steps in x and b in y from its root is plane cell (-a, -b), at root - (a, b) mod L.
Piece stats are bincounts by root, with no sort: a cell is in the upper perimeter unless its
x-predecessor is (-a - 1, -b) of its piece. Frozensets of (x, y) appear only at the public API.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ResourceLimitError, integer, is_integer

SERIES_BUDGET = 24
TORIC_BUDGET = 4
_BLOCK = 1024  # grids per pass of verify_decomposition; one pass over L = 4 adds 10% to peak RSS


class PolyominoStats(NamedTuple):
    area: int
    perimeter: int
    upper_perimeter: int


def stats(cells):
    """(area, perimeter, upper perimeter) of a plane cell set, from the defining set formulas."""
    if not cells:
        raise ValueError("empty cell set")
    s = set()
    for cell in cells:
        try:
            x, y = cell
        except (TypeError, ValueError):  # not iterable, or not of length 2
            x = y = None
        if not (is_integer(x) and is_integer(y)):
            raise ValueError(f"a plane cell is a pair of integers, got {cell!r}")
        s.add((int(x), int(y)))  # Python ints: a step never wraps
    # exposed[0] is |S \ (S + e_x)|, the upper perimeter
    exposed = [len(s - {(x + dx, y + dy) for x, y in s})
               for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    return PolyominoStats(len(s), sum(exposed), exposed[0])


@dataclass(frozen=True)
class PolyominoCounts:
    """Counts indexed by (area, upper perimeter)."""

    counts: dict


def check_area(m_max):
    """Raise as `enumerate_directed` and `series_coefficients` do, before any count, for the
    maximum area m_max; else return it as a Python int."""
    m_max = integer(m_max, "the maximum area", 1)
    if m_max > SERIES_BUDGET:
        raise ResourceLimitError(f"directed-polyomino counts capped at area {SERIES_BUDGET}")
    return m_max


def enumerate_directed(m_max):
    """Exact D_{m,n} counts for m <= m_max by a transfer over anti-diagonal layers.

    Layer k holds the cells (-a, -b) with a + b = k, as a mask over a. A cell of
    layer k + 1 needs a cell at a - 1 or a in layer k, so mask T can follow S
    when T is a submask of S | S << 1. Cell a of S is in the upper perimeter
    when a + 1 is not in T (every cell of the last layer is). Each (mask, area)
    keeps its counts per upper perimeter so far (Dhar, PRL 49, 959, 1982).
    Raises ValueError below area 1 and ResourceLimitError above SERIES_BUDGET.
    """
    m_max = check_area(m_max)
    counts = Counter()
    layer = {(1, 1): {0: 1}}
    while layer:
        following = defaultdict(Counter)
        for (s, area), by_n in layer.items():
            for n, c in by_n.items():
                counts[area, n + s.bit_count()] += c
            reach = t = s | s << 1
            while t:  # every nonempty submask of reach
                if area + t.bit_count() <= m_max:
                    row = following[t, area + t.bit_count()]
                    exposed = (s & ~(t >> 1)).bit_count()
                    for n, c in by_n.items():
                        row[n + exposed] += c
                t = (t - 1) & reach
        layer = following
    return PolyominoCounts(dict(counts))


def directed_gf(q, p):
    """Closed form of sum_{m,n} D_{m,n} q^m p^n.

    Defined where the denominator 1 - q(2+p) + q^2(1-p) and the radicand are
    positive; outside that region raises ValueError.
    """
    den = 1.0 - q * (2.0 + p) + q * q * (1.0 - p)
    if den <= 0.0:
        raise ValueError(f"denominator {den} not positive at q={q}, p={p}")
    rad = (1.0 + q) * (1.0 + q - q * p) / den
    if rad <= 0.0:
        raise ValueError(f"radicand {rad} not positive at q={q}, p={p}")
    # p/2 (sqrt(rad) - 1) with rad - 1 = 4q/den, rationalized so that small q keeps its digits
    return 2.0 * p * q / (den * (np.sqrt(rad) + 1.0))


def series_coefficients(m_max):
    """Exact integer D_{m,n} from the power series of the closed form.

    With A = (1+q)(1+q-qp) and B = 1 - q(2+p) + q^2(1-p), the closed form is
    G = p/2 (sqrt(A/B) - 1). Since A - B = 4q, H = G/p solves H(1 + H) = q/B,
    the algebraic equation of directed site animals (Dhar, PRL 49, 959, 1982).
    With 1/B = sum_k r_k q^k, each q-coefficient h_k = r_(k-1) - sum_(0<j<k)
    h_j h_(k-j) is a polynomial in p with Python-integer coefficients, and
    D_{m,n} is its p^(n-1) coefficient at k = m. Raises ValueError below area 1
    and ResourceLimitError above SERIES_BUDGET.
    """
    m_max = check_area(m_max)
    width = m_max + 1  # h_k and r_(k-1) have p-degree k - 1

    def poly(*coeffs):
        out = np.zeros(width, dtype=object)
        out[:len(coeffs)] = coeffs
        return out

    def mul(a, b):
        return np.convolve(a, b)[:width]

    r = [poly(1), poly(2, 1)]  # r_k = (2 + p) r_(k-1) - (1 - p) r_(k-2), from B (1/B) = 1
    for k in range(2, m_max):
        r.append(mul(poly(2, 1), r[k - 1]) - mul(poly(1, -1), r[k - 2]))
    h = [poly()]
    for k in range(1, m_max + 1):
        h.append(r[k - 1] - sum(mul(h[j], h[k - j]) for j in range(1, k)))
    return PolyominoCounts({(m, n): int(c) for m in range(1, m_max + 1)
                            for n, c in enumerate(h[m], start=1) if c})


def enumerate_toric(L):
    """All nonzero-weight upper-layer configurations of the L x L torus, as a bool (n, L, L) array.

    Raises ValueError unless L is an integer of at least 1, ResourceLimitError above TORIC_BUDGET.
    """
    L = integer(L, "torus side", 1)
    if L > TORIC_BUDGET:
        raise ResourceLimitError(f"toric enumeration capped at L = {TORIC_BUDGET}")
    cells = L * L
    full = (1 << cells) - 1
    last = full // ((1 << L) - 1) << (L - 1)  # bit y = L - 1 of every row
    # cell (x, y) at bit x L + y; TORIC_BUDGET keeps every code within 16 bits
    codes = np.arange(1, 1 << cells, dtype=np.uint16)
    ahead_x = (codes >> L) | ((codes << (cells - L)) & full)
    ahead_y = ((codes >> 1) & (full ^ last)) | ((codes << (L - 1)) & last)
    codes = codes[(codes & ~ahead_x & ~ahead_y) == 0]
    return (codes[:, None] >> np.arange(cells, dtype=np.uint16) & 1).astype(bool).reshape(-1, L, L)


def _torus_grid(config):
    """The boolean L x L grid of config; ValueError unless it is a nonempty square grid of 0/1."""
    c = np.asarray(config)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.size == 0:
        raise ValueError(f"a toric configuration is a nonempty square grid, got shape {c.shape}")
    bad = (c != 0) & (c != 1)
    if bad.any():
        raise ValueError(f"a toric configuration holds 0/1 or False/True, got {c[bad].tolist()}")
    return c.astype(bool)


def _decompose(grids):
    """The (n, L^2) roots and packed displacements a (L^2 + 1) + b of n stacked toric grids."""
    n, L = grids.shape[:2]
    cells = L * L
    itype = np.int32 if n * (cells + 1) ** 3 < 2**31 else np.int64  # holds every index and key
    occupied = grids.reshape(n, cells)
    step_x = occupied & np.roll(occupied, -L, axis=1)
    step_y = occupied ^ step_x
    v, here = np.arange(cells, dtype=itype), np.arange(n * cells, dtype=itype).reshape(n, cells)
    succ = here + step_x * ((v + L) % cells - v) + step_y * ((v + 1) % L - v % L)
    dead = step_y & ~occupied.take(succ)
    if dead.any():
        x, y = divmod(int(np.argwhere(dead)[0, 1]), L)
        raise ValueError(f"cell ({x}, {y}) has no occupied successor; not a toric polyomino")
    low, jump, steps = here, succ, (cells - 1).bit_length()
    for _ in range(steps):  # low: the smallest of the first 2^k cells of each walk
        low = np.minimum(low, low.take(jump))
        jump = jump.take(jump)
    root = low.take(jump)
    jump = np.where(root == here, here, succ)
    shift = (step_x * itype(cells) + occupied) * (root != here)
    for _ in range(steps):
        shift = shift + shift.take(jump)
        jump = jump.take(jump)
    return root - (here - v), shift


def _piece_stats(grids):
    """Roots, shifts a (L^2 + 1) + b, and (n, L^2) piece areas and upper perimeters by root."""
    n, L = grids.shape[:2]
    cells, width = L * L, L * L + 1
    if width**3 >= 2**63:  # the keys root W^2 + shift, below W^3, must fit int64
        raise ResourceLimitError(f"plane-cell keys of toric grids of side {L} overflow int64")
    root, shift = _decompose(grids)
    xs, ys = divmod(np.arange(cells, dtype=root.dtype), L)
    a = shift // width
    tx, ty = a + xs - xs.take(root), shift - a * width + ys - ys.take(root)
    if np.any(tx // L * L != tx) or np.any(ty // L * L != ty):  # L | t, without a slow %
        raise RuntimeError("a cell is not root - (a, b) mod L, so plane cells may collide")
    occupied = grids.reshape(n, cells)
    key = root * width**2 + shift
    exposed = occupied & ~(np.roll(occupied, L, 1) & (np.roll(key, L, 1) == key + width))
    piece = root + np.arange(0, n * cells, cells, dtype=root.dtype)[:, None]
    area, upper = (np.bincount(piece[mask], minlength=n * cells).reshape(n, cells)
                   for mask in (occupied, exposed))
    return root, shift, area, upper


def toric_to_plane(config):
    """The rooted plane pieces of a toric polyomino, as frozensets of cells."""
    grid = _torus_grid(config)
    root, shift, *_ = _piece_stats(grid[None])
    pieces, width, cells = {}, grid.size + 1, np.flatnonzero(grid)
    for r, s in zip(root[0, cells].tolist(), shift[0, cells].tolist()):
        pieces.setdefault(r, set()).add((-(s // width), -(s % width)))
    return [frozenset(p) for p in pieces.values()]


def _stats(grids):
    r"""Area m, sum_e |S \ (S + e)| and |S \ (S + e_x)| of each of stacked boolean torus grids."""
    m = grids.sum(axis=(-2, -1))
    if not m.all():
        raise ValueError("empty cell set")
    # |S \ (S - e)| = |S \ (S + e)|: each run of cells along e has one first and one last cell
    upper, side = ((grids & ~np.roll(grids, 1, axis)).sum(axis=(-2, -1)) for axis in (-2, -1))
    return m, 2 * (upper + side), upper


def toric_stats(config):
    return PolyominoStats(*map(int, _stats(_torus_grid(config))))


@dataclass(frozen=True)
class DecompositionReport:
    n_valid: int
    n_violations: int
    violations: tuple

    @property
    def ok(self):
        return self.n_violations == 0


def decomposition_problems(config):
    """Violated decomposition invariants of one toric polyomino, as messages.

    With toric stats (m, n) and k plane pieces with stats (m_i, n_i) the
    invariants are: k <= m/L <= L, every m_i >= L, sum m_i = m, and
    n <= sum n_i <= n + k. An empty list means all hold.
    """
    return dict(_violations(_torus_grid(config)[None])).get(0, [])


def _violations(grids):
    """Yield (i, messages) for each grid i of stacked toric polyominoes breaking an invariant."""
    L = grids.shape[1]
    m, _, upper = _stats(grids)
    root, _, area, piece_upper = _piece_stats(grids)
    piece = area > 0
    k, total_area, total_upper = piece.sum(1), area.sum(1), piece_upper.sum(1)
    broken = [(k > m / L) | (m / L > L), (piece & (area < L)).any(1), total_area != m,
              (total_upper < upper) | (total_upper > upper + k)]
    for i in np.flatnonzero(np.any(broken, axis=0)).tolist():
        first_seen = list(dict.fromkeys(root[i, grids[i].ravel()].tolist()))
        texts = [f"k={k[i]} outside [.., m/L={m[i] / L}, L={L}]",
                 f"piece areas {area[i, first_seen].tolist()} below L",
                 f"area sum {total_area[i]} != {m[i]}",
                 f"upper perimeter sum {total_upper[i]} outside [{upper[i]}, {upper[i] + k[i]}]"]
        yield i, [text for text, bad in zip(texts, broken) if bad[i]]


def verify_decomposition(L):
    """Exhaustively check `decomposition_problems` on every configuration at size L, in blocks."""
    grids = enumerate_toric(L)
    blocks = (grids[j:j + _BLOCK] for j in range(0, len(grids), _BLOCK))
    violations = tuple((ascii_art(block[i]), "; ".join(problems))
                       for block in blocks for i, problems in _violations(block))
    return DecompositionReport(len(grids), len(violations), violations)


def ascii_art(grid):
    """Render a boolean grid as rows of '#' and '.'."""
    return "\n".join("".join("#" if v else "." for v in row) for row in np.asarray(grid, bool))
