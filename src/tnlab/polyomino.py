r"""Directed plane polyominoes, toric polyominoes, and the decomposition between them.

A directed plane polyomino rooted at (0, 0) is a finite cell set containing
the root in which every other cell (x, y) has (x+1, y) or (x, y+1) in the set;
all cells therefore lie in the quadrant {(-a, -b): a, b >= 0}. The statistics
of a cell set S are set differences of S and its one-step shifts S + e:
area m = |S|, perimeter p = sum over the four unit steps e of |S \ (S + e)|,
and upper perimeter n = |S \ (S + e_x)|, the occupied cells (x, y) whose
(x - 1, y) is empty. On the L x L torus, S + e is taken mod L.

Cell sets are bit-packed ints: S \ T is S & ~T and |S| is int.bit_count(). Plane
cell (x, y) is bit (x0 - x) W + (y0 - y), x0 and y0 the largest x and y (0 for a
rooted piece): a step in x shifts by W bits and one in y by one bit, and W leaves
a zero padding column past the y-extent, so a step in y never wraps a row. Toric
cell (x, y) is bit x L + y, as in `enumerate_toric`'s codes: a step in x rotates
all L^2 bits by L, and one in y rotates each row by a bit under the masks of its
first and last columns. Frozensets of (x, y) appear only at the public API.

Toric polyominoes are the nonzero-weight upper-layer spin configurations of
the two-layer model: boolean (L, L) grids in which every occupied cell has an
occupied successor to the right or below (modulo L). `toric_to_plane`
decomposes one into rooted plane polyominoes: it walks from every occupied
cell along the one out-edge of each cell to the unique cycle of its component,
which it roots at its smallest vertex when first found.
"""

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ResourceLimitError

ENUMERATION_BUDGET = 12
SERIES_BUDGET = 24
TORIC_BUDGET = 4


class PolyominoStats(NamedTuple):
    area: int
    perimeter: int
    upper_perimeter: int


def _bits(s):
    """Indices of the set bits of the packed set s, in increasing order."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


def _translates(s, width, torus=False):
    """S + e for e = e_x, -e_x, e_y, -e_y of a packed set (or array of toric codes) s."""
    if not torus:
        return s >> width, s << width, s >> 1, s << 1
    n = width * width
    full = (1 << n) - 1
    first = full // ((1 << width) - 1)  # bit y = 0 of every row
    last = first << (width - 1)
    return (((s << width) & full) | (s >> (n - width)),
            (s >> width) | ((s << (n - width)) & full),
            ((s << 1) & (full ^ first)) | ((s >> (width - 1)) & first),
            ((s >> 1) & (full ^ last)) | ((s << (width - 1)) & last))


def _stats(s, width, torus=False):
    if not s:
        raise ValueError("empty cell set")
    # exposed[0] is |S \ (S + e_x)|, the upper perimeter
    exposed = [(s & ~t).bit_count() for t in _translates(s, width, torus)]
    return PolyominoStats(s.bit_count(), sum(exposed), exposed[0])


def stats(cells):
    """(area, perimeter, upper perimeter) of a plane cell set, from the defining set formulas."""
    if not cells:
        raise ValueError("empty cell set")
    x0, y0 = max(x for x, _ in cells), max(y for _, y in cells)
    width = y0 - min(y for _, y in cells) + 2
    return _stats(sum(1 << int((x0 - x) * width + y0 - y) for x, y in cells), width)


def _unpack(s, width):
    """The plane cells (-a, -b) of the packed bits a * width + b."""
    return frozenset((-(i // width), -(i % width)) for i in _bits(s))


def _directed_levels(m_max):
    """The packed directed polyominoes of each area 1..m_max, and their row width."""
    if m_max < 1:
        raise ValueError(f"the maximum area must be at least 1, got {m_max}")
    if m_max > ENUMERATION_BUDGET:
        raise ResourceLimitError(f"exhaustive enumeration capped at area {ENUMERATION_BUDGET}")
    width = m_max + 1  # a directed cell (-a, -b) of area <= m_max has b < m_max
    levels = [{1}]
    while len(levels) < m_max:
        levels.append({s | 1 << c for s in levels[-1]
                       for c in _bits(((s << width) | (s << 1)) & ~s)})
    return levels, width


def generate_directed(m_max):
    """All directed plane polyominoes rooted at (0, 0) with area <= m_max.

    Grows by attaching one cell at a time: any absent cell whose right or
    down neighbor is present may be added, and every directed polyomino of
    area m + 1 arises this way from one of area m (remove a cell of minimal
    x + y). Returns a generator of (area, frozenset of cells) pairs; raises
    ValueError when m_max < 1 and ResourceLimitError when m_max exceeds
    ENUMERATION_BUDGET, at call time.
    """
    levels, width = _directed_levels(m_max)
    return ((m, _unpack(s, width)) for m, level in enumerate(levels, 1) for s in level)


@dataclass(frozen=True)
class PolyominoCounts:
    """Counts indexed by (area, upper perimeter)."""

    counts: dict

    def get(self, m, n):
        return self.counts.get((m, n), 0)


def enumerate_directed(m_max):
    """Exact D_{m,n} counts by exhaustive generation."""
    levels, width = _directed_levels(m_max)
    # the upper perimeter |S \ (S + e_x)|
    return PolyominoCounts(dict(Counter(
        (m, (s & ~(s >> width)).bit_count()) for m, level in enumerate(levels, 1) for s in level)))


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
    return p / 2.0 * (np.sqrt(rad) - 1.0)


def series_coefficients(m_max):
    """Exact integer D_{m,n} from the power series of the closed form.

    With A = (1+q)(1+q-qp) and B = 1 - q(2+p) + q^2(1-p), the closed form is
    G = p/2 (y - 1) with y^2 = Y = A/B. Each q-coefficient of Y and then of y
    is solved one order at a time from B Y = A and y^2 = Y, as a polynomial in
    p with Python-integer coefficients. Both steps halve integers; an odd one
    signals an internal expansion error. Raises ValueError when m_max is below 1.
    """
    if m_max < 1:
        raise ValueError(f"the maximum area must be at least 1, got {m_max}")
    if m_max > SERIES_BUDGET:
        raise ResourceLimitError(f"series expansion capped at area {SERIES_BUDGET}")
    width = m_max + 2  # the q^k coefficient has p-degree <= k, and A, B have p-degree 1

    def poly(*coeffs):
        out = np.zeros(width, dtype=object)
        out[:len(coeffs)] = coeffs
        return out

    def mul(a, b):
        return np.convolve(a, b)[:width]

    def half(v, m):
        if any(c % 2 for c in v):
            raise RuntimeError(f"non-integer series coefficient {list(v)}/2 at q^{m}")
        return v // 2

    # q^0, q^1, q^2 coefficients of A and B
    a = [poly(1), poly(2, -1), poly(1, -1)]
    b = [poly(1), poly(-2, -1), poly(1, -1)]
    big_y = []
    for k in range(m_max + 1):
        yk = a[k] if k < len(a) else poly()
        big_y.append(yk - sum(mul(b[j], big_y[k - j]) for j in (1, 2) if j <= k))
    y = [poly(1)]
    for k in range(1, m_max + 1):
        y.append(half(big_y[k] - sum(mul(y[j], y[k - j]) for j in range(1, k)), k))
    counts = {}
    for m in range(1, m_max + 1):
        # G_m = p/2 y_m: D_{m,n} is the p^(n-1) coefficient of y_m / 2
        for n, c in enumerate(half(y[m], m), start=1):
            if c:
                counts[(m, n)] = int(c)
    return PolyominoCounts(counts)


def _toric_codes(L):
    """Packed codes, bit x * L + y for cell (x, y), of the nonzero-weight configurations."""
    if L < 1:
        raise ValueError(f"torus side must be at least 1, got L = {L}")
    if L > TORIC_BUDGET:
        raise ResourceLimitError(f"toric enumeration capped at L = {TORIC_BUDGET}")
    codes = np.arange(1, 1 << (L * L), dtype=np.uint32)
    _, ahead_x, _, ahead_y = _translates(codes, L, torus=True)
    return codes[(codes & ~ahead_x & ~ahead_y) == 0]


def enumerate_toric(L):
    """All nonzero-weight upper-layer configurations of the L x L torus.

    Raises ValueError when L < 1 and ResourceLimitError above TORIC_BUDGET.
    """
    codes = _toric_codes(L)
    shifts = np.arange(L * L, dtype=np.uint32)
    return list(((codes[:, None] >> shifts) & 1).astype(bool).reshape(-1, L, L))


def _pack_torus(config):
    """(packed set, L) of a boolean L x L grid; ValueError unless it is 2-D, square, nonempty."""
    c = np.asarray(config, dtype=bool)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.size == 0:
        raise ValueError(f"a toric configuration is a nonempty square grid, got shape {c.shape}")
    return int.from_bytes(np.packbits(c, axis=None, bitorder="little").tobytes(), "little"), len(c)


def _toric_pieces(s, L):
    """The plane pieces of the packed toric polyomino s, packed with rows L^2 + 1 bits apart."""
    n, width = L * L, L * L + 1
    _, ahead_x, _, ahead_y = _translates(s, L, torus=True)
    dead = s & ~ahead_x & ~ahead_y
    if dead:
        x, y = divmod(next(_bits(dead)), L)
        raise ValueError(f"cell ({x}, {y}) has no occupied successor; not a toric polyomino")
    # cell -> (successor, packed plane step): a step in x is a row, one in y a bit
    edges = {v: ((v + L) % n, width) if ahead_x >> v & 1 else (v - v % L + (v + 1) % L, 1)
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
    return list(pieces.values())


def toric_to_plane(config):
    """Decompose a toric polyomino into rooted plane polyominoes, as frozensets of cells.

    Every occupied cell (x, y) has one out-edge, to (x+1, y) if occupied,
    else to (x, y+1), so the walk from any cell ends on the cycle of its
    component. A walk that closes a cycle not seen before roots that component
    at its smallest cycle vertex (x, y). Going back along the walk, every cell
    that reaches its root by a steps in x and b steps in y maps to plane cell
    (-a, -b).
    """
    s, L = _pack_torus(config)
    return [_unpack(p, L * L + 1) for p in _toric_pieces(s, L)]


def toric_stats(config):
    return _stats(*_pack_torus(config), torus=True)


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
    return _problems(*_pack_torus(config))


def _problems(code, L):
    ts = _stats(code, L, torus=True)
    piece_stats = [_stats(p, L * L + 1) for p in _toric_pieces(code, L)]
    k = len(piece_stats)
    total_area = sum(s.area for s in piece_stats)
    total_upper = sum(s.upper_perimeter for s in piece_stats)
    problems = []
    if not (k <= ts.area / L <= L):
        problems.append(f"k={k} outside [.., m/L={ts.area / L}, L={L}]")
    if any(s.area < L for s in piece_stats):
        problems.append(f"piece areas {[s.area for s in piece_stats]} below L")
    if total_area != ts.area:
        problems.append(f"area sum {total_area} != {ts.area}")
    if not (ts.upper_perimeter <= total_upper <= ts.upper_perimeter + k):
        problems.append(
            f"upper perimeter sum {total_upper} outside "
            f"[{ts.upper_perimeter}, {ts.upper_perimeter + k}]")
    return problems


def verify_decomposition(L):
    """Exhaustively check `decomposition_problems` on every configuration at size L."""
    codes = _toric_codes(L)
    violations = []
    for code in codes.tolist():
        problems = _problems(code, L)
        if problems:
            grid = [[code >> (x * L + y) & 1 for y in range(L)] for x in range(L)]
            violations.append((ascii_art(grid), "; ".join(problems)))
    return DecompositionReport(len(codes), len(violations), tuple(violations))


def ascii_art(grid):
    """Render a boolean grid as rows of '#' and '.'."""
    return "\n".join("".join("#" if v else "." for v in row) for row in np.asarray(grid, bool))
