r"""Directed plane polyominoes, toric polyominoes, and the decomposition between them.

A directed plane polyomino rooted at (0, 0) is a finite cell set containing
the root in which every other cell (x, y) has (x+1, y) or (x, y+1) in the set;
all cells therefore lie in the quadrant {(-a, -b): a, b >= 0}. The statistics
of a cell set S are set differences of S and its one-step shifts S + e:
area m = |S|, perimeter p = sum over the four unit steps e of |S \ (S + e)|,
and upper perimeter n = |S \ (S + e_x)|, the occupied cells (x, y) whose
(x - 1, y) is empty. On the L x L torus, S + e is taken mod L.

Toric polyominoes are the nonzero-weight upper-layer spin configurations of
the two-layer model: boolean (L, L) grids in which every occupied cell has an
occupied successor to the right or below (modulo L). `toric_to_plane`
decomposes one into rooted plane polyominoes: it walks from every occupied
cell along the one out-edge of each cell to the unique cycle of its component,
which it roots when first found.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ResourceLimitError

ENUMERATION_BUDGET = 12
SERIES_BUDGET = 24
TORIC_BUDGET = 4


@dataclass(frozen=True)
class Polyomino:
    """Cell set; frame is None for the plane or L for the L x L torus."""

    cells: frozenset
    frame: int = None


class PolyominoStats(NamedTuple):
    area: int
    perimeter: int
    upper_perimeter: int


def _shift(cells, dx, dy, frame=None):
    """The cell set moved by (dx, dy), taken mod frame on the torus."""
    if frame is None:
        return {(x + dx, y + dy) for x, y in cells}
    return {((x + dx) % frame, (y + dy) % frame) for x, y in cells}


def stats(poly):
    """(area, perimeter, upper perimeter) from the defining set formulas."""
    cells = poly.cells
    if not cells:
        raise ValueError("empty cell set")
    # exposed[0] is |S \ (S + e_x)|, the upper perimeter
    exposed = [len(cells - _shift(cells, dx, dy, poly.frame))
               for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    return PolyominoStats(len(cells), sum(exposed), exposed[0])


def generate_directed(m_max):
    """All directed plane polyominoes rooted at (0, 0) with area <= m_max.

    Grows by attaching one cell at a time: any absent cell whose right or
    down neighbor is present may be added, and every directed polyomino of
    area m + 1 arises this way from one of area m (remove a cell of minimal
    x + y). Returns a generator of (area, frozenset of cells) pairs; raises
    ValueError when m_max < 1 and ResourceLimitError when m_max exceeds
    ENUMERATION_BUDGET, at call time.
    """
    if m_max < 1:
        raise ValueError(f"the maximum area must be at least 1, got {m_max}")
    if m_max > ENUMERATION_BUDGET:
        raise ResourceLimitError(
            f"exhaustive enumeration capped at area {ENUMERATION_BUDGET}")
    return _grow_directed(m_max)


def _grow_directed(m_max):
    level = {frozenset({(0, 0)})}
    for m in range(1, m_max + 1):
        for cells in level:
            yield m, cells
        if m == m_max:
            break
        nxt = set()
        for cells in level:
            candidates = (_shift(cells, -1, 0) | _shift(cells, 0, -1)) - cells
            nxt.update(cells | {c} for c in candidates)
        level = nxt


@dataclass(frozen=True)
class PolyominoCounts:
    """Counts indexed by (area, upper perimeter)."""

    m_max: int
    counts: dict

    def get(self, m, n):
        return self.counts.get((m, n), 0)


def enumerate_directed(m_max):
    """Exact D_{m,n} counts by exhaustive generation."""
    counts = {}
    for m, cells in generate_directed(m_max):
        n = stats(Polyomino(cells)).upper_perimeter
        counts[(m, n)] = counts.get((m, n), 0) + 1
    return PolyominoCounts(m_max, counts)


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


def series_coefficients(m_max, n_max):
    """Exact integer D_{m,n} from the power series of the closed form.

    With A = (1+q)(1+q-qp) and B = 1 - q(2+p) + q^2(1-p), the closed form is
    G = p/2 (y - 1) with y^2 = Y = A/B. Each q-coefficient of Y and then of y
    is solved one order at a time from B Y = A and y^2 = Y, as a polynomial in
    p with Python-integer coefficients. Both steps halve integers; an odd one
    signals an internal expansion error. Raises ValueError when m_max or n_max
    is below 1.
    """
    if min(m_max, n_max) < 1:
        raise ValueError(f"the maximum area and upper perimeter must be at least 1, "
                         f"got {m_max} and {n_max}")
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
            if c and n <= n_max:
                counts[(m, n)] = int(c)
    return PolyominoCounts(m_max, counts)


def enumerate_toric(L):
    """All nonzero-weight upper-layer configurations of the L x L torus.

    Raises ValueError when L < 1 and ResourceLimitError above TORIC_BUDGET.
    """
    if L < 1:
        raise ValueError(f"torus side must be at least 1, got L = {L}")
    if L > TORIC_BUDGET:
        raise ResourceLimitError(f"toric enumeration capped at L = {TORIC_BUDGET}")
    out = []
    n = L * L
    shifts = np.arange(n, dtype=np.uint32)
    codes = np.arange(1 << n, dtype=np.uint32)
    bits = ((codes[:, None] >> shifts) & 1).astype(bool).reshape(-1, L, L)
    right = np.roll(bits, -1, axis=2)
    down = np.roll(bits, -1, axis=1)
    bad = (bits & ~right & ~down).any(axis=(1, 2))
    nonempty = bits.any(axis=(1, 2))
    for i in np.nonzero(~bad & nonempty)[0]:
        out.append(bits[i])
    return out


def _successor_graph(config):
    c = np.asarray(config, dtype=bool)
    if c.shape[0] != c.shape[1]:
        raise ValueError("toric decomposition is defined on square tori")
    L = c.shape[0]
    edges = {}
    for x, y in zip(*np.nonzero(c)):
        x, y = int(x), int(y)
        if c[(x + 1) % L, y]:
            edges[(x, y)] = ((x + 1) % L, y)
        elif c[x, (y + 1) % L]:
            edges[(x, y)] = (x, (y + 1) % L)
        else:
            raise ValueError(f"cell ({x}, {y}) has no occupied successor; not a toric polyomino")
    return L, edges


def toric_to_plane(config, root_rule=min):
    """Decompose a toric polyomino into rooted plane polyominoes.

    Every occupied cell (x, y) has one out-edge, to (x+1, y) if occupied,
    else to (x, y+1), so the walk from any cell ends on the cycle of its
    component. A walk that closes a cycle not seen before roots that component
    at `root_rule(cycle vertices)`. Going back along the walk, every cell that
    reaches its root by a steps in x and b steps in y maps to plane cell
    (-a, -b).
    """
    L, edges = _successor_graph(config)
    moves = {}  # cell -> (root, a, b)
    for start in edges:
        path, on_path = [], {}
        v = start
        while v not in moves:
            if v in on_path:
                root = root_rule(path[on_path[v]:])
                moves[root] = (root, 0, 0)
                # cycle cells after the root are reached by later walks
                del path[on_path[root]:]
                break
            on_path[v] = len(path)
            path.append(v)
            v = edges[v]
        for u in reversed(path):
            w = edges[u]
            root, a, b = moves[w]
            moves[u] = (root, a + 1, b) if w == ((u[0] + 1) % L, u[1]) else (root, a, b + 1)
    if len(set(moves.values())) != len(moves):
        raise RuntimeError("backtrace produced colliding plane cells")
    pieces = {}
    for root, a, b in moves.values():
        pieces.setdefault(root, set()).add((-a, -b))
    return [Polyomino(frozenset(cells)) for cells in pieces.values()]


def toric_stats(config):
    c = np.asarray(config, dtype=bool)
    L = c.shape[0]
    cells = frozenset((int(x), int(y)) for x, y in zip(*np.nonzero(c)))
    return stats(Polyomino(cells, frame=L))


@dataclass(frozen=True)
class DecompositionReport:
    L: int
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
    L = len(config)
    ts = toric_stats(config)
    piece_stats = [stats(p) for p in toric_to_plane(config)]
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
    violations = []
    n_valid = 0
    for config in enumerate_toric(L):
        n_valid += 1
        problems = decomposition_problems(config)
        if problems:
            violations.append((ascii_art(config), "; ".join(problems)))
    return DecompositionReport(L, n_valid, len(violations), tuple(violations))


def ascii_art(cells_or_config):
    """Render a polyomino or boolean grid as rows of '#' and '.'."""
    if isinstance(cells_or_config, Polyomino):
        cells = cells_or_config.cells
        xs = [c[0] for c in cells]
        ys = [c[1] for c in cells]
        lines = []
        for x in range(min(xs), max(xs) + 1):
            lines.append("".join("#" if (x, y) in cells else "."
                                 for y in range(min(ys), max(ys) + 1)))
        return "\n".join(lines)
    grid = np.asarray(cells_or_config, dtype=bool)
    return "\n".join("".join("#" if v else "." for v in row) for row in grid)
