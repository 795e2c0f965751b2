"""Tests for polyomino enumeration, the generating function, and the toric decomposition."""

import itertools
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from tnlab import polyomino
from tnlab.errors import ResourceLimitError
from tnlab.polyomino import (SERIES_BUDGET, ascii_art, decomposition_problems, directed_gf,
                             enumerate_directed, enumerate_toric, series_coefficients, stats,
                             toric_stats, toric_to_plane, verify_decomposition)
from oracles import (ConfigClass, by_area, classify_config, generate_directed, grid_stats,
                     grown_counts, walk_pieces, walk_problems)

# area-6 directed polyomino with perimeter 14 and upper perimeter 3:
#   .#.
#   .#.
#   ###
#   ..#
REFERENCE_SHAPE = frozenset({(-3, -1), (-2, -1), (-1, -2), (-1, -1), (-1, 0), (0, 0)})


def brute_force_directed_counts(m_max):
    """Independent oracle: filter all subsets of the reachable quadrant triangle.

    Counts by (area, upper perimeter), the upper perimeter counted on a grid.
    """
    universe = [(-a, -b) for a in range(m_max) for b in range(m_max - a)]
    universe.remove((0, 0))
    counts = {}
    for m in range(1, m_max + 1):
        for extra in itertools.combinations(universe, m - 1):
            cells = set(extra) | {(0, 0)}
            if all((x + 1, y) in cells or (x, y + 1) in cells
                   for (x, y) in cells if (x, y) != (0, 0)):
                _, _, n = grid_stats(cells)
                counts[(m, n)] = counts.get((m, n), 0) + 1
    return counts


def test_single_cell_stats():
    assert stats(frozenset({(0, 0)})) == (1, 4, 1)


def test_reference_shape_stats():
    st = stats(REFERENCE_SHAPE)
    assert (st.area, st.perimeter, st.upper_perimeter) == (6, 14, 3)


def test_domino_stats():
    assert stats(frozenset({(0, 0), (0, -1)})) == (2, 6, 2)
    assert stats(frozenset({(0, 0), (-1, 0)})) == (2, 6, 1)


def test_stats_rejects_empty():
    with pytest.raises(ValueError):
        stats(frozenset())


@pytest.mark.parametrize("cell", [(0.5, 0), (True, 0), (0, np.True_), (0, 1.0), (0, 0, 1), (0,), 1],
                         ids=repr)
def test_stats_rejects_cells_that_are_not_integer_pairs(cell):
    # a float cell such as (0, 1.0) would be the same set member as (0, 1), and a bool
    # would be read as 0 or 1; a cell of another length, or no sequence at all, is no pair
    with pytest.raises(ValueError, match="pair of integers"):
        stats(frozenset({cell, (0, 0)}))


def test_stats_of_a_list_equals_stats_of_its_set():
    # a repeated cell is one cell, and a cell is any pair
    cells = sorted(REFERENCE_SHAPE) + [(0, 0), (-1, -1)]
    assert stats(cells) == stats(frozenset(cells)) == (6, 14, 3)
    assert stats([list(cell) for cell in cells]) == (6, 14, 3)


def test_stats_memory_does_not_grow_with_the_extent():
    # two cells 5,000 apart in x and in y: anything sized by their bounding box, 25 million
    # cells, would take megabytes
    tracemalloc.start()
    try:
        assert stats(frozenset({(0, 0), (-5000, -5000)})) == (2, 8, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_stats_of_numpy_cells_at_the_ends_of_int64():
    # one step past the top of int64 would wrap onto the cell at the bottom
    top, bottom = np.int64(2**63 - 1), np.int64(-2**63)
    assert stats({(top, 0), (bottom, 0)}) == (2, 8, 2)


def _cell_sets(hi):
    return hst.sets(hst.tuples(hst.integers(0, hi), hst.integers(0, hi)), min_size=1)


# plane sets in a small box, directed or not, and toric sets on the L x L torus
@settings(max_examples=300, deadline=None)
@given(hst.one_of(
    hst.tuples(_cell_sets(5).map(lambda s: {(x - 3, y - 2) for x, y in s}), hst.none()),
    hst.integers(1, 5).flatmap(lambda L: hst.tuples(_cell_sets(L - 1), hst.just(L)))))
def test_stats_match_a_grid_count(case):
    cells, frame = case
    if frame is None:
        assert stats(frozenset(cells)) == grid_stats(cells)
    else:
        grid = np.zeros((frame, frame), dtype=bool)
        grid[tuple(np.array(sorted(cells)).T)] = True
        assert toric_stats(grid) == grid_stats(cells, frame)


def test_counts_match_independent_oracle():
    # every subset of up to 5 of the 20 other cells with a + b <= 5
    enum = enumerate_directed(6)
    assert enum.counts == brute_force_directed_counts(6)
    assert by_area(enum) == {1: 1, 2: 2, 3: 5, 4: 13, 5: 35, 6: 96}


def test_area_one_counts():
    enum = enumerate_directed(3)
    assert enum.counts.get((1, 1), 0) == 1
    assert all(enum.counts.get((1, n), 0) == 0 for n in range(2, 4))


def test_layer_count_matches_growth_at_every_area():
    # growth, one cell at a time, takes about 0.1 s to area 12 and grows about 3x per area
    grown = grown_counts(12)
    for m in range(1, 13):
        assert enumerate_directed(m).counts == {k: c for k, c in grown.items() if k[0] <= m}


def test_enumeration_respects_budget():
    with pytest.raises(ResourceLimitError, match=f"capped at area {SERIES_BUDGET}"):
        enumerate_directed(SERIES_BUDGET + 1)


@pytest.mark.parametrize("size", [2.5, 2.0, True, np.True_, "3"], ids=repr)
@pytest.mark.parametrize("call", [enumerate_directed, series_coefficients, enumerate_toric,
                                  verify_decomposition], ids=lambda f: f.__name__)
def test_sizes_that_are_not_integers_rejected(call, size):
    # unrefused, 2.5 would count to area 2 and True to area 1; a bool is not an integer here
    with pytest.raises(ValueError, match="must be an integer"):
        call(size)


@pytest.mark.parametrize("m_max", [0, -1, -3])
def test_areas_and_perimeters_below_one_rejected(m_max):
    with pytest.raises(ValueError, match="at least 1"):
        series_coefficients(m_max)
    with pytest.raises(ValueError, match="at least 1"):
        enumerate_directed(m_max)


def test_perimeter_at_least_twice_upper_perimeter():
    for _, cells in generate_directed(7):
        st = stats(cells)
        assert st.perimeter >= 2 * st.upper_perimeter


def test_series_matches_enumeration_exactly():
    # every coefficient to the cap; the layer count takes about 0.8 s at area 24
    assert series_coefficients(SERIES_BUDGET).counts == enumerate_directed(SERIES_BUDGET).counts


def test_series_by_area_matches_directed_animal_numbers():
    # D_m summed over n is the number of directed animals of size m (OEIS A005773,
    # Gouyou-Beauchamps & Viennot 1988), to the area cap
    totals = by_area(series_coefficients(24))
    for m in range(1, 25):
        assert totals[m] == sum(comb(m - 1, k) * comb(k, k // 2) for k in range(m))


def test_series_properties():
    series = series_coefficients(12)
    assert series.counts.get((1, 1), 0) == 1
    assert all(isinstance(c, int) and c >= 0 for c in series.counts.values())
    assert all(n <= m for (m, n) in series.counts)


def test_series_budget():
    with pytest.raises(ResourceLimitError):
        series_coefficients(25)


def test_gf_vanishes_at_zero_area_weight():
    assert directed_gf(1e-300, 0.5) < 1e-290


def test_gf_reference_value():
    val = directed_gf(0.54, 0.25)
    assert 2.8 < val <= 2.9


@pytest.mark.parametrize("q", [9.75e-16, 9.75e-18, 1e-30], ids=repr)
def test_gf_keeps_its_leading_term_at_small_q(q):
    # G = p q + O(q^2): the first two are the norm table's q at d = 10^15 and 10^17, where
    # p/2 (sqrt(rad) - 1) cancels to 2.2e-16 and to 0
    assert abs(directed_gf(q, 0.25) - 0.25 * q) <= 1e-12 * 0.25 * q


def test_gf_matches_truncated_series_with_tail_bound():
    q, p = 0.3, 0.25
    series = series_coefficients(24)
    terms = {}
    for (m, n), c in series.counts.items():
        terms[m] = terms.get(m, 0.0) + c * q**m * p**n
    partial = sum(terms.values())
    ratio = terms[24] / terms[23]
    assert ratio < 1.0
    tail_bound = terms[24] * ratio / (1.0 - ratio) * 2.0  # x2 headroom on geometric tail
    closed = directed_gf(q, p)
    assert abs(closed - partial) <= tail_bound
    assert abs(closed - partial) < 1e-6


def test_gf_domain_errors():
    with pytest.raises(ValueError):
        directed_gf(0.6, 0.5)  # denominator negative
    with pytest.raises(ValueError):
        directed_gf(0.9, 0.1)


def test_enumerate_toric_matches_classifier_at_2():
    valid = enumerate_toric(2)
    seen = {tuple(map(tuple, v.astype(int))) for v in valid}
    count = 0
    for code in range(16):
        grid = np.array([(code >> k) & 1 for k in range(4)]).reshape(2, 2).astype(bool)
        if classify_config(grid) is ConfigClass.VALID:
            count += 1
            assert tuple(map(tuple, grid.astype(int))) in seen
    assert count == len(valid)


@pytest.mark.parametrize("L, n", [(1, 1), (2, 9), (3, 124)])
def test_enumerate_toric_returns_one_bool_array(L, n):
    grids = enumerate_toric(L)
    assert isinstance(grids, np.ndarray)
    assert (grids.dtype, grids.shape) == (bool, (n, L, L))


@pytest.mark.parametrize("L, n", [(1, 1), (2, 9), (3, 124), (4, 5249)])
def test_enumerate_toric_is_every_grid_that_the_successor_rule_keeps(L, n):
    # oracle: every nonempty grid in code order (cell (x, y) at bit x L + y), kept unless an
    # occupied cell has both successors empty
    codes = np.arange(1, 2 ** (L * L))
    grids = ((codes[:, None] >> np.arange(L * L)) & 1).astype(bool).reshape(-1, L, L)
    stuck = grids & ~np.roll(grids, -1, axis=1) & ~np.roll(grids, -1, axis=2)
    expected = grids[~stuck.any(axis=(1, 2))]
    assert len(expected) == n
    assert np.array_equal(enumerate_toric(L), expected)


def test_enumerate_toric_successor_rule():
    for cfg in enumerate_toric(3):
        right = np.roll(cfg, -1, axis=1)
        down = np.roll(cfg, -1, axis=0)
        assert not np.any(cfg & ~right & ~down)


def test_all_up_is_valid():
    for L in (2, 3):
        assert any(cfg.all() for cfg in enumerate_toric(L))


def test_winding_row_maps_to_single_string():
    cfg = np.zeros((3, 3), dtype=bool)
    cfg[1, :] = True
    pieces = toric_to_plane(cfg)
    assert len(pieces) == 1
    assert stats(pieces[0]).area == 3


def test_area14_reference_configuration():
    # single-component toric polyomino on the 5x5 torus with (m, n) = (14, 5)
    cfg = np.zeros((5, 5), dtype=bool)
    for cell in [(0, 0), (0, 2), (0, 4), (1, 0), (1, 2), (1, 3), (1, 4), (2, 0),
                 (2, 1), (2, 3), (2, 4), (3, 1), (4, 1), (4, 2)]:
        cfg[cell] = True
    ts = toric_stats(cfg)
    assert (ts.area, ts.upper_perimeter) == (14, 5)
    pieces = toric_to_plane(cfg)
    assert len(pieces) == 1
    assert stats(pieces[0]).area == 14


def test_decomposition_outputs_are_directed_polyominoes():
    for cfg in enumerate_toric(3):
        for cells in toric_to_plane(cfg):
            assert (0, 0) in cells
            for cell in cells:
                if cell != (0, 0):
                    assert (cell[0] + 1, cell[1]) in cells or (cell[0], cell[1] + 1) in cells


def test_decomposition_root_invariance():
    # piece areas never depend on which cycle vertex roots the component: a translation
    # of the torus moves the smallest cycle vertex, and with it the root
    for cfg in enumerate_toric(3):
        areas = sorted(stats(p).area for p in toric_to_plane(cfg))
        for shift in np.ndindex(3, 3):
            moved = toric_to_plane(np.roll(cfg, shift, (0, 1)))
            assert sorted(stats(p).area for p in moved) == areas


def _array_pieces(grids):
    """The pieces of the array routine for each of stacked grids, as {root: frozenset of cells}."""
    roots, shifts = polyomino._decompose(grids)
    width = grids[0].size + 1
    out = []
    for grid, root, shift in zip(grids, roots.tolist(), shifts.tolist()):
        pieces = {}
        for v in np.flatnonzero(grid).tolist():
            pieces.setdefault(root[v], set()).add((-(shift[v] // width), -(shift[v] % width)))
        out.append({r: frozenset(cells) for r, cells in pieces.items()})
    return out


@pytest.mark.parametrize("L", (1, 2, 3, 4))
def test_array_decomposition_matches_the_walk_oracle(L):
    configs = enumerate_toric(L)
    oracle = [walk_pieces(cfg) for cfg in configs]
    assert _array_pieces(configs) == oracle
    # toric_to_plane lists the pieces in the order of their components' smallest cells
    assert [toric_to_plane(cfg) for cfg in configs] == [list(o.values()) for o in oracle]


@pytest.mark.parametrize("L", (1, 2, 3))
def test_decomposition_invariants_exhaustive(L):
    report = verify_decomposition(L)
    assert report.n_valid > 0
    assert report.n_violations == 0, report.violations[:3]


# cells up with probability about 2/3, so that pruning mostly leaves some
LARGE_GRIDS = hst.integers(min_value=5, max_value=7).flatmap(
    lambda L: hst.lists(hst.integers(0, 2).map(bool), min_size=L * L, max_size=L * L).map(
        lambda cells: np.array(cells).reshape(L, L)))


def _pruned(cfg):
    """cfg without every up cell whose right and down successors are both down, until none
    is left; what remains is a valid toric configuration, or an empty grid."""
    while True:
        dead = cfg & ~np.roll(cfg, -1, axis=1) & ~np.roll(cfg, -1, axis=0)
        if not dead.any():
            return cfg
        cfg = cfg & ~dead


@settings(max_examples=100, deadline=None)
@given(LARGE_GRIDS)
def test_decomposition_invariants_random_large(cfg):
    cfg = _pruned(cfg)
    assume(cfg.any())
    assert decomposition_problems(cfg) == walk_problems(cfg) == []
    oracle = walk_pieces(cfg)
    assert _array_pieces(cfg[None]) == [oracle]
    assert toric_to_plane(cfg) == list(oracle.values())


def _piece_table(grids):
    """{root: (area, upper perimeter)} of the pieces of each of stacked grids, by `_piece_stats`."""
    _, _, area, upper = polyomino._piece_stats(grids)
    return [{r: (a, u) for r, (a, u) in enumerate(zip(*rows)) if a}
            for rows in zip(area.tolist(), upper.tolist())]


def _walk_table(cfg):
    """{root: (area, upper perimeter)} of the pieces of one grid, by `stats` of `walk_pieces`."""
    return {r: stats(cells)[::2] for r, cells in walk_pieces(cfg).items()}


@pytest.mark.parametrize("L", (1, 2, 3, 4))
def test_piece_statistics_match_the_stats_of_each_walk_piece(L):
    configs = enumerate_toric(L)
    assert _piece_table(configs) == [_walk_table(cfg) for cfg in configs]


@settings(max_examples=100, deadline=None)
@given(LARGE_GRIDS)
def test_piece_statistics_match_the_walk_pieces_random_large(cfg):
    cfg = _pruned(cfg)
    assume(cfg.any())
    assert _piece_table(cfg[None]) == [_walk_table(cfg)]


def test_a_stack_past_int32_decomposes_like_each_grid_alone():
    # two grids of side 35 take n (L^2 + 1)^3 past 2^31, so the stack runs on int64 cell
    # indices, shifts and keys, and each grid alone on int32
    rng = np.random.default_rng(5)
    grids = np.array([_pruned(rng.random((35, 35)) < 0.7) for _ in range(2)])
    stack = polyomino._piece_stats(grids)
    assert stack[0].dtype == stack[1].dtype == np.int64
    for i, grid in enumerate(grids):
        alone = polyomino._piece_stats(grid[None])
        assert alone[0].dtype == np.int32
        assert all(np.array_equal(a[0], b[i]) for a, b in zip(alone, stack))


@pytest.mark.parametrize("corrupt", [
    lambda shift: shift + 1,  # every cell one plane step further in y from its root
    lambda shift: 0 * shift,  # every cell of a piece on its root's plane cell: a collision
], ids=["moved", "collided"])
def test_a_cell_off_its_root_minus_its_shift_raises(monkeypatch, corrupt):
    decompose = polyomino._decompose

    def corrupted(grids):
        root, shift = decompose(grids)
        return root, corrupt(shift)

    monkeypatch.setattr(polyomino, "_decompose", corrupted)
    with pytest.raises(RuntimeError, match=r"not root - \(a, b\) mod L"):
        verify_decomposition(3)


def _expected_violations(L, problems):
    """(ascii_art, message) for every configuration at size L, from the walk oracle's pieces."""
    out = []
    for cfg in enumerate_toric(L):
        m, _, n = grid_stats([tuple(xy) for xy in np.argwhere(cfg)], L)
        pieces = [grid_stats(cells) for cells in walk_pieces(cfg).values()]
        out.append((ascii_art(cfg), "; ".join(problems(m, n, pieces))))
    return out


def test_verify_reports_violations_of_corrupted_piece_statistics(monkeypatch):
    # every piece one cell larger and two upper-perimeter cells longer breaks the area sum
    # and the upper-perimeter bound of every configuration
    piece_stats = polyomino._piece_stats

    def corrupted(grids):
        root, shift, area, upper = piece_stats(grids)
        return root, shift, area + (area > 0), upper + 2 * (area > 0)

    monkeypatch.setattr(polyomino, "_piece_stats", corrupted)
    report = verify_decomposition(2)
    expected = _expected_violations(2, lambda m, n, st: [
        f"area sum {m + len(st)} != {m}",
        f"upper perimeter sum {sum(s[2] for s in st) + 2 * len(st)} "
        f"outside [{n}, {n + len(st)}]"])
    assert (report.n_valid, report.n_violations, report.ok) == (9, 9, False)
    assert list(report.violations) == expected
    assert decomposition_problems(enumerate_toric(2)[0]) == expected[0][1].split("; ")


def test_verify_reports_violations_of_a_corrupted_decomposition(monkeypatch):
    # every cell its own root splits each configuration into m one-cell pieces
    def singletons(grids):
        n, L = grids.shape[:2]
        cells = np.broadcast_to(np.arange(L * L), (n, L * L))
        return cells, np.zeros_like(cells)

    monkeypatch.setattr(polyomino, "_decompose", singletons)
    report = verify_decomposition(3)
    expected = _expected_violations(3, lambda m, n, st: [
        f"k={m} outside [.., m/L={m / 3}, L=3]", f"piece areas {[1] * m} below L"])
    assert (report.n_valid, report.n_violations) == (124, 124)
    assert list(report.violations) == expected


def test_piece_areas_are_reported_piece_by_piece(monkeypatch):
    # rows 0 and 2 of the 4x4 torus are two pieces, rooted at cells 0 and 8; the piece
    # rooted at 8 is shrunk to area 2
    cfg = np.zeros((4, 4), dtype=bool)
    cfg[0, :] = cfg[2, :] = True
    assert list(walk_pieces(cfg)) == [0, 8]
    piece_stats = polyomino._piece_stats

    def shrunk(grids):
        root, shift, area, upper = piece_stats(grids)
        return root, shift, area - (area > 0) * np.arange(16) // 4, upper

    monkeypatch.setattr(polyomino, "_piece_stats", shrunk)
    assert decomposition_problems(cfg) == ["piece areas [4, 2] below L", "area sum 6 != 8"]


@pytest.mark.parametrize("check", [toric_stats, toric_to_plane, decomposition_problems])
@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 2), (4,), (1,), (2, 2, 2), (0, 0)],
                         ids=str)
def test_toric_checks_reject_grids_that_are_not_square(check, shape):
    # the torus side is read from the grid, so anything but a nonempty square is refused
    with pytest.raises(ValueError, match="square grid"):
        check(np.ones(shape, dtype=bool))


def test_decomposition_rejects_invalid_config():
    bad = np.zeros((3, 3), dtype=bool)
    bad[1, 1] = True
    with pytest.raises(ValueError, match=r"cell \(1, 1\) has no occupied successor"):
        toric_to_plane(bad)


def test_decomposition_problems_rejects_invalid_config():
    bad = np.zeros((4, 4), dtype=bool)
    bad[0, :] = True
    bad[2, 3] = True
    with pytest.raises(ValueError, match=r"cell \(2, 3\) has no occupied successor"):
        decomposition_problems(bad)


@pytest.mark.parametrize("check", [toric_stats, toric_to_plane, decomposition_problems])
@pytest.mark.parametrize("entry", [0.5, 2, -1, np.nan], ids=repr)
def test_toric_checks_reject_entries_other_than_0_and_1(check, entry):
    # an entry is a spin, up (1 or True) or down (0 or False); no other value is read as one
    grid = np.ones((2, 2))
    grid[1, 0] = entry
    with pytest.raises(ValueError, match="0/1 or False/True"):
        check(grid)


def test_one_cell_torus():
    # the one cell is its own successor, a piece of area 1 = L
    grid = np.ones((1, 1), dtype=int)
    assert enumerate_toric(1).tolist() == [[[True]]]
    assert toric_to_plane(grid) == [frozenset({(0, 0)})]
    assert decomposition_problems(grid) == []
    report = verify_decomposition(1)
    assert (report.n_valid, report.n_violations) == (1, 0)


@pytest.mark.parametrize("check", [toric_to_plane, decomposition_problems])
def test_decomposition_refuses_a_torus_whose_cell_keys_overflow(check):
    # a cell's key is below L^2 (L^2 + 1)^2, which passes 2^63 at L = 1449
    with pytest.raises(ResourceLimitError, match="overflow int64"):
        check(np.ones((1449, 1449), dtype=bool))


@pytest.mark.parametrize("call, message", [
    (lambda: toric_stats(np.zeros((3, 3), dtype=int)), "empty cell set"),
    (lambda: directed_gf(-0.5, -2), r"radicand -0\.1428\d* not positive"),
], ids=["empty-torus", "negative-radicand"])
def test_toric_stats_and_the_generating_function_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_empty_grid_has_no_pieces_and_no_decomposition_check():
    assert toric_to_plane(np.zeros((3, 3), dtype=bool)) == []
    with pytest.raises(ValueError, match="empty cell set"):
        decomposition_problems(np.zeros((3, 3), dtype=bool))


def test_polyomino_run_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma is imported on first use of np.unique or np.isin, at a cost in set-up time
    # and memory; the polyomino command needs neither
    code = ("import sys; from tnlab.cli import main; "
            f"rc = main(['polyomino', '--sizes', '1x1,2x2,3x3', '--max-area', '5', '--seed', '0', "
            f"'--out', {str(tmp_path / 'out')!r}]); "
            "print(rc, 'numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, cwd=Path(polyomino.__file__).parents[1])
    assert done.stdout.split() == ["0", "False"]


def test_toric_count_bounded_by_plane_compositions():
    # number of nonzero toric configurations with stats (m, n) is at most
    # sum_k sum_c sum over ordered splittings of prod_i L^2 D_{m_i, n_i}
    L = 3
    series = series_coefficients(L * L)
    observed = {}
    for cfg in enumerate_toric(L):
        ts = toric_stats(cfg)
        key = (ts.area, ts.upper_perimeter)
        observed[key] = observed.get(key, 0) + 1

    def splittings(k, m, n):
        if k == 0:
            return 1 if (m == 0 and n == 0) else 0
        total = 0
        for mi in range(L, m + 1):
            for ni in range(1, n + 1):
                cnt = series.counts.get((mi, ni), 0)
                if cnt:
                    total += L * L * cnt * splittings(k - 1, m - mi, n - ni)
        return total

    for (m, n), count in observed.items():
        bound = sum(splittings(k, m, n + c)
                    for k in range(1, m // L + 1) for c in range(k + 1))
        assert count <= bound, (m, n, count, bound)


def test_ascii_render():
    grid = [[0, 1, 0], [0, 1, 0], [1, 1, 1], [0, 0, 1]]
    assert ascii_art(grid).splitlines() == [".#.", ".#.", "###", "..#"]
    assert ascii_art(np.eye(2, dtype=bool)) == "#.\n.#"
