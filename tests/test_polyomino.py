"""Tests for polyomino enumeration, the generating function, and the toric decomposition."""

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from tnlab.errors import ResourceLimitError
from tnlab.polyomino import (Polyomino, ascii_art, decomposition_problems, directed_gf,
                             enumerate_directed, enumerate_toric, generate_directed,
                             series_coefficients, stats, toric_stats, toric_to_plane,
                             verify_decomposition)
from oracles import ConfigClass, by_area, classify_config

# area-6 directed polyomino with perimeter 14 and upper perimeter 3:
#   .#.
#   .#.
#   ###
#   ..#
REFERENCE_SHAPE = frozenset({(-3, -1), (-2, -1), (-1, -2), (-1, -1), (-1, 0), (0, 0)})


def brute_force_directed_counts(m_max):
    """Independent oracle: filter all subsets of the reachable quadrant triangle."""
    universe = [(-a, -b) for a in range(m_max) for b in range(m_max - a)]
    universe.remove((0, 0))
    counts = {m: 0 for m in range(1, m_max + 1)}
    counts[1] = 1
    for m in range(2, m_max + 1):
        for extra in itertools.combinations(universe, m - 1):
            cells = set(extra) | {(0, 0)}
            if all((x + 1, y) in cells or (x, y + 1) in cells
                   for (x, y) in cells if (x, y) != (0, 0)):
                counts[m] += 1
    return counts


def test_single_cell_stats():
    assert stats(Polyomino(frozenset({(0, 0)}))) == (1, 4, 1)


def test_reference_shape_stats():
    st = stats(Polyomino(REFERENCE_SHAPE))
    assert (st.area, st.perimeter, st.upper_perimeter) == (6, 14, 3)


def test_domino_stats():
    assert stats(Polyomino(frozenset({(0, 0), (0, -1)}))) == (2, 6, 2)
    assert stats(Polyomino(frozenset({(0, 0), (-1, 0)}))) == (2, 6, 1)


def test_stats_rejects_empty():
    with pytest.raises(ValueError):
        stats(Polyomino(frozenset()))


def test_counts_by_area_match_independent_oracle():
    enum = enumerate_directed(5)
    assert by_area(enum) == brute_force_directed_counts(5)
    assert by_area(enum) == {1: 1, 2: 2, 3: 5, 4: 13, 5: 35}


def test_area_one_counts():
    enum = enumerate_directed(3)
    assert enum.get(1, 1) == 1
    assert all(enum.get(1, n) == 0 for n in range(2, 4))


def test_enumeration_respects_budget():
    with pytest.raises(ResourceLimitError):
        enumerate_directed(13)


def test_perimeter_at_least_twice_upper_perimeter():
    for _, cells in generate_directed(7):
        st = stats(Polyomino(cells))
        assert st.perimeter >= 2 * st.upper_perimeter


def test_series_matches_enumeration_exactly():
    enum = enumerate_directed(8)
    series = series_coefficients(8, 8)
    assert series.counts == enum.counts


def test_series_by_area_matches_directed_animal_numbers():
    # D_m summed over n is the number of directed animals of size m (OEIS A005773,
    # Gouyou-Beauchamps & Viennot 1988), well past the reach of enumeration
    totals = by_area(series_coefficients(24, 24))
    for m in range(1, 25):
        assert totals[m] == sum(comb(m - 1, k) * comb(k, k // 2) for k in range(m))


def test_series_properties():
    series = series_coefficients(12, 12)
    assert series.get(1, 1) == 1
    assert all(isinstance(c, int) and c >= 0 for c in series.counts.values())
    assert all(n <= m for (m, n) in series.counts)


def test_series_budget():
    with pytest.raises(ResourceLimitError):
        series_coefficients(25, 25)


def test_gf_vanishes_at_zero_area_weight():
    assert directed_gf(1e-300, 0.5) < 1e-290


def test_gf_reference_value():
    val = directed_gf(0.54, 0.25)
    assert 2.8 < val <= 2.9


def test_gf_matches_truncated_series_with_tail_bound():
    q, p = 0.3, 0.25
    series = series_coefficients(24, 24)
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
        for piece in toric_to_plane(cfg):
            cells = piece.cells
            assert (0, 0) in cells
            for cell in cells:
                if cell != (0, 0):
                    assert (cell[0] + 1, cell[1]) in cells or (cell[0], cell[1] + 1) in cells


def test_decomposition_root_invariance():
    # piece areas never depend on which cycle vertex roots the component
    for cfg in enumerate_toric(3):
        areas = sorted(stats(p).area for p in toric_to_plane(cfg, root_rule=min))
        for rule in (max, lambda cyc: cyc[len(cyc) // 2]):
            alt = sorted(stats(p).area for p in toric_to_plane(cfg, root_rule=rule))
            assert alt == areas


@pytest.mark.parametrize("L", (2, 3))
def test_decomposition_invariants_exhaustive(L):
    report = verify_decomposition(L)
    assert report.n_valid > 0
    assert report.n_violations == 0, report.violations[:3]


# cells up with probability about 2/3, so that pruning mostly leaves some
@settings(max_examples=100, deadline=None)
@given(hst.integers(min_value=5, max_value=7).flatmap(
    lambda L: hst.lists(hst.integers(0, 2).map(bool), min_size=L * L, max_size=L * L).map(
        lambda cells: np.array(cells).reshape(L, L))))
def test_decomposition_invariants_random_large(cfg):
    # prune every up cell whose right and down successors are both down, until
    # none is left; what remains is a valid toric configuration
    while True:
        dead = cfg & ~np.roll(cfg, -1, axis=1) & ~np.roll(cfg, -1, axis=0)
        if not dead.any():
            break
        cfg = cfg & ~dead
    assume(cfg.any())
    assert decomposition_problems(cfg) == []


def test_decomposition_rejects_invalid_config():
    bad = np.zeros((3, 3), dtype=bool)
    bad[1, 1] = True
    with pytest.raises(ValueError):
        toric_to_plane(bad)


def test_toric_count_bounded_by_plane_compositions():
    # number of nonzero toric configurations with stats (m, n) is at most
    # sum_k sum_c sum over ordered splittings of prod_i L^2 D_{m_i, n_i}
    L = 3
    series = series_coefficients(L * L, L * L)
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
                cnt = series.get(mi, ni)
                if cnt:
                    total += L * L * cnt * splittings(k - 1, m - mi, n - ni)
        return total

    for (m, n), count in observed.items():
        bound = sum(splittings(k, m, n + c)
                    for k in range(1, m // L + 1) for c in range(k + 1))
        assert count <= bound, (m, n, count, bound)


def test_ascii_render():
    art = ascii_art(Polyomino(REFERENCE_SHAPE))
    assert art.splitlines() == [".#.", ".#.", "###", "..#"]
    grid_art = ascii_art(np.eye(2, dtype=bool))
    assert grid_art == "#.\n.#"
