"""Tests for the ring entry points of the network engine: values and derivative sweeps."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from tnlab import network
from tnlab.errors import ResourceLimitError
from tnlab.lattice import LatticeSpec
from tnlab.states import build_state, local_derivative_tensor, local_tensor
from tnlab.tensors import random_hermitian


def _tensors(l1, l2, D, d, seed):
    st = build_state(LatticeSpec(l1, l2, D, d), np.random.default_rng(seed))
    return local_tensor(st.params, D, d), local_derivative_tensor(st.params, D, d)


def _replaced(grid, site, tensor):
    out = grid.copy()
    out[site] = tensor
    return out


def _close(value, expected):
    return np.max(np.abs(value - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


def _contract_both_ways(grid):
    """contract(grid), checked against the same network on the transposed lattice.

    Transposing the lattice and swapping each tensor's (a, b) and (g, l) legs
    leaves the network unchanged; when l1 != l2 it flips the orientation that
    `contract` picks.
    """
    value = network.contract(grid)
    assert _close(network.contract(grid.transpose(1, 0, 3, 2, 5, 4)), value)
    return value


@hst.composite
def _cases(draw):
    D = draw(hst.sampled_from([2, 3]))
    l1, l2 = draw(hst.integers(2, 4)), draw(hst.integers(2, 4))
    if D == 3 and min(l1, l2) > 3:
        l1 = 3
    site = (draw(hst.integers(0, l1 - 1)), draw(hst.integers(0, l2 - 1)))
    return l1, l2, D, site, draw(hst.integers(0, 2**32 - 1))


def _check_op_sweep(ket, dket, site, op):
    """The bra-ket sweep with op at site, entry by entry, against `contract`."""
    double = _replaced(network.site_double_tensor(ket), site,
                       network.site_double_tensor(ket[site], op=op))
    value, sweep = network.bra_ket(ket, dket, site, op)
    assert sweep.shape == ket.shape[:2]
    assert _close(value, _contract_both_ways(double).real)
    expected = np.empty(ket.shape[:2], dtype=complex)
    for x, y in np.ndindex(*ket.shape[:2]):
        tensor = network.site_double_tensor(dket[x, y], bra=ket[x, y],
                                            op=op if (x, y) == site else None)
        expected[x, y] = network.contract(_replaced(double, (x, y), tensor))
    assert _close(sweep, expected)


def _check_sweeps(l1, l2, D, d, site, seed):
    """Both sweeps, entry by entry, against `contract` with that one site's tensor replaced."""
    ket, dket = _tensors(l1, l2, D, d, seed)
    rng = np.random.default_rng(seed)
    op = random_hermitian(d, rng)
    phi = rng.standard_normal((l1, l2, d)) + 1j * rng.standard_normal((l1, l2, d))

    _check_op_sweep(ket, dket, site, op)

    single = network.site_single_tensor(ket, phi)
    value, sweep = network.overlap(ket, phi, dket)
    assert sweep.shape == (l1, l2)
    assert _close(value, _contract_both_ways(single))
    expected = np.empty((l1, l2), dtype=complex)
    for x, y in np.ndindex(l1, l2):
        tensor = network.site_single_tensor(dket[x, y], phi[x, y])
        expected[x, y] = network.contract(_replaced(single, (x, y), tensor))
    assert _close(sweep, expected)


@settings(max_examples=12, deadline=None)
@given(case=_cases())
def test_sweeps_equal_contractions_with_one_site_replaced(case):
    # both orientations: l1 > l2 transposes the grid, l1 <= l2 does not
    l1, l2, D, site, seed = case
    _check_sweeps(l1, l2, D, 2, site, seed)


# d = 3 checks the fold of d**n physical legs into a ket column and the op's
# row within it; 4x5 and 5x4 are the production size in both orientations
@pytest.mark.parametrize("l1, l2, D, d, site", [
    (2, 3, 3, 3, (1, 2)),
    (4, 3, 2, 3, (3, 0)),
    (4, 5, 2, 2, (2, 4)),
    (5, 4, 2, 3, (4, 1)),
])
def test_sweeps_at_three_physical_levels_and_production_sizes(l1, l2, D, d, site):
    _check_sweeps(l1, l2, D, d, site, seed=l1 * 100 + l2 * 10 + d)


@pytest.mark.parametrize("l1, l2", [(2, 3), (3, 2)])
def test_op_sweep_with_a_non_hermitian_op(l1, l2):
    # op = H + iA with <A> = 0 has a real value, but its sweep differs from that of
    # op^dagger: this pins which layer the op acts on
    ket, dket = _tensors(l1, l2, 2, 2, 7)
    rng = np.random.default_rng(7)
    h, b = random_hermitian(2, rng), random_hermitian(2, rng)
    a = b - network.bra_ket(ket, site=(1, 1), op=b) / network.bra_ket(ket) * np.eye(2)
    _check_op_sweep(ket, dket, (1, 1), h + 1j * a)


@pytest.mark.parametrize("with_sweep", [False, True])
def test_bra_ket_rejects_non_hermitian_op(with_sweep):
    ket, dket = _tensors(2, 3, 2, 2, 0)
    op = 1j * np.eye(2)  # anti-Hermitian: <op> = i <psi|psi>
    with pytest.raises(RuntimeError, match="imaginary part"):
        network.bra_ket(ket, dket if with_sweep else None, (1, 2), op)


@pytest.mark.parametrize("site, op, message", [
    ((6, 0), np.eye(2), "not a site"),
    ((0, 0), np.eye(3), "op must be 2 x 2"),
])
def test_bra_ket_checks_site_and_op_before_the_budget(site, op, message):
    # a 6x6 ring exceeds the network budget, so a check made after the budget's would raise
    # ResourceLimitError instead
    ket = np.zeros((6, 6, 2, 2, 2, 2, 2), dtype=complex)
    with pytest.raises(ValueError, match=message):
        network.bra_ket(ket, site=site, op=op)


def _quotient_fold(z, n):
    return 1.0 / z, -n / z**2


# each ring kind of the network, on site tensors ket and derivatives dket
_RINGS = {
    "value": lambda ket, dket: network.bra_ket(ket),
    "sweep": lambda ket, dket: network.bra_ket(ket, dket),
    "fused": lambda ket, dket: network.bra_ket(ket, dket, (1, 1), np.eye(ket.shape[-1]),
                                               _quotient_fold),
    "overlap": lambda ket, dket: network.overlap(ket, np.ones((*ket.shape[:2], ket.shape[-1])),
                                                 dket),
}


@pytest.mark.parametrize("ring", sorted(_RINGS))
@pytest.mark.parametrize("k", [5, 8, 12])
@pytest.mark.parametrize("rows, d", [(3, 2), (2, 17)], ids=["transfer-bound", "ket-bound"])
def test_ring_budget_covers_what_a_ring_spends(rows, d, k, ring, monkeypatch):
    # the charge that `_check_ring` makes before any column is built is at least the
    # tracemalloc peak P of the ring itself: a budget of P - 1 bytes refuses the ring; the
    # fused pass is the costliest ring, and its charge is within 1.5 P
    ket, dket = _tensors(rows, k, 2, d, k)
    run = _RINGS[ring]
    tracemalloc.start()
    try:
        run(ket, dket)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(network, "NETWORK_BUDGET", peak - 1)
    with pytest.raises(ResourceLimitError, match="network budget"):
        run(ket, dket)
    if ring == "fused":
        monkeypatch.setattr(network, "NETWORK_BUDGET", int(1.5 * peak))
        run(ket, dket)


@pytest.mark.parametrize("with_dket, site", [(False, (0, 0)), (True, None)])
def test_fold_needs_dket_and_a_site(with_dket, site):
    ket, dket = _tensors(2, 2, 2, 2, 0)
    with pytest.raises(ValueError, match="fold needs dket, a site and an op"):
        network.bra_ket(ket, dket if with_dket else None, site, np.eye(2), _quotient_fold)
