"""Tests for the ring entry points of the network engine: values and derivative sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from tnlab import network
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


@settings(max_examples=12, deadline=None)
@given(case=_cases())
def test_sweeps_equal_contractions_with_one_site_replaced(case):
    # both orientations: l1 > l2 transposes the grid, l1 <= l2 does not
    l1, l2, D, site, seed = case
    d = 2
    ket, dket = _tensors(l1, l2, D, d, seed)
    rng = np.random.default_rng(seed)
    op = random_hermitian(d, rng)
    phi = rng.standard_normal((l1, l2, d)) + 1j * rng.standard_normal((l1, l2, d))

    double = _replaced(network.site_double_tensor(ket), site,
                       network.site_double_tensor(ket[site], op=op))
    value, sweep = network.bra_ket(ket, dket, site, op)
    assert sweep.shape == (l1, l2)
    assert _close(value, _contract_both_ways(double).real)
    expected = np.empty((l1, l2), dtype=complex)
    for x, y in np.ndindex(l1, l2):
        tensor = network.site_double_tensor(dket[x, y], bra=ket[x, y],
                                            op=op if (x, y) == site else None)
        expected[x, y] = network.contract(_replaced(double, (x, y), tensor))
    assert _close(sweep, expected)

    single = network.site_single_tensor(ket, phi)
    value, sweep = network.overlap(ket, phi, dket)
    assert sweep.shape == (l1, l2)
    assert _close(value, _contract_both_ways(single))
    for x, y in np.ndindex(l1, l2):
        tensor = network.site_single_tensor(dket[x, y], phi[x, y])
        expected[x, y] = network.contract(_replaced(single, (x, y), tensor))
    assert _close(sweep, expected)


@pytest.mark.parametrize("with_sweep", [False, True])
def test_bra_ket_rejects_non_hermitian_op(with_sweep):
    ket, dket = _tensors(2, 3, 2, 2, 0)
    op = 1j * np.eye(2)  # anti-Hermitian: <op> = i <psi|psi>
    with pytest.raises(RuntimeError, match="imaginary part"):
        network.bra_ket(ket, dket if with_sweep else None, (1, 2), op)
