"""Tests for the ring entry points of the network engine: values and derivative sweeps."""

import functools
import re
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


@pytest.mark.parametrize("l1, l2, d", [(2, 3, 2), (3, 2, 2), (2, 3, 3), (3, 2, 3)])
def test_overlap_sweep_equals_dense_overlaps_with_one_site_replaced(l1, l2, d):
    # each sweep entry is <phi|psi'>, psi' the state with that one site's tensor replaced by
    # its derivative, taken from the dense amplitudes: an oracle that shares no ring with
    # `overlap`, whose sweep `_check_sweeps` checks against `contract`, its own engine
    seed = l1 * 10 + d
    ket, dket = _tensors(l1, l2, 2, d, seed)
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((l1, l2, d)) + 1j * rng.standard_normal((l1, l2, d))
    # one leg per site in row-major (x, y) order, as `statevector` lays them out
    dense_phi = functools.reduce(np.multiply.outer, phi.reshape(-1, d))

    def dense_overlap(grid):
        return np.sum(dense_phi.conj() * network.statevector(grid))

    value, sweep = network.overlap(ket, phi, dket)
    assert _close(value, dense_overlap(ket))
    expected = np.array([[dense_overlap(_replaced(ket, (x, y), dket[x, y])) for y in range(l2)]
                         for x in range(l1)])
    assert sweep.shape == (l1, l2) and _close(sweep, expected)


def _not_built(*args):
    raise AssertionError("built before the shapes were checked")


@pytest.mark.parametrize("lead", [(3, 2), (2, 2), (1, 3), (3,)])
@pytest.mark.parametrize("entry", ["bra_ket", "overlap", "contract"])
def test_a_misshapen_derivative_grid_is_refused_before_any_column(entry, lead, monkeypatch):
    # on a 2x3 lattice a (3, 2) grid of derivatives would be swept as the transposed lattice,
    # a (2, 2) one would fail on a missing column, and a (1, 3) or (3,) one would be broadcast
    # by `site_single_tensor` against phi
    ket, _ = _tensors(2, 3, 2, 2, 0)
    phi = np.ones((2, 3, 2))
    grid = network.site_single_tensor(ket, phi)
    dket = np.zeros((*lead, *ket.shape[2:]), dtype=complex)
    dgrid = np.zeros((*lead, *grid.shape[2:]), dtype=complex)
    monkeypatch.setattr(network, "column_transfer", _not_built)
    monkeypatch.setattr(network, "site_single_tensor", _not_built)
    call = {"bra_ket": lambda: network.bra_ket(ket, dket),
            "overlap": lambda: network.overlap(ket, phi, dket),
            "contract": lambda: network.contract(grid, dgrid)}[entry]
    bad = dgrid if entry == "contract" else dket
    with pytest.raises(ValueError, match=re.escape(f"derivative tensors of shape {bad.shape}")):
        call()


@pytest.mark.parametrize("shape", [(2,), (3, 2), (1, 3, 2), (3, 2, 2), (2, 3, 3), (2, 3, 2, 1)])
def test_overlap_checks_the_shape_of_phi_before_anything_is_built(shape, monkeypatch):
    # `site_single_tensor` broadcasts, so phi of shape (2,), (3, 2) or (1, 3, 2) would pass it
    ket, _ = _tensors(2, 3, 2, 2, 0)
    monkeypatch.setattr(network, "site_single_tensor", _not_built)
    with pytest.raises(ValueError, match=re.escape(f"phi must have shape (2, 3, 2), got {shape}")):
        network.overlap(ket, np.ones(shape))


@pytest.mark.parametrize("with_sweep", [False, True])
def test_bra_ket_rejects_non_hermitian_op(with_sweep):
    # the op check runs whether or not the ring sweeps: an anti-Hermitian op, whose
    # <op> = i <psi|psi> no real ring can give, is refused with and without dket
    ket, dket = _tensors(2, 3, 2, 2, 0)
    op = 1j * np.eye(2)
    with pytest.raises(ValueError, match="op must be exactly Hermitian"):
        network.bra_ket(ket, dket if with_sweep else None, (1, 2), op)


@pytest.mark.parametrize("site, op, message", [
    ((6, 0), np.eye(2), "not a site"),
    ((0, 0), np.eye(3), "op must be 2 x 2"),
    (None, np.eye(2), "op needs a site"),
    ((0, 0), 1j * np.eye(2), "op must be exactly Hermitian"),
    # Hermitian to 4e-13, as `states.check_observable` accepts it, but not exactly
    ((0, 0), np.array([[1.0, 0.5 + 4e-13j], [0.5, -1.0]]), "op must be exactly Hermitian"),
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


def test_fold_must_return_real_numbers():
    # a complex (a, b) would make the op a op + b 1 non-Hermitian inside a real ring
    ket, dket = _tensors(2, 3, 2, 2, 0)
    with pytest.raises(ValueError, match=r"fold must return real \(a, b\), got \(1j, 0.5\)"):
        network.bra_ket(ket, dket, (1, 1), np.eye(2), lambda z, n: (1j, 0.5))
    # numbers with a zero imaginary part are real
    value, _ = network.bra_ket(ket, dket, (1, 1), np.eye(2), lambda z, n: (1 + 0j, 0.0))
    assert _close(value, network.bra_ket(ket, site=(1, 1), op=np.eye(2)))


def _hermitian_basis(n):
    """U = ((1 - i) 1 + (1 + i) SWAP) / 2 on a pair leg of n x n states."""
    swap = np.eye(n * n).reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(n * n, n * n)
    return ((1 - 1j) * np.eye(n * n) + (1 + 1j) * swap) / 2


@hst.composite
def _columns(draw):
    """A random ket column K[L, R, P] and a bra column op K (op acting on P), op the identity
    or a random Hermitian matrix."""
    nl, nr, n_p = draw(hst.integers(1, 4)), draw(hst.integers(1, 4)), draw(hst.integers(1, 5))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    ket = rng.standard_normal((nl, nr, n_p)) + 1j * rng.standard_normal((nl, nr, n_p))
    op = random_hermitian(n_p, rng) if draw(hst.booleans()) else np.eye(n_p)
    return ket, ket @ op.T, rng


@settings(max_examples=60, deadline=None)
@given(case=_columns())
def test_double_columns_are_the_ring_in_the_hermitian_basis(case):
    # M = U T U^dagger on both pair legs, real when the bra is the ket or a Hermitian op
    # of it; the sweep tensor takes a real environment E' back to the plain basis,
    # U^dagger E' U
    ket, bra, rng = case
    nl, nr, _ = ket.shape
    t = np.einsum("arp,bsp->abrs", ket, bra.conj()).reshape(nl * nl, nr * nr)
    scale = np.abs(t).max()
    dense = _hermitian_basis(nl) @ t @ _hermitian_basis(nr).conj().T
    assert np.abs(dense.imag).max() <= 1e-13 * scale
    m = network._double_column(ket, bra)
    assert m.dtype == np.float64 and m.shape == t.shape
    assert np.abs(m - dense).max() <= 1e-13 * scale
    env = rng.standard_normal((nr * nr, nl * nl))
    plain = _hermitian_basis(nr).conj().T @ env @ _hermitian_basis(nl)
    g = np.einsum("bsp,rsab->arp", bra.conj(), plain.reshape(nr, nr, nl, nl))
    assert np.abs(network._sweep_tensor(bra, env) - g).max() <= 1e-13 * np.abs(g).max()


def test_a_real_or_single_precision_ket_gives_the_complex128_value():
    # bra_ket takes any ket and op as complex128: real site tensors give the values that
    # `contract` gives for them, complex64 ones those of the same tensors cast up, and an
    # op given as nested lists that of the array
    ket, dket = _tensors(3, 4, 2, 2, 3)
    op = random_hermitian(2, np.random.default_rng(3))
    _check_op_sweep(ket.real, dket.real, (1, 2), op.real)
    low = ket.astype(np.complex64)
    assert network.bra_ket(low) == network.bra_ket(low.astype(complex))
    assert (network.bra_ket(low, site=(2, 1), op=op)
            == network.bra_ket(low.astype(complex), site=(2, 1), op=op))
    assert (network.bra_ket(ket, site=(2, 1), op=op.tolist())
            == network.bra_ket(ket, site=(2, 1), op=op))


@pytest.mark.parametrize("dtype", [np.complex64, np.clongdouble])
def test_an_op_of_any_complex_precision_gives_the_complex128_value(dtype):
    # bra_ket casts its op to complex128 once, so a complex64 or long-double op gives the
    # value and sweep of the same op cast down first
    ket, dket = _tensors(3, 4, 2, 2, 5)
    op = random_hermitian(2, np.random.default_rng(5)).astype(dtype)
    expected = network.bra_ket(ket, dket, (2, 1), op.astype(complex))
    value, sweep = network.bra_ket(ket, dket, (2, 1), op)
    assert value == expected[0]
    assert np.array_equal(sweep, expected[1])
