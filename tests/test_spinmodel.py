"""Tests for the two-layer spin model: weight tables, amplitudes, partition functions."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import tnlab
from tnlab import network
from tnlab.cli import EXIT_RESOURCE, main
from tnlab.errors import ResourceLimitError
from tnlab.lattice import LatticeSpec
from tnlab.spinmodel import (all_config_amplitudes, exact_partition_function,
                             global_loss_weights, mc_second_moment, norm_weights)
from tnlab.states import check_state_budget, sample_bytes

from oracles import (ConfigClass, IsingCouplings, classify_config, closed_global_loss_weights,
                     closed_norm_weights, exact_partition_function_two_layer,
                     table_from_boltzmann, two_layer_site_weight)

DOWN, UP = 0, 1


def test_norm_table_values_at_2_2():
    f = norm_weights(2, 2)
    assert f[DOWN, DOWN, DOWN] == 1.0
    assert f[UP, DOWN, DOWN] == 0.0
    assert abs(f[DOWN, DOWN, UP] - 30 / 63) < 1e-15
    assert abs(f[DOWN, UP, UP] - 12 / 63) < 1e-15
    assert abs(f[UP, DOWN, UP] - 12 / 63) < 1e-15
    assert abs(f[UP, UP, UP] - 30 / 63) < 1e-15


def test_norm_table_structure():
    for D in (2, 3):
        for d in (2, 3):
            v = norm_weights(D, d)
            assert v[DOWN, DOWN, DOWN] == 1.0
            assert v[UP, DOWN, DOWN] == 0.0
            assert np.abs(v - v.transpose(0, 2, 1)).max() < 1e-15  # last-two symmetry
            assert v.min() >= 0.0 and v.max() <= 1.0
            # every excitation and every unequal neighbor pair costs a factor < 1
            for s1 in (DOWN, UP):
                for s2 in (DOWN, UP):
                    for s3 in (DOWN, UP):
                        if s1 == UP or s1 != s2 or s1 != s3:
                            assert v[s1, s2, s3] < 1.0


def test_global_table_values_at_2_2():
    g = global_loss_weights(2, 2)
    assert abs(g[DOWN, DOWN, DOWN] - 15.5 / 63) < 1e-15
    assert abs(g[DOWN, DOWN, UP] - 7 / 63) < 1e-15
    assert abs(g[UP, DOWN, DOWN] - 2 / 63) < 1e-15
    assert g[DOWN, DOWN, DOWN] == g[UP, UP, UP]
    assert g.max() == g[DOWN, DOWN, DOWN]
    assert 2 * g[DOWN, DOWN, DOWN] < 1.0


def test_couplings_fields():
    c = IsingCouplings(2, 2)
    assert abs(c.j2.real - np.log(8)) < 1e-15
    assert abs(c.j2.imag - np.pi) < 1e-15
    assert abs(c.j1 - np.log(2)) < 1e-15
    assert abs(c.hz - np.log(2)) < 1e-15


def test_site_weight_finite_nonzero():
    c = IsingCouplings(2, 2)
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                for s4 in (1, -1):
                    w = two_layer_site_weight(c, s1, s2, s3, s4)
                    assert np.isfinite(w) and w != 0


@pytest.mark.parametrize("D", (2, 3))
@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("closed, field", ((norm_weights, True), (global_loss_weights, False)),
                         ids=("norm", "global"))
def test_bottom_layer_sum_reproduces_tables(D, d, closed, field):
    rebuilt = table_from_boltzmann(D, d, field)
    assert np.abs(closed(D, d) - rebuilt).max() < 1e-12
    if field:
        assert abs(rebuilt[DOWN, DOWN, DOWN] - 1.0) < 1e-12


@settings(max_examples=200, deadline=None)
@given(D=hst.integers(2, 10**6),
       d=hst.one_of(hst.integers(2, 10**6), hst.sampled_from((10**8, 10**15, 10**17))))
@example(D=3, d=10**8)
@example(D=3, d=10**15)
@example(D=3, d=10**17)
def test_weingarten_sum_gives_the_closed_forms(D, d):
    # both the norm closed form (int / int entries) and the sum round once, so they agree
    # to the bit; the global closed form rounds 1.0 / d, its numerator and its int
    # denominator before it divides, which leaves it up to two spacings from the sum
    assert np.array_equal(norm_weights(D, d), closed_norm_weights(D, d))
    closed = closed_global_loss_weights(D, d)
    assert np.all(np.abs(global_loss_weights(D, d) - closed) <= 2 * np.spacing(closed))


@settings(max_examples=100, deadline=None)
@given(D=hst.integers(2, 2**31 - 1), d=hst.integers(2, 2**31 - 1),
       kind=hst.sampled_from((np.int32, np.int64, np.uint32, np.uint64)))
@example(D=300, d=100, kind=np.int64)  # n (n^2 - 1) overflows int64 here
def test_numpy_integer_dims_give_the_python_int_tables(D, d, kind):
    for build in (norm_weights, global_loss_weights):
        assert np.array_equal(build(kind(D), kind(d)), build(D, d))


def test_closed_forms_keep_their_symmetries():
    for D, d in itertools.product(range(2, 7), repeat=2):
        f, g = norm_weights(D, d), global_loss_weights(D, d)
        assert f.shape == g.shape == (2, 2, 2) and f.dtype == g.dtype == np.float64
        # right and down neighbors enter alike
        assert np.array_equal(f, f.transpose(0, 2, 1)) and np.array_equal(g, g.transpose(0, 2, 1))
        # the field makes the all-down site weigh 1 and a lone up spin 0
        assert f[DOWN, DOWN, DOWN] == 1.0 and f[UP, DOWN, DOWN] == 0.0
        assert f.min() >= 0.0 and f.max() <= 1.0
        # without a field, flipping every spin changes no weight
        assert np.array_equal(g, g[::-1, ::-1, ::-1])
        assert g.max() == g[DOWN, DOWN, DOWN]


def test_classify_config():
    assert classify_config(np.zeros((3, 3), dtype=bool)) is ConfigClass.GROUND
    single = np.zeros((3, 3), dtype=bool)
    single[1, 1] = True
    assert classify_config(single) is ConfigClass.ZERO
    row = np.zeros((3, 3), dtype=bool)
    row[0, :] = True
    assert classify_config(row) is ConfigClass.VALID


def test_config_amplitude_examples():
    f = norm_weights(2, 2)
    amps = all_config_amplitudes(3, 3, f)
    assert amps[0] == 1.0  # all down
    assert amps[1] == 0.0  # site (0, 0) up alone
    # code 7 is row 0 up: three (up, up-right, down-below) sites, three below-row sites
    expected = f[UP, UP, DOWN] ** 3 * f[DOWN, DOWN, UP] ** 3
    assert abs(amps[7] - expected) < 1e-15


def test_zero_amplitude_iff_classified_zero_small():
    f = norm_weights(2, 2)
    for L in (2, 3):
        amps = all_config_amplitudes(L, L, f)
        for code, amp in enumerate(amps):
            bits = (code >> np.arange(L * L)) & 1
            cls = classify_config(bits.reshape(L, L).astype(bool))
            assert (amp == 0.0) == (cls is ConfigClass.ZERO)


def test_partition_function_decreases_and_exceeds_one():
    f = norm_weights(2, 2)
    z2 = exact_partition_function(2, 2, f)
    z3 = exact_partition_function(3, 3, f)
    assert z2.z >= 1.0 and z3.z >= 1.0
    assert z2.ground_value == 1.0
    assert abs(z2.z - (1.0 + z2.excited_sum)) < 1e-14
    assert z3.excited_sum < z2.excited_sum


def test_partition_function_matches_two_layer_sum():
    for closed, field in ((norm_weights, True), (global_loss_weights, False)):
        z_table = exact_partition_function(2, 2, closed(2, 2)).z
        z_two = exact_partition_function_two_layer(2, 2, 2, 2, field)
        assert abs(z_table - z_two) < 1e-12


@settings(max_examples=40, deadline=None)
@given(l1=hst.integers(2, 4), l2=hst.integers(2, 4),
       values=hst.lists(hst.floats(0.05, 1.0), min_size=8, max_size=8))
def test_partition_function_matches_enumeration_on_random_tables(l1, l2, values):
    # random tables are not symmetric in (right, down), so this pins the leg
    # orientation of the network site tensor, transposed layouts included
    table = np.array(values).reshape(2, 2, 2)
    z = exact_partition_function(l1, l2, table).z
    z_enum = all_config_amplitudes(l1, l2, table).sum()
    assert abs(z - z_enum) <= 1e-12 * abs(z_enum)


@pytest.mark.parametrize("l1, l2", ((1, 3), (3, 1)))
def test_partition_function_rejects_single_row(l1, l2):
    with pytest.raises(ValueError):
        exact_partition_function(l1, l2, norm_weights(2, 2))


def test_global_partition_bounded_by_max_entry():
    for L in (2, 3, 4):
        g = global_loss_weights(2, 2)
        z = exact_partition_function(L, L, g).z
        assert z <= 2 ** (L * L) * g[DOWN, DOWN, DOWN] ** (L * L - 1)


def test_area_perimeter_bound_on_amplitudes():
    # every nonzero amplitude obeys A <= q_a^m q_p^p <= q_a^m q_u^n
    f = norm_weights(2, 2)
    q_a = f[UP, UP, UP]
    q_p = f[DOWN, DOWN, UP]
    q_u = q_p**2
    for L in (2, 3):
        amps = all_config_amplitudes(L, L, f)
        for code, amp in enumerate(np.asarray(amps)):
            if amp == 0.0 or code == 0:
                continue
            grid = ((code >> np.arange(L * L)) & 1).reshape(L, L).astype(bool)
            m = int(grid.sum())
            right = np.roll(grid, -1, axis=1)
            down = np.roll(grid, -1, axis=0)
            p = int((grid != down).sum() + (grid != right).sum())
            n = int((~grid & down).sum())
            assert amp <= q_a**m * q_p**p + 1e-15
            assert q_a**m * q_p**p <= q_a**m * q_u**n + 1e-15


def test_mc_second_moment_consistent_with_exact():
    rng = np.random.default_rng(77)
    spec = LatticeSpec(2, 2, 2, 2)
    est, se = mc_second_moment(spec, 600, rng)
    z = exact_partition_function(2, 2, norm_weights(2, 2)).z
    assert abs(est - z) <= 3 * se
    assert est >= 1.0 - 3 * se
    assert est - 1.0 >= -3 * se


@pytest.mark.parametrize("D, d", [(2, 3), (3, 2)])
def test_mc_second_moment_finds_the_z_of_its_bond_and_physical_dims(D, d):
    # off the D = d diagonal, where a swap of D and d in the table would show: at this seed
    # (not chosen to pass) the estimate lies +0.97 SE (D, d = 2, 3) and +0.05 SE (3, 2)
    # from Z, and -4.31 SE and +3.38 SE from the Z of the swapped table
    est, se = mc_second_moment(LatticeSpec(2, 2, D, d), 2000, np.random.default_rng(12345))
    z = exact_partition_function(2, 2, norm_weights(D, d)).z
    assert abs(est - z) <= 3 * se


def _recording_chunks(monkeypatch):
    """The sizes of the chunks of states that the sample loop builds, as it builds them."""
    sizes = []
    build = tnlab.variance.build_states

    def recording(spec, rngs):
        sizes.append(len(rngs))
        return build(spec, rngs)

    monkeypatch.setattr(tnlab.variance, "build_states", recording)
    return sizes


@pytest.mark.parametrize("fits, chunks", [(3, [3, 3, 3, 1]), (1, [1] * 10)])
def test_a_chunk_never_passes_the_network_budget(fits, chunks, monkeypatch):
    # with a budget of what a chunk of `fits` states is charged, the chunk shrinks to that
    # many, and every chunk passes the state and ring charges, which count the sample axis
    spec = LatticeSpec(2, 3, 2, 2)
    expected = mc_second_moment(spec, 10, np.random.default_rng(5))
    monkeypatch.setattr(network, "NETWORK_BUDGET", sample_bytes(spec, fits) + 1)
    sizes = _recording_chunks(monkeypatch)
    assert mc_second_moment(spec, 10, np.random.default_rng(5)) == expected
    assert sizes == chunks


def test_the_state_and_ring_charges_count_the_sample_axis(monkeypatch):
    spec = LatticeSpec(2, 3, 2, 2)
    ring = (2, 3, 2, 2, 2, 2, 2)  # the shape of one state's site tensors
    states, rings = check_state_budget(spec, 3), network.check_bra_ket((3, *ring))
    assert states == 3 * check_state_budget(spec)
    # numpy's buffers are charged once per call, whatever the chunk
    buffers = network.BUFFER_BYTES
    assert rings - buffers == 3 * (network.check_bra_ket(ring) - buffers)
    monkeypatch.setattr(network, "NETWORK_BUDGET", states)
    with pytest.raises(ResourceLimitError, match="4 states of 6 sites of 8 x 8 unitaries need"):
        check_state_budget(spec, 4)
    monkeypatch.setattr(network, "NETWORK_BUDGET", rings)
    with pytest.raises(ResourceLimitError, match="4 rings of 3 columns of 2 sites need about"):
        network.check_bra_ket((4, *ring))


@pytest.mark.parametrize("argv", [["--sizes", "6x6"], ["--bond-dim", "64", "--sizes", "2x2"]],
                         ids=["ring", "state"])
def test_an_oversized_norm_estimate_exits_before_any_draw(argv, tmp_path, monkeypatch):
    # one state's ring (6x6) or one state's draws (8192 x 8192 unitaries) above the budget
    sizes = _recording_chunks(monkeypatch)
    assert main(["norm-stats", *argv, "--samples", "10", "--seed", "2",
                 "--out", str(tmp_path / "x")]) == EXIT_RESOURCE
    assert sizes == []


def _table_with(entry):
    """The D = d = 2 norm table with entry added at (up, up, up), in entry's type."""
    table = norm_weights(2, 2).astype(type(entry))
    table[UP, UP, UP] += entry
    return table


@pytest.mark.parametrize("call, error, message", [
    (lambda: exact_partition_function(2, 2, np.ones((2, 2))), ValueError,
     "weight table must have shape (2, 2, 2)"),
    (lambda: all_config_amplitudes(2, 2, np.ones((2, 2, 2, 2))), ValueError,
     "weight table must have shape (2, 2, 2)"),
    (lambda: exact_partition_function(2, 2, _table_with(0.3j)), ValueError,
     "weight table must be real and finite"),
    (lambda: exact_partition_function(2, 2, _table_with(np.nan)), ValueError,
     "weight table must be real and finite"),
    (lambda: all_config_amplitudes(2, 2, _table_with(0.3j)), ValueError,
     "weight table must be real and finite"),
    (lambda: all_config_amplitudes(2, 2, _table_with(np.inf)), ValueError,
     "weight table must be real and finite"),
    (lambda: norm_weights(1, 2), ValueError, "D and d must be >= 2"),
    (lambda: global_loss_weights(2, 1), ValueError, "D and d must be >= 2"),
    (lambda: norm_weights(2.5, 2), ValueError, "D and d must be >= 2 (integers, not bool)"),
    (lambda: global_loss_weights(2, 2.0), ValueError, "D and d must be >= 2 (integers, not bool)"),
    (lambda: norm_weights(True, 2), ValueError, "D and d must be >= 2 (integers, not bool)"),
    (lambda: global_loss_weights(2, True), ValueError, "D and d must be >= 2 (integers, not bool)"),
    (lambda: mc_second_moment(LatticeSpec(2, 2, 2, 2), 1, np.random.default_rng(0)),
     ValueError, "need at least 2 samples"),
    (lambda: all_config_amplitudes(2, 13, norm_weights(2, 2)), ResourceLimitError,
     "2**26 configurations exceed cap 33554432"),
], ids=["table-shape", "amplitudes-table-shape", "complex-table", "nan-table",
        "amplitudes-complex-table", "amplitudes-inf-table", "norm-D", "global-d", "norm-float-D",
        "global-float-d", "norm-bool-D", "global-bool-d", "one-sample",
        "partition-cap"])
def test_spin_model_rejects_bad_input_before_allocating(call, error, message):
    tracemalloc.start()
    try:
        with pytest.raises(error, match=re.escape(message)):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
