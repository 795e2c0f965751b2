"""Tests for the two-layer spin model: weight tables, amplitudes, partition functions."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import tnlab
from tnlab.lattice import LatticeSpec
from tnlab.spinmodel import (IsingCouplings, KIND_GLOBAL, KIND_NORM, all_config_amplitudes,
                             exact_partition_function, exact_partition_function_two_layer,
                             global_loss_weights, mc_second_moment, norm_weights,
                             table_from_boltzmann, two_layer_site_weight)

from oracles import ConfigClass, classify_config

DOWN, UP = 0, 1


def test_norm_table_values_at_2_2():
    f = norm_weights(2, 2)
    assert f(DOWN, DOWN, DOWN) == 1.0
    assert f(UP, DOWN, DOWN) == 0.0
    assert abs(f(DOWN, DOWN, UP) - 30 / 63) < 1e-15
    assert abs(f(DOWN, UP, UP) - 12 / 63) < 1e-15
    assert abs(f(UP, DOWN, UP) - 12 / 63) < 1e-15
    assert abs(f(UP, UP, UP) - 30 / 63) < 1e-15


def test_norm_table_structure():
    for D in (2, 3):
        for d in (2, 3):
            f = norm_weights(D, d)
            assert f(DOWN, DOWN, DOWN) == 1.0
            assert f(UP, DOWN, DOWN) == 0.0
            v = f.values
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
    assert abs(g(DOWN, DOWN, DOWN) - 15.5 / 63) < 1e-15
    assert abs(g(DOWN, DOWN, UP) - 7 / 63) < 1e-15
    assert abs(g(UP, DOWN, DOWN) - 2 / 63) < 1e-15
    assert g(DOWN, DOWN, DOWN) == g(UP, UP, UP)
    assert g.values.max() == g(DOWN, DOWN, DOWN)
    assert 2 * g(DOWN, DOWN, DOWN) < 1.0


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
@pytest.mark.parametrize("kind", (KIND_NORM, KIND_GLOBAL))
def test_bottom_layer_sum_reproduces_tables(D, d, kind):
    closed = norm_weights(D, d) if kind == KIND_NORM else global_loss_weights(D, d)
    rebuilt = table_from_boltzmann(D, d, kind)
    assert np.abs(closed.values - rebuilt.values).max() < 1e-12
    if kind == KIND_NORM:
        assert abs(rebuilt.values[DOWN, DOWN, DOWN] - 1.0) < 1e-12


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
    expected = f(UP, UP, DOWN) ** 3 * f(DOWN, DOWN, UP) ** 3
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
    for kind in (KIND_NORM, KIND_GLOBAL):
        table = norm_weights(2, 2) if kind == KIND_NORM else global_loss_weights(2, 2)
        z_table = exact_partition_function(2, 2, table).z
        z_two = exact_partition_function_two_layer(2, 2, 2, 2, kind)
        assert abs(z_table - z_two) < 1e-12


class _RandomTable:
    """Duck-typed weight table: WeightTable rejects values without its symmetries."""

    D, d, kind = 2, 2, "random"

    def __init__(self, values):
        self.values = values


@settings(max_examples=40, deadline=None)
@given(l1=hst.integers(2, 4), l2=hst.integers(2, 4),
       values=hst.lists(hst.floats(0.05, 1.0), min_size=8, max_size=8))
def test_partition_function_matches_enumeration_on_random_tables(l1, l2, values):
    # random tables are not symmetric in (right, down), so this pins the leg
    # orientation of the network site tensor, transposed layouts included
    table = _RandomTable(np.array(values).reshape(2, 2, 2))
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
        assert z <= 2 ** (L * L) * g(DOWN, DOWN, DOWN) ** (L * L - 1)


def test_area_perimeter_bound_on_amplitudes():
    # every nonzero amplitude obeys A <= q_a^m q_p^p <= q_a^m q_u^n
    f = norm_weights(2, 2)
    q_a = f(UP, UP, UP)
    q_p = f(DOWN, DOWN, UP)
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


def test_invalid_table_rejected_under_optimize():
    # the table invariants are real checks, so python -O keeps them
    code = ("import numpy as np\n"
            "from tnlab.spinmodel import WeightTable\n"
            "try:\n"
            "    WeightTable(2, 2, 'norm', np.zeros((2, 2, 2)))\n"
            "except ValueError:\n"
            "    print('rejected')\n")
    src = str(Path(tnlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"
