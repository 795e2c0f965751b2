"""Tests for the closed-form bound evaluators."""

import itertools
import warnings
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import tnlab
from tnlab import bounds
from tnlab.bounds import (GF_RESCALE, global_variance_bound, global_variance_ratio,
                          norm_excess_bound, onsite_floor_prefactors)
from tnlab.lattice import LatticeSpec
from tnlab.losses import GLOBAL_PURE, LossSpec, plus_target
from tnlab.polyomino import directed_gf
from tnlab.spinmodel import exact_partition_function, global_loss_weights, norm_weights
from tnlab.variance import variance_scan

from oracles import closed_global_variance_ratio, closed_onsite_floor_prefactors

NORM_DECAY_RATE = 0.97  # headline rate of the norm-concentration statement


def test_decay_parameters_at_2_2():
    tab = norm_weights(2, 2)
    q_a = tab[1, 1, 1]
    p_u = tab[0, 0, 1] ** 2
    assert q_a <= 0.5
    assert p_u <= 0.25


def test_norm_excess_bound_dominates_exact_values():
    tab = norm_weights(2, 2)
    for L, report in zip((2, 3, 4), bounds.reports(2, 2, [2, 3, 4])):
        z = exact_partition_function(L, L, tab).z
        assert report.params == {"L": L, "D": 2, "d": 2}
        assert report.satisfied
        assert report.compared == z - 1.0
        assert report.slack > 1.0


@pytest.mark.parametrize("L", [139, 150, 189])
def test_an_infinite_bound_is_never_satisfied(L):
    # at D = d = 2 the norm bound overflows to inf for L = 139..189; inf bounds nothing
    report = bounds._upper_report("norm_excess", {}, norm_excess_bound(L, 2, 2), 0.5)
    assert report.bound == np.inf
    assert not report.satisfied and not asdict(report)["satisfied"]


def test_norm_excess_bound_asymptotic_rate():
    # once the single-string branch dominates, successive bounds shrink at
    # least as fast as the headline rate times the polynomial correction
    for L in (400, 500):
        ratio = norm_excess_bound(L + 1, 2, 2) / norm_excess_bound(L, 2, 2)
        assert ratio <= NORM_DECAY_RATE * (1 + 1.0 / L) ** 3
        assert ratio <= 1.0
    assert GF_RESCALE < NORM_DECAY_RATE


def test_global_variance_ratio_below_one_on_grid():
    for D in (2, 3, 4):
        for d in (2, 3, 4):
            assert global_variance_ratio(D, d) < 1.0
    assert abs(global_variance_ratio(2, 2) - 31.0 / 63.0) < 1e-15


def test_bounds_read_entries_of_the_global_table():
    # the decay ratio is twice the no-flip entry, the generic on-site floor a lone-flip entry
    for D, d in itertools.product(range(2, 7), repeat=2):
        g = global_loss_weights(D, d)
        assert global_variance_ratio(D, d) == 2 * g[0, 0, 0]
        generic, _ = onsite_floor_prefactors(D, d)
        assert generic == g[1, 0, 0]


@settings(max_examples=300, deadline=None)
@given(D=hst.integers(2, 29), d=hst.integers(2, 29))
@example(D=3, d=3)
def test_bounds_are_the_correctly_rounded_rationals(D, d):
    # over (D, d) in {2..29}^2, 413 of the 2,352 closed-form values miss the rational by
    # one or two spacings: they round 1.0 / d, the numerator and the denominator first
    n = D * D * d
    exact = (Fraction(2 * (D**4 * d - 1), d * (n * n - 1)),
             Fraction(D * D * (d - 1), d * (n * n - 1)),
             Fraction(2 * D * D, n * n - 1))
    values = (global_variance_ratio(D, d), *onsite_floor_prefactors(D, d))
    closed = (closed_global_variance_ratio(D, d), *closed_onsite_floor_prefactors(D, d, 2.0))
    assert values == tuple(float(q) for q in exact)
    assert all(abs(v - c) <= 2 * np.spacing(c) for v, c in zip(values, closed))
    for dims in ((float(D), d), (D, float(d)), (True, d)):
        for value in (lambda: global_variance_ratio(*dims),
                      lambda: onsite_floor_prefactors(*dims),
                      lambda: global_loss_weights(*dims)):
            with pytest.raises(ValueError):
                value()


def test_global_variance_bound_decreases_with_volume():
    vals = [global_variance_bound(v, 2, 2) for v in (4, 6, 8, 9, 12, 16)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_global_variance_reports_fitted_at_smallest_size():
    # the empirical decay from 2x2 to 3x3 must stay below that of the
    # 2^V g_max^(V-1) envelope, whose unspecified constant cancels in the ratio
    variances = {}
    for l1, l2 in [(2, 2), (3, 3)]:
        spec = LatticeSpec(l1, l2, 2, 2)
        loss = LossSpec(kind=GLOBAL_PURE, target=plus_target(spec))
        report = variance_scan(spec, loss, 800, seed=606)
        variances[spec.n_sites] = float(np.mean(report.variance))
    v4, v9 = variances[4], variances[9]
    assert v9 <= v4 * global_variance_bound(9, 2, 2) / global_variance_bound(4, 2, 2)
    # the empirical (3,3)/(2,2) ratio sits far below ratio^5 with 10x slack
    ratio = v9 / v4
    assert ratio <= global_variance_ratio(2, 2) ** 5 * 10.0


def test_onsite_floor_prefactors():
    generic, scaled = onsite_floor_prefactors(2, 2)
    assert abs(generic - 2.0 / 63.0) < 1e-15
    assert abs(scaled - 8.0 / 63.0) < 1e-15


def test_reports_in_order_refusing_subnormal_prefactors_first(monkeypatch):
    names = [r.name for r in bounds.reports(2, 2, [2, 3])]
    assert names == 2 * ["norm_excess"] + 9 * ["global_variance_ratio"] + ["onsite_floor_prefactor"]

    def no_work(*args, **kwargs):
        raise AssertionError("a partition function was contracted")

    # at D = 10**154, d = 2 the generic prefactor is 1.25e-309: subnormal, not yet 0.0
    monkeypatch.setattr(bounds, "exact_partition_function", no_work)
    with pytest.raises(ValueError, match="on-site floor prefactors underflow"):
        bounds.reports(10**154, 2, [2])


def test_onsite_floor_prefactor_asymptotics():
    # vanishes like 1/(D^2 d^2) at large bond dimension
    vals = [onsite_floor_prefactors(D, 2)[0] for D in (8, 16, 32)]
    for D, v in zip((8, 16, 32), vals):
        assert 0.2 < v * (D**2 * 4) < 1.2
    assert vals[0] / vals[1] == pytest.approx(4.0, rel=0.05)


@pytest.mark.parametrize("D", [2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_norm_excess_bound_in_log_space_matches_the_direct_form(D, d):
    # the direct form L/(1-p_u) * max(x, x^L) overflows float64 at D = d = 2 for L = 139..189;
    # the log-space bound stays finite, and the bound is the direct form wherever that is finite
    tab = norm_weights(D, d)
    q_a, p_u = float(tab[1, 1, 1]), float(tab[0, 0, 1]) ** 2
    for L in range(2, 601):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_bound = bounds._log_norm_excess_bound(L, D, d)
            bound = norm_excess_bound(L, D, d)
        assert np.isfinite(log_bound)
        with np.errstate(over="ignore"):
            x = L * L / p_u * GF_RESCALE**L * directed_gf(q_a / GF_RESCALE, p_u)
            direct = (L / (1.0 - p_u)) * max(x, x**L)
        if np.isfinite(direct):
            assert bound == pytest.approx(direct, rel=1e-12)
        else:
            assert bound == np.inf and log_bound > np.log(np.finfo(float).max)
