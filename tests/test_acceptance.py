"""Acceptance suite: every criterion at its stated tolerance, one summary line each.

Statistical criteria use fixed seeds; sample counts meet or exceed the stated
minimums and the runtime assertions enforce the stated budgets.
"""

import time

import numpy as np
import pytest

import tnlab
from tnlab.bounds import norm_excess_bound
from tnlab.lattice import LatticeSpec
from tnlab.losses import (GLOBAL_NORMALIZED, LOCAL_NORMALIZED, LOCAL_UNNORMALIZED,
                          LossSpec, gradient_map, loss_value, plus_projector, plus_target,
                          traceless_observable)
from tnlab.polyomino import (directed_gf, enumerate_directed, series_coefficients, stats,
                             verify_decomposition)
from tnlab.spinmodel import (all_config_amplitudes, exact_partition_function,
                             global_loss_weights, mc_second_moment, norm_weights)
from tnlab.states import build_state, build_states, norm_squared
from tnlab.tensors import second_moment_channel
from tnlab.variance import distance_profile, variance_scan

from conftest import record_criterion
from oracles import sample_unitaries, table_from_boltzmann


def test_criterion_01_second_moment_channel_oracle():
    start = time.monotonic()
    n, samples = 8, 100_000
    rng = np.random.default_rng(101)
    x = np.zeros((n, n, n, n), dtype=complex)
    x[0, 0, 0, 0] = 1.0  # (|0><0|) x (|0><0|)
    exact = second_moment_channel(x)
    acc = np.zeros_like(exact)
    done = 0
    while done < samples:
        chunk = min(4096, samples - done)
        u = sample_unitaries(n, chunk, rng)[:, :, 0]
        p = (u[:, :, None] * u.conj()[:, None, :]).reshape(chunk, n * n)  # p[b, (i, j)] = u_i u*_j
        acc += (p.T @ p).reshape(n, n, n, n)
        done += chunk
    mc = acc / samples
    dev = np.abs(exact - mc).max()
    elapsed = time.monotonic() - start
    ok = dev < 5e-3 and elapsed < 120
    record_criterion(1, "second-moment channel matches Monte-Carlo Haar averaging",
                     ok, f"max dev {dev:.2e}, {elapsed:.0f}s")
    assert dev < 5e-3
    assert elapsed < 120


def test_criterion_02_norm_statistics():
    start = time.monotonic()
    rng = np.random.default_rng(102)
    table = norm_weights(2, 2)
    details = []
    ok = True
    for l1, l2 in ((2, 2), (2, 3), (3, 3)):
        spec = LatticeSpec(l1, l2, 2, 2)
        z = exact_partition_function(l1, l2, table).z
        est, se = mc_second_moment(spec, 5000, rng)
        ok = ok and abs(est - z) <= 3 * se
        # the same 5,000 states and norms as one by one, drawn and contracted 50 at a time
        norms = np.concatenate([norm_squared(build_states(spec, [rng] * 50)) for _ in range(100)])
        mean_se = norms.std(ddof=1) / np.sqrt(len(norms))
        ok = ok and abs(norms.mean() - 1.0) <= 3 * mean_se
        details.append(f"{l1}x{l2}: |dZ|/se={abs(est - z) / se:.2f}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 600
    record_criterion(2, "exact partition function matches E[<psi|psi>^2]; E[<psi|psi>] = 1",
                     ok, "; ".join(details) + f", {elapsed:.0f}s")
    assert ok


def test_criterion_03_concentration_trend():
    table = norm_weights(2, 2)
    sides = range(2, 9)
    excess = [exact_partition_function(L, L, table).excited_sum for L in sides]
    decreasing = all(a > b for a, b in zip(excess, excess[1:]))
    bounded = all(e <= norm_excess_bound(L, 2, 2) for L, e in zip(sides, excess))
    record_criterion(3, "Z - 1 strictly decreases with L and respects the tail bound",
                     decreasing and bounded,
                     ", ".join(f"L={L}: {e:.2e}" for L, e in zip(sides, excess)))
    assert decreasing and bounded


def test_criterion_04_table_consistency():
    worst = 0.0
    for D in (2, 3):
        for d in (2, 3):
            for field, closed in ((True, norm_weights), (False, global_loss_weights)):
                dev = np.abs(closed(D, d) - table_from_boltzmann(D, d, field)).max()
                worst = max(worst, dev)
    record_criterion(4, "bottom-layer sums reproduce all 16 table entries to 1e-12",
                     worst <= 1e-12, f"worst dev {worst:.1e}")
    assert worst <= 1e-12


def test_criterion_05_polyomino_counts():
    start = time.monotonic()
    enum = enumerate_directed(10)
    series = series_coefficients(10)
    counts_match = enum.counts == series.counts
    ref = frozenset({(-3, -1), (-2, -1), (-1, -2), (-1, -1), (-1, 0), (0, 0)})
    ref_ok = stats(ref) == (6, 14, 3)
    g_val = directed_gf(0.54, 0.25)
    g_ok = 2.8 < g_val <= 2.9
    elapsed = time.monotonic() - start
    ok = counts_match and ref_ok and g_ok and elapsed < 300
    record_criterion(5, "enumeration equals series coefficients; reference stats; G value",
                     ok, f"G(0.54,0.25)={g_val:.4f}, {elapsed:.0f}s")
    assert ok


def test_criterion_06_toric_decomposition():
    start = time.monotonic()
    rep3 = verify_decomposition(3)
    rep4 = verify_decomposition(4)
    elapsed = time.monotonic() - start
    ok = rep3.ok and rep4.ok and elapsed < 300
    record_criterion(6, "toric-to-plane decomposition invariants hold exhaustively",
                     ok, f"L=3: {rep3.n_valid} configs, L=4: {rep4.n_valid} configs, "
                         f"{elapsed:.0f}s")
    assert ok


def test_criterion_07_gradient_oracle():
    rng = np.random.default_rng(107)
    spec = LatticeSpec(2, 2, 2, 2)
    target = plus_target(spec)
    proj = plus_projector(2)
    losses = [
        LossSpec(kind="global_pure", target=target),
        LossSpec(kind="global_normalized", target=target),
        LossSpec(kind="local_unnormalized", observable=proj, site=(0, 1)),
        LossSpec(kind="local_normalized", observable=proj, site=(1, 1)),
    ]

    def fd(state, site, loss, h=1e-5):
        def shifted(dt):
            return state.with_theta(*site, state.theta[site] + dt)
        return (loss_value(shifted(h), loss) - loss_value(shifted(-h), loss)) / (2 * h)

    worst = 0.0
    for i in range(100):
        state = build_state(spec, rng)
        loss = losses[i % 4]
        grid = gradient_map(state, loss)
        for site in spec.sites():
            rel = abs(grid[site] - fd(state, site, loss)) / max(abs(grid[site]), 1e-12)
            worst = max(worst, rel)
    record_criterion(7, "analytic gradients match central finite differences (rel 1e-6)",
                     worst <= 1e-6, f"worst rel dev {worst:.1e}")
    assert worst <= 1e-6


def test_criterion_08_global_barren_plateau():
    start = time.monotonic()
    sizes = [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]
    means = {}
    for l1, l2 in sizes:
        spec = LatticeSpec(l1, l2, 2, 2)
        loss = LossSpec(kind=GLOBAL_NORMALIZED, target=plus_target(spec))
        report = variance_scan(spec, loss, 400, seed=31415)
        means[spec.n_sites] = float(np.mean(report.variance))
    volumes = sorted(means)
    decreasing = all(means[a] > means[b] for a, b in zip(volumes, volumes[1:]))
    log_means = np.log([means[v] for v in volumes])
    coef = np.polyfit(volumes, log_means, 1)
    pred = np.polyval(coef, volumes)
    r2 = 1.0 - np.sum((log_means - pred) ** 2) / np.sum((log_means - log_means.mean()) ** 2)
    elapsed = time.monotonic() - start
    ok = decreasing and coef[0] < 0 and r2 >= 0.9 and elapsed < 1800
    record_criterion(8, "global-loss variance decays exponentially with site count",
                     ok, f"slope {coef[0]:.2f}/site, R^2 {r2:.4f}, {elapsed:.0f}s")
    assert decreasing
    assert coef[0] < 0
    assert r2 >= 0.9
    assert elapsed < 1800


def test_criterion_09_local_loss_structure():
    start = time.monotonic()
    spec = LatticeSpec(4, 5, 2, 2)
    obs_site = (0, 0)
    loss = LossSpec(kind=LOCAL_NORMALIZED, observable=plus_projector(2), site=obs_site)
    report = variance_scan(spec, loss, 500, seed=20250810)
    argmax = np.unravel_index(np.argmax(report.variance), report.variance.shape)
    peak_ok = tuple(argmax) == obs_site
    profile = distance_profile(report)
    deltas = sorted(profile)
    monotone_ok = all(
        profile[b][0] <= profile[a][0] + 2 * np.hypot(profile[a][1], profile[b][1])
        for a, b in zip(deltas, deltas[1:]))
    slope = np.polyfit(deltas, [np.log(profile[d][0]) for d in deltas], 1)[0]
    ok = peak_ok and monotone_ok and slope < 0
    elapsed = time.monotonic() - start
    record_criterion(9, "local-loss variance peaks at the observable site and decays with distance",
                     ok, f"peak at {tuple(int(v) for v in argmax)}, log-slope {slope:.2f}, "
                         f"{elapsed:.0f}s")
    assert peak_ok
    assert monotone_ok
    assert slope < 0


def test_criterion_10_onsite_floor():
    loss = LossSpec(kind=LOCAL_UNNORMALIZED, observable=traceless_observable(2), site=(0, 0))
    specs = [LatticeSpec(2, 3, 2, 2), LatticeSpec(3, 3, 2, 2), LatticeSpec(3, 4, 2, 2)]
    reports = [variance_scan(spec, loss, 400, seed=999 + i) for i, spec in enumerate(specs)]
    values = [float(r.variance[0, 0]) for r in reports]
    band_ok = max(values) / min(values) <= 3.0
    positive_ok = all(v > 3 * float(r.std_error[0, 0]) for v, r in zip(values, reports))
    ok = band_ok and positive_ok
    record_criterion(10, "on-site local-loss variance stays in a factor-3 band across sizes",
                     ok, f"band ratio {max(values) / min(values):.2f}")
    assert band_ok
    assert positive_ok


def test_criterion_11_zero_classification_and_amplitude_bound():
    table = norm_weights(2, 2)
    q_a = table[1, 1, 1]
    q_p = table[0, 0, 1]
    q_u = q_p**2
    ok = True
    for L in (2, 3, 4):
        amps = all_config_amplitudes(L, L, table)
        n_cfg = len(amps)
        codes = np.arange(n_cfg, dtype=np.uint32)
        bits = ((codes[:, None] >> np.arange(L * L, dtype=np.uint32)) & 1).astype(bool)
        grids = bits.reshape(n_cfg, L, L)
        right = np.roll(grids, -1, axis=2)
        down = np.roll(grids, -1, axis=1)
        is_zero_class = (grids & ~right & ~down).any(axis=(1, 2))
        ok = ok and np.array_equal(amps == 0.0, is_zero_class)
        valid = ~is_zero_class & grids.any(axis=(1, 2))
        m = grids.sum(axis=(1, 2))
        p = (grids != right).sum(axis=(1, 2)) + (grids != down).sum(axis=(1, 2))
        n_up = (~grids & down).sum(axis=(1, 2))
        bound_p = q_a**m * q_p**p
        bound_u = q_a**m * q_u**n_up
        ok = ok and np.all(amps[valid] <= bound_p[valid] + 1e-15)
        ok = ok and np.all(bound_p[valid] <= bound_u[valid] + 1e-15)
    record_criterion(11, "zero amplitudes match the classifier; area/perimeter bound holds",
                     ok)
    assert ok
