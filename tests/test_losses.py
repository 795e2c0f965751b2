"""Tests for loss evaluation and analytic gradients."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import tnlab
from tnlab.lattice import LatticeSpec
from tnlab.losses import (GLOBAL_NORMALIZED, GLOBAL_PURE, LOCAL_NORMALIZED,
                          LOCAL_UNNORMALIZED, LossSpec, gradient_map, loss_value,
                          plus_projector, plus_target, traceless_observable)
from tnlab.states import (TNState, build_state, local_expectation, norm_squared, overlap,
                          to_statevector)


def finite_difference(state, site, loss, h=1e-5):
    def shifted(dt):
        return state.with_theta(*site, state.site(*site).theta + dt)

    return (loss_value(shifted(h), loss) - loss_value(shifted(-h), loss)) / (2 * h)


def dense_overlap(psi, target):
    """<target|psi> with the product target's site vectors contracted one by one."""
    w = psi.reshape(-1)
    for v in target.reshape(-1, target.shape[-1]):
        w = v.conj() @ w.reshape(v.size, -1)
    return complex(w[0])


def dense_expectation(psi, spec, site, obs):
    """<psi| obs at site |psi> with the site's leg moved to the front."""
    k = site[0] * spec.l2 + site[1]
    front = np.moveaxis(psi, k, 0).reshape(spec.d, -1)
    return float(np.vdot(front, obs @ front).real)


def random_product_target(spec, rng):
    phi = rng.standard_normal((spec.l1, spec.l2, spec.d)) \
        + 1j * rng.standard_normal((spec.l1, spec.l2, spec.d))
    return phi / np.linalg.norm(phi, axis=2, keepdims=True)


def all_losses(spec):
    target = plus_target(spec)
    proj = plus_projector(spec.d)
    return [
        LossSpec(kind=GLOBAL_PURE, target=target),
        LossSpec(kind=GLOBAL_NORMALIZED, target=target),
        LossSpec(kind=LOCAL_UNNORMALIZED, observable=proj, site=(0, 1)),
        LossSpec(kind=LOCAL_NORMALIZED, observable=proj, site=(1, 0)),
    ]


def test_loss_spec_validation():
    spec = LatticeSpec(2, 2, 2, 2)
    with pytest.raises(ValueError):
        LossSpec(kind="nonsense", target=plus_target(spec))
    with pytest.raises(ValueError):
        LossSpec(kind=GLOBAL_PURE)
    with pytest.raises(ValueError):
        LossSpec(kind=LOCAL_UNNORMALIZED, observable=np.eye(2))
    with pytest.raises(ValueError):
        LossSpec(kind=LOCAL_UNNORMALIZED,
                 observable=np.array([[0, 1], [0, 0]]), site=(0, 0))
    LossSpec(kind=LOCAL_UNNORMALIZED, observable=traceless_observable(2), site=(0, 0))


def test_global_pure_matches_overlap_formula():
    spec = LatticeSpec(2, 2, 2, 2)
    rng = np.random.default_rng(20)
    st = build_state(spec, rng)
    target = plus_target(spec)
    loss = LossSpec(kind=GLOBAL_PURE, target=target)
    w = dense_overlap(to_statevector(st), target)
    assert abs(loss_value(st, loss) - (1.0 - abs(w) ** 2)) < 1e-12


def test_global_normalized_in_unit_interval():
    spec = LatticeSpec(2, 3, 2, 2)
    rng = np.random.default_rng(21)
    loss = LossSpec(kind=GLOBAL_NORMALIZED, target=plus_target(spec))
    for _ in range(10):
        val = loss_value(build_state(spec, rng), loss)
        assert 0.0 <= val <= 1.0


def test_local_projector_normalized_in_unit_interval():
    spec = LatticeSpec(2, 2, 2, 2)
    rng = np.random.default_rng(22)
    loss = LossSpec(kind=LOCAL_NORMALIZED, observable=plus_projector(2), site=(1, 1))
    for _ in range(10):
        val = loss_value(build_state(spec, rng), loss)
        assert 0.0 <= val <= 1.0


def test_local_unnormalized_matches_expectation():
    spec = LatticeSpec(2, 2, 2, 2)
    rng = np.random.default_rng(23)
    st = build_state(spec, rng)
    obs = traceless_observable(2)
    loss = LossSpec(kind=LOCAL_UNNORMALIZED, observable=obs, site=(0, 1))
    expected = dense_expectation(to_statevector(st), spec, (0, 1), obs)
    assert abs(loss_value(st, loss) - expected) < 1e-10


@settings(max_examples=25, deadline=None)
@given(l1=hst.integers(2, 3), l2=hst.integers(2, 3), D=hst.sampled_from([2, 3]),
       seed=hst.integers(0, 2**32 - 1), site_index=hst.integers(0, 8))
def test_network_values_match_dense_statevector(l1, l2, D, seed, site_index):
    spec = LatticeSpec(l1, l2, D, 2)
    rng = np.random.default_rng(seed)
    st = build_state(spec, rng)
    target = random_product_target(spec, rng)
    site = divmod(site_index % spec.n_sites, l2)
    obs = traceless_observable(2)
    psi = to_statevector(st)
    z = float(np.vdot(psi, psi).real)
    w = dense_overlap(psi, target)
    n = dense_expectation(psi, spec, site, obs)

    def close(value, expected, scale):
        assert abs(value - expected) <= 1e-10 * max(abs(expected), scale)

    close(norm_squared(st), z, z)
    close(overlap(st, target), w, np.sqrt(z))
    close(local_expectation(st, site, obs), n, z)
    close(loss_value(st, LossSpec(kind=GLOBAL_PURE, target=target)), 1.0 - abs(w) ** 2, 1.0)
    close(loss_value(st, LossSpec(kind=GLOBAL_NORMALIZED, target=target)),
          1.0 - abs(w) ** 2 / z, 1.0)
    close(loss_value(st, LossSpec(kind=LOCAL_UNNORMALIZED, observable=obs, site=site)), n, z)
    close(loss_value(st, LossSpec(kind=LOCAL_NORMALIZED, observable=obs, site=site)),
          n / z, 1.0)


def test_gradients_match_finite_differences():
    spec = LatticeSpec(2, 2, 2, 2)
    rng = np.random.default_rng(24)
    for _ in range(5):
        st = build_state(spec, rng)
        for loss in all_losses(spec):
            grid = gradient_map(st, loss)
            for site in spec.sites():
                fd = finite_difference(st, site, loss)
                rel = abs(grid[site] - fd) / max(abs(grid[site]), 1e-12)
                assert rel < 1e-6, (loss.kind, site, grid[site], fd)


def test_gradients_match_on_wide_lattice():
    # exercises the transposed layout, with the observable off the diagonal
    spec = LatticeSpec(3, 2, 2, 2)
    rng = np.random.default_rng(25)
    st = build_state(spec, rng)
    target = plus_target(spec)
    proj = plus_projector(2)
    for loss in [LossSpec(kind=GLOBAL_PURE, target=target),
                 LossSpec(kind=GLOBAL_NORMALIZED, target=target),
                 LossSpec(kind=LOCAL_UNNORMALIZED, observable=proj, site=(2, 1)),
                 LossSpec(kind=LOCAL_NORMALIZED, observable=proj, site=(2, 1))]:
        grid = gradient_map(st, loss)
        for site in spec.sites():
            fd = finite_difference(st, site, loss)
            rel = abs(grid[site] - fd) / max(abs(grid[site]), 1e-12)
            assert rel < 1e-6, (loss.kind, site, grid[site], fd)


def test_identity_generator_gives_zero_gradient():
    # a pure-phase generator cannot move any fidelity loss
    spec = LatticeSpec(2, 2, 2, 2)
    rng = np.random.default_rng(27)
    st = build_state(spec, rng)
    eye = np.broadcast_to(np.eye(spec.unitary_dim, dtype=complex), st.params.generator.shape)
    st_phase = TNState(spec, dataclasses.replace(st.params, generator=eye))
    loss = LossSpec(kind=GLOBAL_PURE, target=plus_target(spec))
    assert np.abs(gradient_map(st_phase, loss)).max() < 1e-12


def test_global_gradient_mean_is_zero():
    spec = LatticeSpec(2, 2, 2, 2)
    loss = LossSpec(kind=GLOBAL_PURE, target=plus_target(spec))
    report = tnlab.variance_scan(spec, loss, 2000, seed=404)
    se = np.sqrt(report.variance / report.n_samples)
    assert np.all(np.abs(report.mean) <= 3 * se)
