"""Tests for loss evaluation and analytic gradients."""

import dataclasses
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import tnlab
from tnlab import losses, network, states
from tnlab.errors import DegenerateStateError
from tnlab.lattice import LatticeSpec
from tnlab.losses import (GLOBAL_NORMALIZED, GLOBAL_PURE, LOCAL_KINDS, LOCAL_NORMALIZED,
                          LOCAL_UNNORMALIZED, LossSpec, gradient_map, loss_value,
                          plus_projector, plus_target, traceless_observable)
from tnlab.states import (TNState, build_state, local_derivative_tensor, local_expectation,
                          local_tensor, norm_squared, overlap, to_statevector)

from oracles import normalized_local_gradient


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


@pytest.mark.parametrize("site, op, message", [
    ((-1, 0), np.eye(2), r"site \(-1, 0\) is not a site of the 2 x 3 lattice"),
    ((2, 0), np.eye(2), r"site \(2, 0\) is not a site of the 2 x 3 lattice"),
    ((0.5, 0), np.eye(2), r"site \(0.5, 0\) is not a site of the 2 x 3 lattice"),
    ((0, 0), np.eye(3), r"op must be 2 x 2, got shape \(3, 3\)"),
    ((0, 0), np.ones((2, 3)), "observable must be Hermitian"),
], ids=["negative_site", "site_past_edge", "fractional_site", "op_3x3", "op_2x3"])
@pytest.mark.parametrize("call, kind", [("local_expectation", None),
                                        *((c, k) for c in ("loss_value", "gradient_map")
                                          for k in LOCAL_KINDS)])
def test_sites_and_ops_are_checked_against_the_lattice(call, kind, site, op, message):
    st = build_state(LatticeSpec(2, 3, 2, 2), np.random.default_rng(30))
    with pytest.raises(ValueError, match=message):
        if kind is None:
            local_expectation(st, site, op)
        else:
            loss = LossSpec(kind=kind, observable=op, site=site)
            (loss_value if call == "loss_value" else gradient_map)(st, loss)


@pytest.mark.parametrize("shape", [(2,), (), (2, 2, 2)])
def test_observables_that_are_not_square_matrices_are_rejected_up_front(shape):
    # each of these equals its own conjugate transpose, so only the shape can reject it
    message = re.escape(f"observable must be Hermitian: a square matrix, got shape {shape}")
    with pytest.raises(ValueError, match=message):
        LossSpec(kind=LOCAL_NORMALIZED, observable=np.ones(shape), site=(0, 0))
    st = build_state(LatticeSpec(2, 2, 2, 2), np.random.default_rng(31))
    with pytest.raises(ValueError, match=message):
        local_expectation(st, (0, 0), np.ones(shape))


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


@settings(max_examples=15, deadline=None)
@given(l1=hst.integers(2, 4), l2=hst.integers(2, 4), data=hst.data(),
       seed=hst.integers(0, 2**32 - 1), c=hst.floats(-5.0, 5.0))
def test_normalized_local_gradient_ignores_the_identity_part(l1, l2, data, seed, c):
    # N/z changes by c under O -> O + c 1, so its gradient does not; for O = 1 it is 0
    spec = LatticeSpec(l1, l2, 2, 2)
    site = (data.draw(hst.integers(0, l1 - 1)), data.draw(hst.integers(0, l2 - 1)))
    rng = np.random.default_rng(seed)
    st = build_state(spec, rng)
    obs = tnlab.random_hermitian(2, rng)

    def grad(o):
        return gradient_map(st, LossSpec(kind=LOCAL_NORMALIZED, observable=o, site=site))

    g = grad(obs)
    assert np.abs(grad(obs + c * np.eye(2)) - g).max() <= 1e-12 * max(1.0, np.abs(g).max())
    assert np.abs(grad(np.eye(2))).max() <= 1e-12


def test_global_gradient_mean_is_zero():
    spec = LatticeSpec(2, 2, 2, 2)
    loss = LossSpec(kind=GLOBAL_PURE, target=plus_target(spec))
    report = tnlab.variance_scan(spec, loss, 2000, seed=404)
    se = np.sqrt(report.variance / report.n_samples)
    assert np.all(np.abs(report.mean) <= 3 * se)


@hst.composite
def _normalized_cases(draw):
    D, d = draw(hst.sampled_from([2, 3])), draw(hst.sampled_from([2, 3]))
    l1, l2 = draw(hst.integers(2, 5)), draw(hst.integers(2, 5))
    # at most 4 rows (256 x 256 transfer matrices) at D = 2 and 3 rows (729 x 729) at D = 3
    rows = 4 if D == 2 else 3
    if min(l1, l2) > rows:
        l1 = rows
    site = (draw(hst.integers(0, l1 - 1)), draw(hst.integers(0, l2 - 1)))
    return l1, l2, D, d, site, draw(hst.integers(0, 2**32 - 1))


@settings(max_examples=12, deadline=None)
@given(case=_normalized_cases())
# the op in the last column, with the grid transposed and not
@example(case=(2, 5, 2, 3, (1, 4), 1)).via("the last column")
@example(case=(5, 3, 3, 2, (4, 0), 2)).via("the last column, transposed")
def test_local_normalized_gradient_matches_the_quotient_rule(case):
    # gradient_map folds z and N into one ring pass; the oracle takes them from two sweeps
    l1, l2, D, d, site, seed = case
    rng = np.random.default_rng(seed)
    st = build_state(LatticeSpec(l1, l2, D, d), rng)
    op = tnlab.random_hermitian(d, rng)
    expected = normalized_local_gradient(local_tensor(st.params, D, d),
                                         local_derivative_tensor(st.params, D, d), site, op)
    g = gradient_map(st, LossSpec(kind=LOCAL_NORMALIZED, observable=op, site=site))
    assert np.abs(g - expected).max() <= 1e-12 * np.abs(expected).max()


def _count_ring_parts(monkeypatch):
    """Calls of the double-layer column, value-ring and environment builders of `network`."""
    counts = Counter()
    for name in ("_double_column", "ring_value", "ring_environments"):
        def counted(*args, _name=name, _fn=getattr(network, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(network, name, counted)
    return counts


@pytest.mark.parametrize("l1, l2", [(3, 4), (4, 3)])
def test_a_local_gradient_makes_one_ring_pass(l1, l2, monkeypatch):
    # one ring of k = max(l1, l2) columns: z and N come from the op column's environment, so
    # the normalized gradient builds one double column more than the unnormalized one and
    # contracts no value-only ring
    counts = _count_ring_parts(monkeypatch)
    st = build_state(LatticeSpec(l1, l2, 2, 2), np.random.default_rng(40))
    k = max(l1, l2)
    for kind, columns in ((LOCAL_NORMALIZED, k + 1), (LOCAL_UNNORMALIZED, k)):
        counts.clear()
        gradient_map(st, LossSpec(kind=kind, observable=plus_projector(2), site=(1, 2)))
        assert dict(counts) == {"_double_column": columns, "ring_environments": 1}, kind


@pytest.mark.parametrize("l1, l2", [(3, 4), (4, 3)])
def test_a_global_gradient_sweeps_its_overlap_as_a_single_layer_ring(l1, l2, monkeypatch):
    # the overlap sweep is one ring of single-layer columns, with no double-layer column; the
    # normalized gradient adds the k = max(l1, l2) double columns of one norm sweep
    counts = _count_ring_parts(monkeypatch)
    spec = LatticeSpec(l1, l2, 2, 2)
    st = build_state(spec, np.random.default_rng(40))
    k = max(l1, l2)
    for kind, expected in ((GLOBAL_PURE, {"ring_environments": 1}),
                           (GLOBAL_NORMALIZED, {"_double_column": k, "ring_environments": 2})):
        counts.clear()
        gradient_map(st, LossSpec(kind=kind, target=plus_target(spec)))
        assert dict(counts) == expected, kind


def test_an_observable_hermitian_to_1e12_runs_its_hermitian_part_on_real_rings():
    # check_observable accepts O with |O - O^dagger| <= 1e-12 and returns (O + O^dagger) / 2,
    # which is exactly Hermitian (and is O itself when O is), so `network.bra_ket` takes it
    # and runs it on the real rings that every bra-ket runs
    st = build_state(LatticeSpec(3, 3, 2, 2), np.random.default_rng(41))
    obs = plus_projector(2)
    near = obs + 4e-13j * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(states.check_observable(obs), obs)
    part = states.check_observable(near)
    assert np.array_equal(part, part.conj().T) and np.abs(part - obs).max() <= 1e-15
    for kind in LOCAL_KINDS:
        loss = LossSpec(kind=kind, observable=near, site=(1, 2))
        assert np.abs(gradient_map(st, loss)
                      - gradient_map(st, dataclasses.replace(loss, observable=part))).max() == 0
    assert local_expectation(st, (1, 2), near) == local_expectation(st, (1, 2), part)


@pytest.mark.parametrize("scale", [0.0, 1e-4])
@pytest.mark.parametrize("call, kind", [("loss_value", LOCAL_NORMALIZED),
                                        ("loss_value", GLOBAL_NORMALIZED),
                                        ("gradient_map", LOCAL_NORMALIZED),
                                        ("gradient_map", GLOBAL_NORMALIZED)])
def test_degenerate_states_raise_before_z_divides(call, kind, scale, monkeypatch):
    # site tensors scaled by `scale` scale z = <psi|psi> by scale**12 at 2x3, to 0 or to about
    # 1e-48 of its value, below Z_FLOOR; under errstate(all="raise") a division by z = 0
    # before the check would raise FloatingPointError or ZeroDivisionError instead
    spec = LatticeSpec(2, 3, 2, 2)
    st = build_state(spec, np.random.default_rng(41))

    def scaled(params, D, d):
        return scale * local_tensor(params, D, d)

    monkeypatch.setattr(states, "local_tensor", scaled)
    monkeypatch.setattr(losses, "local_tensor", scaled)
    if kind == LOCAL_NORMALIZED:
        loss = LossSpec(kind=kind, observable=plus_projector(2), site=(1, 2))
    else:
        loss = LossSpec(kind=kind, target=plus_target(spec))
    with np.errstate(all="raise"), pytest.raises(DegenerateStateError, match="below"):
        (loss_value if call == "loss_value" else gradient_map)(st, loss)
