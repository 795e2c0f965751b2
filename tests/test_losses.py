"""Tests for loss evaluation and analytic gradients."""

import dataclasses
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

import tnlab
from tnlab import losses, network, variance
from tnlab.errors import DegenerateStateError
from tnlab.lattice import LatticeSpec
from tnlab.losses import (GLOBAL_NORMALIZED, GLOBAL_PURE, LOCAL_KINDS, LOCAL_NORMALIZED,
                          LOCAL_UNNORMALIZED, LossSpec, gradient_map, loss_value,
                          plus_projector, plus_target, traceless_observable)
from tnlab.states import build_state, local_derivative_tensor, local_tensor, norm_squared

from oracles import dense_amplitudes, normalized_local_gradient, sample_hermitian


def finite_difference(state, site, loss, h=1e-5):
    def shifted(dt):
        return state.with_theta(*site, state.theta[site] + dt)

    return (loss_value(shifted(h), loss) - loss_value(shifted(-h), loss)) / (2 * h)


def dense_psi(state):
    return dense_amplitudes(local_tensor(state))


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
    (5, np.eye(2), r"site 5 is not a site of the 2 x 3 lattice"),
    ((1,), np.eye(2), r"site \(1,\) is not a site of the 2 x 3 lattice"),
    ((1, 2, 0), np.eye(2), r"site \(1, 2, 0\) is not a site of the 2 x 3 lattice"),
], ids=["negative_site", "site_past_edge", "fractional_site", "op_3x3", "op_2x3", "int_site",
        "one_coordinate", "three_coordinates"])
@pytest.mark.parametrize("call, kind", [(c, k) for c in ("loss_value", "gradient_map")
                                        for k in LOCAL_KINDS])
def test_sites_and_ops_are_checked_against_the_lattice(call, kind, site, op, message):
    # the loss's own checks raise in LossSpec, and the lattice's in `network.bra_ket`
    st = build_state(LatticeSpec(2, 3, 2, 2), np.random.default_rng(30))
    with pytest.raises(ValueError, match=message):
        loss = LossSpec(kind=kind, observable=op, site=site)
        (loss_value if call == "loss_value" else gradient_map)(st, loss)


@pytest.mark.parametrize("shape", [(2,), (), (2, 2, 2)])
def test_observables_that_are_not_square_matrices_are_rejected_up_front(shape):
    # each of these equals its own conjugate transpose, so only the shape can reject it
    message = re.escape(f"observable must be Hermitian: a square matrix, got shape {shape}")
    with pytest.raises(ValueError, match=message):
        LossSpec(kind=LOCAL_NORMALIZED, observable=np.ones(shape), site=(0, 0))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_traceless_observable_is_hermitian_traceless_with_unit_scale(d):
    # criterion 10 and the bounds command take tr O^2 = 2 as given
    o = traceless_observable(d)
    assert o.shape == (d, d)
    assert np.array_equal(o, o.conj().T)
    assert np.trace(o) == 0
    assert np.trace(o @ o) == 2


def test_global_pure_matches_overlap_formula():
    spec = LatticeSpec(2, 2, 2, 2)
    rng = np.random.default_rng(20)
    st = build_state(spec, rng)
    target = plus_target(spec)
    loss = LossSpec(kind=GLOBAL_PURE, target=target)
    w = dense_overlap(dense_psi(st), target)
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
    expected = dense_expectation(dense_psi(st), spec, (0, 1), obs)
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
    psi = dense_psi(st)
    z = float(np.vdot(psi, psi).real)
    w = dense_overlap(psi, target)
    n = dense_expectation(psi, spec, site, obs)

    def close(value, expected, scale):
        assert abs(value - expected) <= 1e-10 * max(abs(expected), scale)

    ket = local_tensor(st)
    close(norm_squared(st), z, z)
    close(network.overlap(ket, target), w, np.sqrt(z))
    close(network.bra_ket(ket, site=site, op=obs), n, z)
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
    eye = np.broadcast_to(np.eye(spec.unitary_dim, dtype=complex), st.generator.shape)
    st_phase = dataclasses.replace(st, generator=eye)
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
    obs = sample_hermitian(2, rng)

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
    op = sample_hermitian(d, rng)
    expected = normalized_local_gradient(local_tensor(st), local_derivative_tensor(st), site, op)
    g = gradient_map(st, LossSpec(kind=LOCAL_NORMALIZED, observable=op, site=site))
    assert np.abs(g - expected).max() <= 1e-12 * np.abs(expected).max()


def _count_ring_parts(monkeypatch):
    """Calls of the double-layer column, value-ring and environment builders of `network`."""
    counts = Counter()
    for name in ("_double_column", "ring_value", "ring_environments"):
        def counted(*args, _name=name, _fn=getattr(network, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
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
    # LossSpec accepts O with |O - O^dagger| <= 1e-12 and keeps (O + O^dagger) / 2, which is
    # exactly Hermitian (and is O itself when O is), so `network.bra_ket` takes it and runs
    # it on the real rings that every bra-ket runs
    st = build_state(LatticeSpec(3, 3, 2, 2), np.random.default_rng(41))
    obs = plus_projector(2)
    near = obs + 4e-13j * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(LossSpec(LOCAL_NORMALIZED, observable=obs, site=(0, 0)).observable, obs)
    part = LossSpec(LOCAL_NORMALIZED, observable=near, site=(0, 0)).observable
    assert np.array_equal(part, part.conj().T) and np.abs(part - obs).max() <= 1e-15
    for kind in LOCAL_KINDS:
        loss = LossSpec(kind=kind, observable=near, site=(1, 2))
        exact = dataclasses.replace(loss, observable=part)
        assert np.abs(gradient_map(st, loss) - gradient_map(st, exact)).max() == 0
        assert loss_value(st, loss) == loss_value(st, exact)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_product_targets_are_rejected(bad):
    # a NaN entry has a NaN norm, which a "norm off by more than 1e-10" test lets through
    target = plus_target(LatticeSpec(2, 2, 2, 2))
    target[1, 0, 1] = bad
    for kind in (GLOBAL_PURE, GLOBAL_NORMALIZED):
        with pytest.raises(ValueError, match="product state must be finite"):
            LossSpec(kind=kind, target=target)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_observables_are_rejected(bad):
    # checked before the Hermiticity test, whose O - O^dagger would make inf - inf = NaN
    for kind in LOCAL_KINDS:
        with pytest.raises(ValueError, match="observable must be finite"):
            LossSpec(kind=kind, observable=np.diag([bad, 1.0]), site=(0, 0))


@pytest.mark.parametrize("target, message", [
    (2 * plus_target(LatticeSpec(2, 2, 2, 2)), "site vectors must be normalized"),
    (np.full((2, 2, 2), np.nan), "product state must be finite"),
    (np.full((4, 2), np.sqrt(0.5)), re.escape("must have shape (l1, l2, d), got (4, 2)")),
], ids=["unnormalized", "nan", "two_axes"])
def test_a_bad_target_raises_before_any_state_is_built(target, message, monkeypatch):
    def no_state(*args, **kwargs):
        raise AssertionError("a state was built for a bad target")

    monkeypatch.setattr(variance, "build_states", no_state)
    with pytest.raises(ValueError, match=message):
        tnlab.variance_scan(LatticeSpec(2, 2, 2, 2),
                            LossSpec(kind=GLOBAL_NORMALIZED, target=target), 4, seed=1)


def test_loss_value_builds_the_site_tensors_once(monkeypatch):
    # a normalized loss takes its value and its norm from one site-tensor grid
    spec = LatticeSpec(2, 3, 2, 2)
    st = build_state(spec, np.random.default_rng(44))
    calls = []

    def counted(state):
        calls.append(state)
        return local_tensor(state)

    monkeypatch.setattr(losses, "local_tensor", counted)
    for loss in all_losses(spec):
        calls.clear()
        loss_value(st, loss)
        assert calls == [st], loss.kind


@settings(max_examples=50, deadline=None)
@given(a=hnp.arrays(complex, (3, 3), elements=hst.complex_numbers(max_magnitude=10.0)),
       noise=hnp.arrays(complex, (3, 3), elements=hst.complex_numbers(max_magnitude=4e-13)))
def test_an_observable_within_1e12_of_hermitian_is_kept_as_its_exact_hermitian_part(a, noise):
    # |obs - obs^dagger| <= 8e-13 entry by entry, with room for the rounding of the sum
    obs = (a + a.conj().T) / 2 + noise
    kept = LossSpec(kind=LOCAL_NORMALIZED, observable=obs, site=(0, 0)).observable
    assert np.array_equal(kept, kept.conj().T)
    assert np.abs(kept - obs).max() <= 1e-12


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

    def scaled(state):
        return scale * local_tensor(state)

    monkeypatch.setattr(losses, "local_tensor", scaled)
    if kind == LOCAL_NORMALIZED:
        loss = LossSpec(kind=kind, observable=plus_projector(2), site=(1, 2))
    else:
        loss = LossSpec(kind=kind, target=plus_target(spec))
    with np.errstate(all="raise"), pytest.raises(DegenerateStateError, match="below"):
        (loss_value if call == "loss_value" else gradient_map)(st, loss)
