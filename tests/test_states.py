"""Tests for random state construction, contraction consistency, and serialization."""

import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy import stats as scipy_stats

import tnlab
from tnlab import network
from tnlab.cli import EXIT_RESOURCE, main
from tnlab.errors import ResourceLimitError
from tnlab.lattice import LatticeSpec
from tnlab.losses import (GLOBAL_NORMALIZED, GLOBAL_PURE, LOCAL_KINDS, LOCAL_NORMALIZED,
                          LOCAL_UNNORMALIZED, LossSpec, gradient_map, loss_value, plus_projector,
                          plus_target)
from tnlab.states import (TNState, build_state, build_states, load_state,
                          local_derivative_tensor, local_tensor, norm_squared, sample_bytes,
                          save_state)
from tnlab.tensors import is_unitary

from oracles import dense_amplitudes, sample_hermitian, sample_unitary

BENCHMARK_DATA = Path(__file__).resolve().parents[1] / "benchmarks" / "data"


def identity_state(spec):
    n = spec.unitary_dim
    eye = np.broadcast_to(np.eye(n, dtype=complex), (spec.l1, spec.l2, n, n))
    return TNState(spec, eye, eye, np.zeros_like(eye), np.zeros((spec.l1, spec.l2)))


def site_tensor_oracle(u, D, d):
    """A[a, b, g, l, j] = U[(g, l, j), (a, b, 0)] of one site's D^2 d x D^2 d matrix U."""
    return u.reshape(D, D, d, D, D, d)[:, :, :, :, :, 0].transpose(3, 4, 0, 1, 2)


def random_product_state(spec, rng):
    phi = rng.standard_normal((spec.l1, spec.l2, spec.d)) \
        + 1j * rng.standard_normal((spec.l1, spec.l2, spec.d))
    return phi / np.linalg.norm(phi, axis=2, keepdims=True)


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(1, 2, 2, 2)
    with pytest.raises(ValueError):
        LatticeSpec(2, 2, 1, 2)
    spec = LatticeSpec(2, 2, 2, 2)
    assert spec.n_sites == 4
    assert spec.unitary_dim == 8


def test_toric_manhattan_metric():
    spec = LatticeSpec(4, 5, 2, 2)
    sites = list(spec.sites())
    for a in sites:
        assert spec.toric_manhattan(a, a) == 0
        for b in sites:
            assert spec.toric_manhattan(a, b) == spec.toric_manhattan(b, a)
            for c in sites:
                assert (spec.toric_manhattan(a, c)
                        <= spec.toric_manhattan(a, b) + spec.toric_manhattan(b, c))
    assert spec.toric_manhattan((0, 0), (3, 4)) == 2  # both wraps
    assert spec.toric_manhattan((0, 0), (2, 2)) == 4


@settings(max_examples=200, deadline=None)
@given(data=hst.data(), l1=hst.integers(2, 12), l2=hst.integers(2, 12))
def test_toric_metric_axioms(data, l1, l2):
    spec = LatticeSpec(l1, l2, 2, 2)
    site = hst.tuples(hst.integers(0, l1 - 1), hst.integers(0, l2 - 1))
    a, b, c, shift = (data.draw(site) for _ in range(4))
    dist = spec.toric_manhattan
    assert (dist(a, b) == 0) == (a == b)
    assert dist(a, b) == dist(b, a)
    assert dist(a, c) <= dist(a, b) + dist(b, c)

    def move(s):
        return ((s[0] + shift[0]) % l1, (s[1] + shift[1]) % l2)

    assert dist(move(a), move(b)) == dist(a, b)
    assert dist(a, b) <= l1 // 2 + l2 // 2


def test_build_state_shapes_and_determinism():
    spec = LatticeSpec(2, 2, 2, 2)
    st1 = build_state(spec, np.random.default_rng(5))
    st2 = build_state(spec, np.random.default_rng(5))
    assert st1.u_minus.shape == (2, 2, 8, 8) and st1.theta.shape == (2, 2)
    assert local_tensor(st1).shape == (2, 2, 2, 2, 2, 2, 2)
    for name in ("u_minus", "u_plus", "generator", "theta"):
        assert np.array_equal(getattr(st1, name), getattr(st2, name))


@pytest.mark.parametrize("l1, l2", [(2, 2), (3, 2), (2, 3)])
def test_build_state_keeps_the_site_by_site_stream(l1, l2):
    # oracle: each site draws u_minus, u_plus, the generator, then theta
    spec = LatticeSpec(l1, l2, 3, 2)
    rng = np.random.default_rng(l1 * 10 + l2)
    n = spec.unitary_dim
    expected = {}
    for site in spec.sites():
        expected[site] = (sample_unitary(n, rng), sample_unitary(n, rng),
                          sample_hermitian(n, rng), float(rng.uniform(0.0, 2.0 * np.pi)))
    st = build_state(spec, np.random.default_rng(l1 * 10 + l2))
    for site, (u_minus, u_plus, generator, theta) in expected.items():
        assert np.array_equal(st.u_minus[site], u_minus)
        assert np.array_equal(st.u_plus[site], u_plus)
        assert np.array_equal(st.generator[site], generator)
        assert st.theta[site] == theta


# lattices up to 3x3, l1 > l2 among them, at (D, d) in {2, 3}^2; a chunk of states drawn
# from generators picked, with repeats, from a pool of seeded ones
_CHUNKS = dict(l1=hst.integers(2, 3), l2=hst.integers(2, 3), D=hst.sampled_from([2, 3]),
               d=hst.sampled_from([2, 3]),
               picks=hst.lists(hst.integers(0, 2), min_size=1, max_size=4),
               seed=hst.integers(0, 2**32 - 1))


def _pool(seed):
    return [np.random.default_rng([seed, k]) for k in range(3)]


@settings(max_examples=25, deadline=None)
@given(**_CHUNKS)
def test_a_chunk_of_states_is_the_states_drawn_one_by_one(l1, l2, D, d, picks, seed):
    # build_states over the picked generators draws what build_state draws from each in
    # turn, and leaves every generator in the same state
    spec = LatticeSpec(l1, l2, D, d)
    pool, chunk_pool = _pool(seed), _pool(seed)
    one_by_one = [build_state(spec, pool[k]) for k in picks]
    chunk = build_states(spec, [chunk_pool[k] for k in picks])
    assert chunk.theta.shape == (len(picks), l1, l2)
    for i, state in enumerate(one_by_one):
        for field in ("u_minus", "u_plus", "generator", "theta"):
            assert np.array_equal(getattr(chunk, field)[i], getattr(state, field))
            assert np.array_equal(getattr(chunk[i], field), getattr(state, field))
        assert np.array_equal(local_tensor(chunk)[i], local_tensor(state))
    assert [g.bit_generator.state for g in chunk_pool] == [g.bit_generator.state for g in pool]


@settings(max_examples=25, deadline=None)
@given(**_CHUNKS)
def test_a_chunk_of_norms_is_the_norms_taken_one_by_one(l1, l2, D, d, picks, seed):
    # the value path of bra_ket, with and without an op, gives each sample of a chunk the
    # value of that sample's site tensors alone, to the bit
    pool = _pool(seed)
    chunk = build_states(LatticeSpec(l1, l2, D, d), [pool[k] for k in picks])
    ket = local_tensor(chunk)
    op = plus_projector(d)
    assert np.array_equal(norm_squared(chunk), [network.bra_ket(t) for t in ket])
    assert np.array_equal(network.bra_ket(ket, site=(l1 - 1, 0), op=op),
                          [network.bra_ket(t, site=(l1 - 1, 0), op=op) for t in ket])


@settings(max_examples=20, deadline=None)
@given(lattice=hst.sampled_from([(2, 2), (2, 3), (3, 3)]), D=hst.sampled_from([2, 3]),
       d=hst.sampled_from([2, 3]), n_samples=hst.integers(1, 8))
@example(lattice=(3, 3), D=2, d=2, n_samples=4)  # the chunk of norm-stats at 3x3
def test_a_chunk_of_norms_spends_no_more_than_its_charge(lattice, D, d, n_samples):
    # the tracemalloc peak of drawing a chunk, building its site tensors and contracting
    # its norms, as the norm estimate does, is at most what `sample_bytes` charges the
    # chunk; tracemalloc sees numpy's arrays and ufunc buffers, but not the workspace that
    # BLAS and LAPACK allocate inside a product, a QR or an eigh
    spec = LatticeSpec(*lattice, D, d)
    norm_squared(build_state(spec, np.random.default_rng(0)))  # numpy's first-call setup
    rngs = [np.random.default_rng(n_samples)] * n_samples
    tracemalloc.start()
    try:
        norm_squared(build_states(spec, rngs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sample_bytes(spec, n_samples)


def test_a_sweep_takes_one_state():
    ket = local_tensor(build_states(LatticeSpec(2, 2, 2, 2), [np.random.default_rng(0)] * 2))
    with pytest.raises(ValueError, match="a sweep takes one state's site tensors"):
        network.bra_ket(ket, ket)


@settings(max_examples=30, deadline=None)
@given(l1=hst.integers(2, 4), l2=hst.integers(2, 4), D=hst.sampled_from([2, 3]),
       d=hst.sampled_from([2, 3]), seed=hst.integers(0, 2**32 - 1))
def test_batched_site_tensors_equal_per_site_calls(l1, l2, D, d, seed):
    # oracle: per site, U = u_minus expm(-i theta G) u_plus and dU = u_minus (-iG) expm u_plus
    st = build_state(LatticeSpec(l1, l2, D, d), np.random.default_rng(seed))
    ket = local_tensor(st)
    dket = local_derivative_tensor(st)
    double = network.site_double_tensor(ket)
    d_double = network.site_double_tensor(dket, bra=ket)
    for x, y in st.spec.sites():
        g = st.generator[x, y]
        exp = scipy.linalg.expm(-1j * st.theta[x, y] * g)
        u = st.u_minus[x, y] @ exp @ st.u_plus[x, y]
        du = st.u_minus[x, y] @ (-1j * g) @ exp @ st.u_plus[x, y]
        assert np.abs(ket[x, y] - site_tensor_oracle(u, D, d)).max() < 1e-12
        assert np.abs(dket[x, y] - site_tensor_oracle(du, D, d)).max() < 1e-12
        assert np.array_equal(double[x, y], network.site_double_tensor(ket[x, y]))
        assert np.array_equal(d_double[x, y], network.site_double_tensor(dket[x, y],
                                                                         bra=ket[x, y]))


def test_build_state_refuses_oversized_state_before_drawing():
    # 2 x 2 sites of 8192 x 8192 unitaries: about 24 GiB of draws and factors
    spec = LatticeSpec(2, 2, 64, 2)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="network budget"):
            build_state(spec, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert rng.bit_generator.state == before


def test_every_loss_runs_at_2x13_under_the_network_budget():
    # 26 sites: 2**26 dense amplitudes, which nothing builds; the network runs at
    # transfer dimension 16
    spec = LatticeSpec(2, 13, 2, 2)
    st = build_state(spec, np.random.default_rng(0))
    assert 0.0 < norm_squared(st) < np.inf
    target = plus_target(spec)
    for loss in [LossSpec(kind=GLOBAL_PURE, target=target),
                 LossSpec(kind=GLOBAL_NORMALIZED, target=target),
                 LossSpec(kind=LOCAL_UNNORMALIZED, observable=plus_projector(2), site=(1, 7)),
                 LossSpec(kind=LOCAL_NORMALIZED, observable=plus_projector(2), site=(1, 7))]:
        assert np.isfinite(loss_value(st, loss))


def test_network_budget_refuses_6x6_before_allocating():
    # 4096 x 4096 transfer matrices: about 5 GiB with their ring environments
    st = build_state(LatticeSpec(6, 6, 2, 2), np.random.default_rng(0))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="network budget"):
            norm_squared(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_network_budget_counts_ket_columns(tmp_path):
    # D = 2, d = 17 on 4x5: the transfer matrices alone take about 18 MB, but
    # each 2**8 x 17**4 x 2**4 ket column takes about 340 MB
    st = build_state(LatticeSpec(4, 5, 2, 17), np.random.default_rng(0))
    with pytest.raises(ResourceLimitError, match="network budget"):
        norm_squared(st)
    # the site tensors are built first (about 6 MiB for 20 68 x 68 unitaries);
    # the network itself must refuse before it builds a column
    ket = local_tensor(st)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="network budget"):
            network.bra_ket(ket)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert main(["var-scan", "--phys-dim", "17", "--sizes", "4x5", "--samples", "2",
                 "--seed", "0", "--out", str(tmp_path / "scan")]) == EXIT_RESOURCE


@pytest.mark.parametrize("k", [2, 3, 5])
def test_ring_environments_against_explicit_products(k):
    rng = np.random.default_rng(k)
    cols = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) for _ in range(k)]
    # the middle environments are written over their columns, so the ring gets copies
    value, envs = network.ring_environments([c.copy() for c in cols],
                                            np.empty((max(2 * k - 4, 1), 6, 6), complex))
    assert value == network.ring_value(cols, np.empty((2, 6, 6), complex))
    assert len(envs) == k
    if k == 2:  # no middle environment: each is the other column itself
        assert np.array_equal(envs[0], cols[1]) and np.array_equal(envs[1], cols[0])
    for y in range(k):
        others = [cols[(y + 1 + i) % k] for i in range(k - 1)]
        expected = others[0]
        for m in others[1:]:
            expected = expected @ m
        assert np.allclose(envs[y], expected, rtol=1e-12, atol=0)
        replacement = rng.standard_normal((6, 6))
        ring = cols[:y] + [replacement] + cols[y + 1:]
        work = np.empty((2, 6, 6), complex)
        assert np.isclose(network.replace_value(replacement, envs[y], work[0]),
                          network.ring_value(ring, work), rtol=1e-12)


def test_embedded_unitary_is_unitary():
    spec = LatticeSpec(2, 2, 2, 2)
    st = build_state(spec, np.random.default_rng(6))
    assert is_unitary(st.exponential).all()
    assert is_unitary(st.u_minus @ st.exponential @ st.u_plus).all()


def test_identity_embedding_tensor():
    # with U = identity every site tensor is the reshaped identity column at j_in = 0
    ket = local_tensor(identity_state(LatticeSpec(2, 3, 2, 2)))
    expected = site_tensor_oracle(np.eye(8), 2, 2)
    assert all(np.array_equal(ket[site], expected) for site in np.ndindex(2, 3))


def test_identity_embedded_norm_value():
    # all virtual loops close: <psi|psi> = D^(2 (l1 + l2)) = 256 at (2, 2), D = 2
    spec = LatticeSpec(2, 2, 2, 2)
    st = identity_state(spec)
    ns = norm_squared(st)
    assert abs(ns - 256.0) < 1e-9
    psi = dense_amplitudes(local_tensor(st))
    assert abs(np.vdot(psi, psi).real - ns) < 1e-9


def test_site_tensor_isometry_sum():
    # sum over all entries |A|^2 = D^2 for any embedded unitary
    spec = LatticeSpec(2, 2, 3, 2)
    st = build_state(spec, np.random.default_rng(7))
    a = local_tensor(st)[1, 1]
    assert abs(np.sum(np.abs(a) ** 2) - 9.0) < 1e-10


def test_derivative_tensor_at_theta_zero():
    spec = LatticeSpec(2, 2, 2, 2)
    st = build_state(spec, np.random.default_rng(8))
    st0 = st.with_theta(0, 0, 0.0)
    da = local_derivative_tensor(st0)[0, 0]
    u_ref = st0.u_minus[0, 0] @ (-1j * st0.generator[0, 0]) @ st0.u_plus[0, 0]
    assert np.abs(da - site_tensor_oracle(u_ref, 2, 2)).max() < 1e-12


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_statevector_consistency(shape):
    spec = LatticeSpec(shape[0], shape[1], 2, 2)
    st = build_state(spec, np.random.default_rng(9))
    psi = dense_amplitudes(local_tensor(st))
    assert psi.shape == (2,) * spec.n_sites
    ns = norm_squared(st)
    assert abs(np.vdot(psi, psi).real - ns) < 1e-10 * max(1.0, ns)


def test_overlap_against_dense():
    spec = LatticeSpec(2, 3, 2, 2)
    rng = np.random.default_rng(10)
    st = build_state(spec, rng)
    phi = random_product_state(spec, rng)
    psi = dense_amplitudes(local_tensor(st)).reshape(-1)
    w = psi
    for x in range(spec.l1):
        for y in range(spec.l2):
            w = phi[x, y].conj() @ w.reshape(2, -1)
    value = network.overlap(local_tensor(st), phi)
    assert abs(value - complex(w[0])) < 1e-10
    # Cauchy-Schwarz
    assert abs(value) ** 2 <= norm_squared(st) + 1e-12


def test_overlap_rejects_unnormalized():
    spec = LatticeSpec(2, 2, 2, 2)
    rng = np.random.default_rng(11)
    st = build_state(spec, rng)
    phi = random_product_state(spec, rng)
    phi[0, 0] *= 2.0
    with pytest.raises(ValueError, match="product-state site vectors must be normalized"):
        loss_value(st, LossSpec(kind=GLOBAL_PURE, target=phi))


def test_overlap_rejects_a_wrong_shaped_product_state():
    spec = LatticeSpec(2, 3, 2, 2)
    st = build_state(spec, np.random.default_rng(11))
    phi = np.full((3, 2, 2), 1.0 / np.sqrt(2))
    with pytest.raises(ValueError, match=re.escape("phi must have shape (2, 3, 2), got (3, 2, 2)")):
        loss_value(st, LossSpec(kind=GLOBAL_PURE, target=phi))


def test_local_expectation():
    spec = LatticeSpec(2, 3, 2, 2)
    rng = np.random.default_rng(12)
    st = build_state(spec, rng)
    ket = local_tensor(st)

    def local_expectation(site, obs):
        return network.bra_ket(ket, site=site, op=obs)

    assert abs(local_expectation((0, 1), np.eye(2)) - norm_squared(st)) < 1e-10
    assert local_expectation((1, 2), np.zeros((2, 2))) == 0.0
    obs = tnlab.traceless_observable(2)
    psi = dense_amplitudes(local_tensor(st))
    k = 1 * 3 + 1
    front = np.moveaxis(psi, k, 0).reshape(2, -1)
    dense = np.vdot(front, obs @ front).real
    assert abs(local_expectation((1, 1), obs) - dense) < 1e-10 * max(1.0, abs(dense))
    with pytest.raises(ValueError):
        local_expectation((0, 0), np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("site", [(True, False), (0, True), (np.int64(1), False)])
def test_local_expectation_rejects_boolean_site_coordinates(site):
    # bool is an int subclass: (True, False) would otherwise read as site (1, 0)
    st = build_state(LatticeSpec(2, 3, 2, 2), np.random.default_rng(12))
    for kind in LOCAL_KINDS:
        loss = LossSpec(kind=kind, observable=tnlab.traceless_observable(2), site=site)
        for call in (loss_value, gradient_map):
            with pytest.raises(ValueError, match="is not a site"):
                call(st, loss)


def test_norm_mean_is_one():
    # 1-design property: E[<psi|psi>] = 1
    spec = LatticeSpec(2, 2, 2, 2)
    rng = np.random.default_rng(13)
    vals = np.array([norm_squared(build_state(spec, rng)) for _ in range(2000)])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 1.0) <= 3 * se


def test_norm_variance_shrinks_with_volume():
    rng = np.random.default_rng(14)
    v22 = np.array([norm_squared(build_state(LatticeSpec(2, 2, 2, 2), rng))
                    for _ in range(1500)]).var(ddof=1)
    v33 = np.array([norm_squared(build_state(LatticeSpec(3, 3, 2, 2), rng))
                    for _ in range(1500)]).var(ddof=1)
    assert v33 < v22


def test_haar_invariance_of_norm_statistics():
    # multiplying a fixed unitary into every site leaves the norm distribution alone
    spec = LatticeSpec(2, 2, 2, 2)
    rng = np.random.default_rng(15)
    fixed = sample_unitary(spec.unitary_dim, rng)

    def twisted(state):
        return dataclasses.replace(state, u_minus=fixed @ state.u_minus)

    base = np.array([norm_squared(build_state(spec, rng)) for _ in range(2000)])
    twist = np.array([norm_squared(twisted(build_state(spec, rng))) for _ in range(2000)])
    assert scipy_stats.ks_2samp(base, twist).pvalue > 0.01


def test_serialization_roundtrip(tmp_path):
    spec = LatticeSpec(2, 3, 2, 2)
    st = build_state(spec, np.random.default_rng(16))
    path = tmp_path / "state.tns"
    save_state(st, path, seed=16)
    loaded = load_state(path)
    assert loaded.spec == spec
    for name in ("u_minus", "u_plus", "generator", "theta"):
        assert np.array_equal(getattr(st, name), getattr(loaded, name))
    assert abs(norm_squared(loaded) - norm_squared(st)) == 0.0


@pytest.mark.parametrize("path", sorted(BENCHMARK_DATA.glob("state_*.bin")), ids=lambda p: p.name)
def test_committed_state_files_save_back_identically(tmp_path, path):
    # the committed headers also carry the retired "cap" key, which save_state drops
    data = path.read_bytes()
    header_len = data.index(b"\n") + 1
    header = json.loads(data[:header_len])
    save_state(load_state(path), tmp_path / "again.bin", seed=header["seed"])
    again = (tmp_path / "again.bin").read_bytes()
    again_len = again.index(b"\n") + 1
    assert json.loads(again[:again_len]) == {k: v for k, v in header.items() if k != "cap"}
    assert again[again_len:] == data[header_len:]


def test_serialization_rejects_unknown_format(tmp_path):
    path = tmp_path / "bogus.tns"
    path.write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_state(path)


@pytest.fixture(scope="module")
def saved_state(tmp_path_factory):
    """Bytes of a saved 2x3 state and the length of its header line."""
    path = tmp_path_factory.mktemp("state") / "state.tns"
    save_state(build_state(LatticeSpec(2, 3, 2, 2), np.random.default_rng(17)), path)
    data = path.read_bytes()
    return data, data.index(b"\n") + 1


def _load_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("bad") / "state.tns"
    path.write_bytes(data)
    return load_state(path)


def test_load_state_ignores_cap_key(tmp_path_factory, saved_state):
    # headers written before the dense cap became a constant carry a "cap" key
    data, header_len = saved_state
    header = json.loads(data[:header_len])
    assert "cap" not in header
    header["cap"] = 2**24
    old = json.dumps(header, sort_keys=True).encode() + b"\n" + data[header_len:]
    assert _load_bytes(tmp_path_factory, old).spec == LatticeSpec(2, 3, 2, 2)


@pytest.mark.parametrize("field, value, n_records", [
    ("l1", 2.5, 5),     # 2.5 x 2 sites: a body of five records matches the header
    ("d", 2.0, 6),      # N = 2 * 2 * 2.0 gives the 2x3 body's own length
    ("D", True, 6),
    ("l2", "3", 6),
])
def test_load_state_rejects_non_integer_header_fields(tmp_path_factory, saved_state, field,
                                                      value, n_records):
    data, header_len = saved_state
    header = json.loads(data[:header_len])
    header[field] = value
    if field == "l1":
        header["l2"] = 2
    body = data[header_len:header_len + n_records * (3 * 64 * 16 + 8)]
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        _load_bytes(tmp_path_factory, json.dumps(header).encode() + b"\n" + body)


@pytest.mark.parametrize("l1, l2, D", [(2, 3, 1000), (2, 3, 32),
                                       pytest.param(10**320, 2, 2, id="past_the_float_range")])
def test_load_state_refuses_a_body_beyond_the_network_budget(tmp_path_factory, saved_state,
                                                             l1, l2, D):
    # D = 1000 gives a record too large for a numpy dtype; 2x3 sites at D = 32 imply
    # a 1.2 GB body, a dtype that numpy builds but over the 1 GiB budget; 10**320 rows
    # imply a body whose size in GiB a float cannot hold
    data, header_len = saved_state
    header = dict(json.loads(data[:header_len]), l1=l1, l2=l2, D=D)
    with pytest.raises(ResourceLimitError, match="above the network budget"):
        _load_bytes(tmp_path_factory, json.dumps(header).encode() + b"\n" + data[header_len:])


def test_load_state_refuses_a_header_without_a_newline_before_reading_it_whole(tmp_path):
    # a 50 MB file of zero bytes, with no newline: an unbounded readline took all of it,
    # a 101 MB peak
    path = tmp_path / "state.tns"
    with open(path, "wb") as fh:
        fh.truncate(50_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="no header line within the first 4096 bytes"):
            load_state(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@settings(max_examples=25, deadline=None)
@given(frac=hst.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_load_state_rejects_truncated_file(tmp_path_factory, saved_state, frac):
    data, header_len = saved_state
    cut = header_len + int(frac * (len(data) - header_len))
    with pytest.raises(ValueError, match="bytes"):
        _load_bytes(tmp_path_factory, data[:cut])


@settings(max_examples=25, deadline=None)
@given(junk=hst.binary(min_size=1, max_size=64))
def test_load_state_rejects_trailing_junk(tmp_path_factory, saved_state, junk):
    data, _ = saved_state
    with pytest.raises(ValueError, match="bytes"):
        _load_bytes(tmp_path_factory, data + junk)


@settings(max_examples=25, deadline=None)
@given(site=hst.integers(min_value=0, max_value=5), factor=hst.integers(min_value=0, max_value=1),
       entry=hst.integers(min_value=0, max_value=63))
def test_load_state_rejects_non_unitary_factor(tmp_path_factory, saved_state, site, factor,
                                               entry):
    data, header_len = saved_state
    mat_bytes = 64 * 16
    offset = header_len + site * (3 * mat_bytes + 8) + factor * mat_bytes + 16 * entry
    arr = bytearray(data)
    value = np.frombuffer(data, dtype="<c16", count=1, offset=offset)[0]
    arr[offset:offset + 16] = np.array([value + 1e-6], dtype="<c16").tobytes()
    with pytest.raises(ValueError, match="not unitary"):
        _load_bytes(tmp_path_factory, bytes(arr))


@pytest.mark.parametrize("corrupt, message", [
    # theta of site (1, 2), generator of site (0, 1): the row-major first is named
    ([((1, 2), "theta"), ((0, 1), "generator")], "site (0, 1): generator is not Hermitian"),
    # two faults at one site: unitarity is checked first
    ([((1, 0), "theta"), ((1, 0), "u_plus")], "site (1, 0): u_minus or u_plus is not unitary"),
    ([((0, 2), "theta"), ((1, 1), "u_minus")], "site (0, 2): theta = nan is not finite"),
])
def test_load_state_names_the_first_bad_site(tmp_path_factory, saved_state, corrupt, message):
    data, header_len = saved_state
    mat_bytes = 64 * 16
    arr = bytearray(data)
    for (x, y), field in corrupt:
        start = header_len + (3 * x + y) * (3 * mat_bytes + 8)
        if field == "theta":
            arr[start + 3 * mat_bytes:start + 3 * mat_bytes + 8] = np.float64(np.nan).tobytes()
        else:
            at = start + ["u_minus", "u_plus", "generator"].index(field) * mat_bytes + 16
            arr[at:at + 16] = np.array([5.0 + 1.0j], dtype="<c16").tobytes()
    with pytest.raises(ValueError, match=re.escape(message)):
        _load_bytes(tmp_path_factory, bytes(arr))


@pytest.mark.parametrize("offset, raw, message", [
    # generator entry (0, 1) of site (0, 0)
    (2 * 64 * 16 + 16, np.array([5.0 + 1.0j], dtype="<c16").tobytes(), "Hermitian"),
    # theta of site (0, 0)
    (3 * 64 * 16, np.array([np.nan], dtype="<f8").tobytes(), "finite"),
])
def test_load_state_rejects_bad_site_values(tmp_path_factory, saved_state, offset, raw,
                                            message):
    data, header_len = saved_state
    start = header_len + offset
    with pytest.raises(ValueError, match=message):
        _load_bytes(tmp_path_factory, data[:start] + raw + data[start + len(raw):])
