"""Tests for random state construction, contraction consistency, and serialization."""

import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import stats as scipy_stats

import tnlab
from tnlab import network
from tnlab.errors import ResourceLimitError
from tnlab.lattice import DEFAULT_AMPLITUDE_CAP, LatticeSpec
from tnlab.losses import (GLOBAL_NORMALIZED, GLOBAL_PURE, LOCAL_NORMALIZED,
                          LOCAL_UNNORMALIZED, LossSpec, loss_value, plus_projector, plus_target)
from tnlab.states import (SiteParams, TNState, build_state, load_state, local_derivative_tensor,
                          local_expectation, local_tensor, norm_squared, overlap,
                          save_state, to_statevector)

BENCHMARK_DATA = Path(__file__).resolve().parents[1] / "benchmarks" / "data"


def identity_state(spec):
    n = spec.unitary_dim
    eye = np.broadcast_to(np.eye(n, dtype=complex), (spec.l1, spec.l2, n, n))
    return TNState(spec, SiteParams(eye, eye, np.zeros_like(eye), np.zeros((spec.l1, spec.l2))))


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
    assert st1.params.u_minus.shape == (2, 2, 8, 8) and st1.params.theta.shape == (2, 2)
    a = local_tensor(st1.site(0, 0), 2, 2)
    assert a.shape == (2, 2, 2, 2, 2) and a.size == 32
    for x, y in spec.sites():
        s1, s2 = st1.site(x, y), st2.site(x, y)
        assert np.array_equal(s1.u_minus, s2.u_minus)
        assert np.array_equal(s1.u_plus, s2.u_plus)
        assert np.array_equal(s1.generator, s2.generator)
        assert s1.theta == s2.theta


@pytest.mark.parametrize("l1, l2", [(2, 2), (3, 2), (2, 3)])
def test_build_state_keeps_the_site_by_site_stream(l1, l2):
    # oracle: each site draws u_minus, u_plus, the generator, then theta
    spec = LatticeSpec(l1, l2, 3, 2)
    rng = np.random.default_rng(l1 * 10 + l2)
    n = spec.unitary_dim
    expected = {}
    for site in spec.sites():
        expected[site] = (tnlab.haar_unitary(n, rng), tnlab.haar_unitary(n, rng),
                          tnlab.random_hermitian(n, rng), float(rng.uniform(0.0, 2.0 * np.pi)))
    st = build_state(spec, np.random.default_rng(l1 * 10 + l2))
    for site, (u_minus, u_plus, generator, theta) in expected.items():
        s = st.site(*site)
        assert np.array_equal(s.u_minus, u_minus)
        assert np.array_equal(s.u_plus, u_plus)
        assert np.array_equal(s.generator, generator)
        assert s.theta == theta


@settings(max_examples=30, deadline=None)
@given(l1=hst.integers(2, 4), l2=hst.integers(2, 4), D=hst.sampled_from([2, 3]),
       d=hst.sampled_from([2, 3]), seed=hst.integers(0, 2**32 - 1))
def test_batched_site_tensors_equal_per_site_calls(l1, l2, D, d, seed):
    st = build_state(LatticeSpec(l1, l2, D, d), np.random.default_rng(seed))
    ket = local_tensor(st.params, D, d)
    dket = local_derivative_tensor(st.params, D, d)
    double = network.site_double_tensor(ket)
    d_double = network.site_double_tensor(dket, bra=ket)
    for x, y in st.spec.sites():
        a = local_tensor(st.site(x, y), D, d)
        da = local_derivative_tensor(st.site(x, y), D, d)
        assert np.array_equal(ket[x, y], a)
        assert np.array_equal(dket[x, y], da)
        assert np.array_equal(double[x, y], network.site_double_tensor(a))
        assert np.array_equal(d_double[x, y], network.site_double_tensor(da, bra=a))


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


def test_dense_cap_applies_to_statevector_only():
    # 26 sites exceed the 2**24-amplitude dense cap; the network runs at
    # transfer dimension 16
    spec = LatticeSpec(2, 13, 2, 2)
    assert spec.d ** spec.n_sites > DEFAULT_AMPLITUDE_CAP
    st = build_state(spec, np.random.default_rng(0))
    assert 0.0 < norm_squared(st) < np.inf
    target = plus_target(spec)
    for loss in [LossSpec(kind=GLOBAL_PURE, target=target),
                 LossSpec(kind=GLOBAL_NORMALIZED, target=target),
                 LossSpec(kind=LOCAL_UNNORMALIZED, observable=plus_projector(2), site=(1, 7)),
                 LossSpec(kind=LOCAL_NORMALIZED, observable=plus_projector(2), site=(1, 7))]:
        assert np.isfinite(loss_value(st, loss))
    with pytest.raises(ResourceLimitError, match="dense cap"):
        to_statevector(st)


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


@pytest.mark.parametrize("k", [2, 3, 5])
def test_ring_environments_against_explicit_products(k):
    rng = np.random.default_rng(k)
    cols = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) for _ in range(k)]
    value, envs = network.ring_environments(cols)
    assert value == network.ring_value(cols)
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
        assert np.isclose(network.replace_value(replacement, envs[y]),
                          network.ring_value(ring), rtol=1e-12)


def test_embedded_unitary_is_unitary():
    spec = LatticeSpec(2, 2, 2, 2)
    st = build_state(spec, np.random.default_rng(6))
    u = st.site(0, 0).embedded_unitary()
    assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-10


def test_identity_embedding_tensor():
    # with U = identity the site tensor is the reshaped identity column at j_in = 0
    site = SiteParams(np.eye(8, dtype=complex), np.eye(8, dtype=complex),
                      np.zeros((8, 8), dtype=complex), 0.0)
    a = local_tensor(site, 2, 2)
    expected = np.eye(8).reshape(2, 2, 2, 2, 2, 2)[:, :, :, :, :, 0].transpose(3, 4, 0, 1, 2)
    assert np.array_equal(a, expected)


def test_identity_embedded_norm_value():
    # all virtual loops close: <psi|psi> = D^(2 (l1 + l2)) = 256 at (2, 2), D = 2
    spec = LatticeSpec(2, 2, 2, 2)
    st = identity_state(spec)
    ns = norm_squared(st)
    assert abs(ns - 256.0) < 1e-9
    psi = to_statevector(st)
    assert abs(np.vdot(psi, psi).real - ns) < 1e-9


def test_site_tensor_isometry_sum():
    # sum over all entries |A|^2 = D^2 for any embedded unitary
    spec = LatticeSpec(2, 2, 3, 2)
    st = build_state(spec, np.random.default_rng(7))
    a = local_tensor(st.site(1, 1), 3, 2)
    assert abs(np.sum(np.abs(a) ** 2) - 9.0) < 1e-10


def test_derivative_tensor_at_theta_zero():
    spec = LatticeSpec(2, 2, 2, 2)
    st = build_state(spec, np.random.default_rng(8))
    site = st.with_theta(0, 0, 0.0).site(0, 0)
    da = local_derivative_tensor(site, 2, 2)
    u_ref = site.u_minus @ (-1j * site.generator) @ site.u_plus
    ref = u_ref.reshape(2, 2, 2, 2, 2, 2)[:, :, :, :, :, 0].transpose(3, 4, 0, 1, 2)
    assert np.abs(da - ref).max() < 1e-12


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_statevector_consistency(shape):
    spec = LatticeSpec(shape[0], shape[1], 2, 2)
    st = build_state(spec, np.random.default_rng(9))
    psi = to_statevector(st)
    assert psi.shape == (2,) * spec.n_sites
    ns = norm_squared(st)
    assert abs(np.vdot(psi, psi).real - ns) < 1e-10 * max(1.0, ns)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3, 4)])
def test_statevector_matches_bond_sum(shape):
    # oracle independent of the column layout: one einsum over every bond
    spec = LatticeSpec(shape[0], shape[1], 2, 2)
    st = build_state(spec, np.random.default_rng(10))
    letters = iter("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    down = {s: next(letters) for s in spec.sites()}  # bond (x, y) -> (x + 1, y)
    right = {s: next(letters) for s in spec.sites()}  # bond (x, y) -> (x, y + 1)
    phys = {s: next(letters) for s in spec.sites()}
    operands, terms = [], []
    for x, y in spec.sites():
        up, left = down[(x - 1) % spec.l1, y], right[x, (y - 1) % spec.l2]
        terms.append(up + left + down[x, y] + right[x, y] + phys[x, y])
        operands.append(local_tensor(st.site(x, y), 2, 2))
    expr = ",".join(terms) + "->" + "".join(phys[s] for s in spec.sites())
    dense = np.einsum(expr, *operands, optimize="greedy")
    assert np.abs(to_statevector(st) - dense).max() < 1e-12 * np.abs(dense).max()


def test_overlap_against_dense():
    spec = LatticeSpec(2, 3, 2, 2)
    rng = np.random.default_rng(10)
    st = build_state(spec, rng)
    phi = random_product_state(spec, rng)
    psi = to_statevector(st).reshape(-1)
    w = psi
    for x in range(spec.l1):
        for y in range(spec.l2):
            w = phi[x, y].conj() @ w.reshape(2, -1)
    assert abs(overlap(st, phi) - complex(w[0])) < 1e-10
    # Cauchy-Schwarz
    assert abs(overlap(st, phi)) ** 2 <= norm_squared(st) + 1e-12


def test_overlap_rejects_unnormalized():
    spec = LatticeSpec(2, 2, 2, 2)
    rng = np.random.default_rng(11)
    st = build_state(spec, rng)
    phi = random_product_state(spec, rng)
    phi[0, 0] *= 2.0
    with pytest.raises(ValueError):
        overlap(st, phi)


def test_local_expectation():
    spec = LatticeSpec(2, 3, 2, 2)
    rng = np.random.default_rng(12)
    st = build_state(spec, rng)
    assert abs(local_expectation(st, (0, 1), np.eye(2)) - norm_squared(st)) < 1e-10
    assert local_expectation(st, (1, 2), np.zeros((2, 2))) == 0.0
    obs = tnlab.traceless_observable(2)
    psi = to_statevector(st)
    k = 1 * 3 + 1
    front = np.moveaxis(psi, k, 0).reshape(2, -1)
    dense = np.vdot(front, obs @ front).real
    assert abs(local_expectation(st, (1, 1), obs) - dense) < 1e-10 * max(1.0, abs(dense))
    with pytest.raises(ValueError):
        local_expectation(st, (0, 0), np.array([[0.0, 1.0], [0.0, 0.0]]))


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
    fixed = tnlab.haar_unitary(spec.unitary_dim, rng)

    def twisted(state):
        params = state.params
        return TNState(spec, dataclasses.replace(params, u_minus=fixed @ params.u_minus))

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
    for x, y in spec.sites():
        s1, s2 = st.site(x, y), loaded.site(x, y)
        assert np.array_equal(s1.u_minus, s2.u_minus)
        assert np.array_equal(s1.u_plus, s2.u_plus)
        assert np.array_equal(s1.generator, s2.generator)
        assert s1.theta == s2.theta
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
