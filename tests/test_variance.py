"""Tests for variance scans, jackknife errors, and distance profiles."""

import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import tnlab
from tnlab.errors import DegenerateStateError
from tnlab.lattice import LatticeSpec
from tnlab.losses import (GLOBAL_NORMALIZED, LOCAL_NORMALIZED, LOCAL_UNNORMALIZED,
                          LossSpec, gradient_map, plus_projector, plus_target,
                          traceless_observable)
from tnlab.spinmodel import mc_second_moment
from tnlab.states import build_state, norm_squared, sample_bytes
from tnlab.variance import (VarianceReport, distance_profile, jackknife_variance_se,
                            sample_values, variance_scan)


def local_loss(site=(0, 0), normalized=True):
    kind = LOCAL_NORMALIZED if normalized else LOCAL_UNNORMALIZED
    return LossSpec(kind=kind, observable=plus_projector(2), site=site)


def test_jackknife_matches_brute_force():
    rng = np.random.default_rng(30)
    x = rng.standard_normal(40)
    n = len(x)
    brute = []
    for i in range(n):
        brute.append(np.var(np.delete(x, i), ddof=1))
    brute = np.asarray(brute)
    expected = np.sqrt((n - 1) / n * np.sum((brute - brute.mean()) ** 2))
    assert abs(jackknife_variance_se(x) - expected) < 1e-12


def brute_jackknife_se(stat_i):
    n = len(stat_i)
    return np.sqrt((n - 1) / n * np.sum((stat_i - stat_i.mean()) ** 2))


@settings(max_examples=50, deadline=None)
@given(l1=hst.integers(2, 4), l2=hst.integers(2, 4), n=hst.integers(3, 20),
       seed=hst.integers(0, 2**32 - 1))
def test_jackknife_errors_match_brute_force_delete_one(l1, l2, n, seed):
    spec = LatticeSpec(l1, l2, 2, 2)
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n, l1, l2)) * np.exp(rng.standard_normal((l1, l2)))
    site = (int(rng.integers(l1)), int(rng.integers(l2)))
    var_i = np.array([np.var(np.delete(samples, i, axis=0), axis=0, ddof=1) for i in range(n)])
    se = jackknife_variance_se(samples)
    for x, y in spec.sites():
        assert np.isclose(se[x, y], brute_jackknife_se(var_i[:, x, y]), rtol=1e-9, atol=0)
    report = VarianceReport(
        spec=spec, loss=local_loss(site), n_samples=n, n_failures=0, seed=seed,
        variance=np.var(samples, axis=0, ddof=1), mean=samples.mean(axis=0), std_error=se,
        samples=samples)
    for delta, (_, group_se, count) in distance_profile(report).items():
        sites = [s for s in spec.sites() if spec.toric_manhattan(s, site) == delta]
        stat_i = np.mean([var_i[:, x, y] for x, y in sites], axis=0)
        assert count == len(sites)
        assert np.isclose(group_se, brute_jackknife_se(stat_i), rtol=1e-9, atol=1e-15)


def test_scan_reproducible_bit_for_bit():
    spec = LatticeSpec(2, 2, 2, 2)
    loss = local_loss()
    r1 = variance_scan(spec, loss, 2, seed=12)
    r2 = variance_scan(spec, loss, 2, seed=12)
    assert np.array_equal(r1.variance, r2.variance)
    assert np.array_equal(r1.mean, r2.mean)
    assert r1.n_failures == r2.n_failures == 0


def test_scan_worker_count_does_not_change_results():
    spec = LatticeSpec(2, 2, 2, 2)
    loss = LossSpec(kind=GLOBAL_NORMALIZED, target=plus_target(spec))
    serial = variance_scan(spec, loss, 8, seed=13, workers=1)
    parallel = variance_scan(spec, loss, 8, seed=13, workers=2)
    assert np.array_equal(serial.variance, parallel.variance)
    assert np.array_equal(serial.mean, parallel.mean)


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_equals_a_loop_over_spawned_children(workers):
    # the scan's stream: sample i draws from SeedSequence(seed).spawn(n)[i]
    spec = LatticeSpec(2, 3, 2, 2)
    loss = local_loss(site=(1, 1))
    grads = [gradient_map(build_state(spec, np.random.default_rng(child)), loss)
             for child in np.random.SeedSequence(20).spawn(5)]
    report = variance_scan(spec, loss, 5, seed=20, workers=workers)
    assert np.array_equal(report.samples, np.array(grads))
    assert np.array_equal(report.variance, np.var(grads, axis=0, ddof=1))


def test_mc_second_moment_equals_a_sequential_loop():
    # the norm estimate's stream: every sample draws from the one generator in turn
    spec = LatticeSpec(2, 3, 2, 2)
    rng = np.random.default_rng(21)
    vals = np.empty(7)
    for i in range(7):
        vals[i] = norm_squared(build_state(spec, rng)) ** 2
    expected = float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(7))
    assert mc_second_moment(spec, 7, np.random.default_rng(21)) == expected


@settings(max_examples=15, deadline=None)
@given(l1=hst.integers(2, 3), l2=hst.integers(2, 3), D=hst.sampled_from([2, 3]),
       d=hst.sampled_from([2, 3]), n_samples=hst.integers(2, 9),
       seed=hst.integers(0, 2**32 - 1))
@example(l1=3, l2=3, D=3, d=3, n_samples=3, seed=1256205677)
def test_mc_second_moment_is_the_same_for_every_chunk_size(l1, l2, D, d, n_samples, seed):
    # chunks of 1 to 7 states, the last one ragged unless the chunk divides n_samples, give
    # the sequential loop's estimate and leave the generator where it leaves it; the loop
    # squares by numpy, as the library does: Python's ** goes through libm's pow, which in
    # the example above rounds the square of a norm one spacing away from x * x
    spec = LatticeSpec(l1, l2, D, d)
    rng = np.random.default_rng(seed)
    vals = np.square([norm_squared(build_state(spec, rng)) for _ in range(n_samples)])
    expected = float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(n_samples))
    for chunk in range(1, 8):
        chunk_rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tnlab.spinmodel, "_CHUNK_BYTES", sample_bytes(spec, chunk))
            assert tnlab.spinmodel._chunk_size(spec) == chunk
            assert mc_second_moment(spec, n_samples, chunk_rng) == expected
        assert chunk_rng.bit_generator.state == rng.bit_generator.state


class _FirstSample(Exception):
    pass


def _raise_first_sample(spec, rngs):
    raise _FirstSample


def test_scan_allocates_nothing_per_sample_ahead_of_the_first(monkeypatch):
    # a spawned child costs about 376 bytes: 10**5 of them made up front would take 37 MB
    monkeypatch.setattr(tnlab.variance, "build_states", _raise_first_sample)
    spec = LatticeSpec(2, 2, 2, 2)
    tracemalloc.start()
    try:
        with pytest.raises(_FirstSample):
            variance_scan(spec, local_loss(), 10**5, seed=22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_mc_second_moment_allocates_nothing_ahead_of_the_first_sample(monkeypatch):
    # 10**10 samples: an up-front array of them would be 80 GB, a MemoryError; what is
    # made before the first chunk is built stays within one chunk's budget
    monkeypatch.setattr(tnlab.variance, "build_states", _raise_first_sample)
    tracemalloc.start()
    try:
        with pytest.raises(_FirstSample):
            mc_second_moment(LatticeSpec(2, 2, 2, 2), 10**10, np.random.default_rng(23))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < tnlab.spinmodel._CHUNK_BYTES


@pytest.mark.parametrize("workers", [0, -5])
def test_scan_rejects_fewer_than_one_worker(workers):
    spec = LatticeSpec(2, 2, 2, 2)
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        variance_scan(spec, local_loss(), 2, seed=0, workers=workers)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_pool_sized_by_jobs_not_workers(monkeypatch):
    monkeypatch.setattr(tnlab.variance, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "max_workers", [])
    spec = LatticeSpec(2, 2, 2, 2)
    report = variance_scan(spec, local_loss(), 2, seed=16, workers=3)
    assert _RecordingPool.max_workers == [2]
    assert report.n_samples == 2


def test_scan_variance_is_the_unbiased_sample_variance():
    # variance * (n - 1) is the sum of squared deviations over the report's own samples
    spec = LatticeSpec(2, 2, 2, 2)
    report = variance_scan(spec, local_loss(), 4, seed=21)
    g, n = report.samples, report.n_samples
    deviations = ((g - g.mean(axis=0)) ** 2).sum(axis=0)
    assert np.allclose(report.variance * (n - 1), deviations, rtol=1e-12, atol=0.0)


def test_variances_nonnegative():
    spec = LatticeSpec(2, 3, 2, 2)
    report = variance_scan(spec, local_loss(), 30, seed=14)
    assert np.all(report.variance >= 0.0)
    assert report.n_samples == 30


def test_scan_rejects_tiny_sample_counts():
    with pytest.raises(ValueError):
        variance_scan(LatticeSpec(2, 2, 2, 2), local_loss(), 1, seed=0)


def test_distance_profile_groups():
    spec = LatticeSpec(3, 4, 2, 2)
    report = variance_scan(spec, local_loss(site=(1, 2)), 25, seed=15)
    profile = distance_profile(report)
    assert profile[0][2] == 1  # exactly one on-site entry
    assert sum(v[2] for v in profile.values()) == spec.n_sites
    assert set(profile) == {0, 1, 2, 3}


def test_distance_profile_with_two_samples_has_nan_errors():
    spec = LatticeSpec(2, 3, 2, 2)
    report = variance_scan(spec, local_loss(), 2, seed=15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profile = distance_profile(report)
    assert all(np.isfinite(mean) and np.isnan(se) for mean, se, _ in profile.values())


def test_distance_profile_requires_raw_samples():
    report = variance_scan(LatticeSpec(2, 3, 2, 2), local_loss(), 5, seed=16)
    with pytest.raises(ValueError, match="raw samples"):
        distance_profile(dataclasses.replace(report, samples=None))


def test_distance_profile_requires_local_loss():
    spec = LatticeSpec(2, 2, 2, 2)
    loss = LossSpec(kind=GLOBAL_NORMALIZED, target=plus_target(spec))
    report = variance_scan(spec, loss, 5, seed=16)
    with pytest.raises(ValueError):
        distance_profile(report)


def test_zero_observable_gives_zero_variances():
    loss = LossSpec(kind=LOCAL_UNNORMALIZED, observable=np.zeros((2, 2)), site=(0, 0))
    report = variance_scan(LatticeSpec(2, 2, 2, 2), loss, 5, seed=17)
    assert report.variance[0, 0] == 0.0


def test_onsite_variance_positive_for_traceless_observable():
    loss = LossSpec(kind=LOCAL_UNNORMALIZED, observable=traceless_observable(2), site=(0, 0))
    report = variance_scan(LatticeSpec(2, 2, 2, 2), loss, 60, seed=18)
    assert report.variance[0, 0] > 3 * report.std_error[0, 0] > 0


@pytest.mark.parametrize("chunk, failing, lost", [(1, {1, 3, 4}, {1, 3, 4}),
                                                  (3, {1}, {3, 4, 5}), (3, {2}, {6})])
def test_sample_values_skips_failed_samples_and_counts_them(chunk, failing, lost):
    # a chunk that raises DegenerateStateError gives no value for any of its samples;
    # failing counts the measure's calls, lost the samples of the chunks that raised
    spec = LatticeSpec(2, 2, 2, 2)
    calls = itertools.count()

    def measure(states):
        if next(calls) in failing:
            raise DegenerateStateError("chosen to fail")
        return states.theta[:, 0, 0]

    values, failures = sample_values(spec, measure, (np.random.default_rng(k) for k in range(7)),
                                     chunk)
    expected = [build_state(spec, np.random.default_rng(k)).theta[0, 0]
                for k in range(7) if k not in lost]
    assert values == expected
    assert failures == len(lost)


def test_scan_with_no_usable_sample_raises(monkeypatch):
    # a norm floor of inf makes every normalized gradient degenerate
    monkeypatch.setattr(tnlab.losses, "Z_FLOOR", np.inf)
    spec = LatticeSpec(2, 2, 2, 2)
    loss = LossSpec(kind=GLOBAL_NORMALIZED, target=plus_target(spec))
    with pytest.raises(RuntimeError, match=r"only 0 usable samples \(5 failures\)"):
        variance_scan(spec, loss, 5, seed=20, workers=1)
