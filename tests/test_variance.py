"""Tests for variance scans, jackknife errors, and distance profiles."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import tnlab
from tnlab.lattice import LatticeSpec
from tnlab.losses import (GLOBAL_NORMALIZED, LOCAL_NORMALIZED, LOCAL_UNNORMALIZED,
                          LossSpec, plus_projector, plus_target, traceless_observable)
from tnlab.variance import (VarianceReport, distance_profile, jackknife_variance_se,
                            variance_scan)


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
        l1=l1, l2=l2, D=2, d=2, loss={"kind": LOCAL_NORMALIZED, "site": list(site)},
        n_samples=n, n_failures=0, seed=seed, variance=np.var(samples, axis=0, ddof=1),
        mean=samples.mean(axis=0), std_error=se, samples=samples)
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


def test_report_serialization():
    spec = LatticeSpec(2, 2, 2, 2)
    report = variance_scan(spec, local_loss(), 10, seed=19)
    doc = report.to_json_dict()
    assert doc["loss"]["kind"] == LOCAL_NORMALIZED
    assert len(doc["variance"]) == 2
    assert "samples" not in doc
    rows = report.csv_rows()
    assert rows[0] == ("site_x", "site_y", "variance", "std_error", "n")
    assert len(rows) == 1 + spec.n_sites
