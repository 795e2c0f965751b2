"""Monte-Carlo estimation of per-parameter gradient variances.

Each sample is an independently drawn random state; its full gradient grid is
evaluated analytically. Sample i draws from child i of one root seed, so
results are identical for any worker count, and partial results are merged in
sample order. `sample_values` is the one loop that draws and measures samples,
here and for `spinmodel.mc_second_moment`. It works a chunk of samples at a
time: a scan's chunk is one state, and the norm estimate's is as many as its
byte budget allows.
"""

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError
from .lattice import LatticeSpec
from .losses import LOCAL_KINDS, LossSpec, gradient_map
from .states import build_states


def _delete_one_variances(x):
    """Unbiased variances of samples x (axis 0) with each sample deleted in turn."""
    n = x.shape[0]
    s1 = np.sum(x, axis=0)
    s2 = np.sum(x * x, axis=0)
    m = n - 1
    s1_i = s1 - x
    return ((s2 - x * x) - s1_i * s1_i / m) / (m - 1)


def _jackknife_se(stat_i):
    """Jackknife standard error from the delete-one statistics stat_i (axis 0)."""
    n = stat_i.shape[0]
    return np.sqrt((n - 1) / n * np.sum((stat_i - np.mean(stat_i, axis=0)) ** 2, axis=0))


def jackknife_variance_se(values):
    """Delete-one jackknife standard errors of the unbiased variances of values (n, ...)."""
    x = np.asarray(values, dtype=float)
    if x.shape[0] < 3:
        return np.full(x.shape[1:], np.nan)
    return _jackknife_se(_delete_one_variances(x))


@dataclass(frozen=True)
class VarianceReport:
    """Per-site gradient statistics from one Monte-Carlo scan of spec under loss."""

    spec: LatticeSpec
    loss: LossSpec
    n_samples: int
    n_failures: int
    seed: int
    variance: np.ndarray  # (l1, l2), unbiased
    mean: np.ndarray
    std_error: np.ndarray  # jackknife SE of the variance
    elapsed_seconds: float = 0.0
    samples: np.ndarray = None  # raw (n, l1, l2) gradient grid


def sample_values(spec, measure, rngs, chunk=1):
    """measure(build_states(spec, generators)) for the generators in rngs, in order,
    `chunk` of them at a time (the last chunk may be shorter).

    measure returns one value per sample of the chunk it is given. Returns the
    list of values and the number of samples in chunks that raised
    DegenerateStateError, which give no value. Memory grows only with the
    samples measured so far and one chunk.
    """
    values = []
    failures = 0
    rngs = iter(rngs)
    while generators := list(itertools.islice(rngs, chunk)):
        try:
            values.extend(measure(build_states(spec, generators)))
        except DegenerateStateError:
            failures += len(generators)
    return values, failures


def _scan_job(job):
    """Gradient maps of samples start .. stop - 1; sample i draws from child i of seed."""
    spec, loss, seed, start, stop = job
    # SeedSequence(seed, spawn_key=(i,)) is SeedSequence(seed).spawn(n)[i], made on demand
    rngs = (np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            for i in range(start, stop))
    # chunks of one state, so that a degenerate state costs only its own sample
    return sample_values(spec, lambda states: [gradient_map(states[0], loss)], rngs)


def variance_scan(spec, loss, n_samples, seed, workers=1):
    """Empirical per-site Var(d loss/d theta) over n_samples independent states."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    t0 = time.monotonic()
    n_jobs = min(workers, n_samples)
    jobs = [(spec, loss, seed, k * n_samples // n_jobs, (k + 1) * n_samples // n_jobs)
            for k in range(n_jobs)]
    if n_jobs == 1:
        parts = [_scan_job(jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            parts = list(pool.map(_scan_job, jobs))
    grads = [g for values, _ in parts for g in values]
    failures = sum(f for _, f in parts)

    samples = np.array(grads)  # (n, l1, l2)
    n_ok = samples.shape[0]
    if n_ok < 2:
        raise RuntimeError(f"only {n_ok} usable samples ({failures} failures)")
    return VarianceReport(
        spec=spec, loss=loss, n_samples=n_ok, n_failures=failures, seed=seed,
        variance=np.var(samples, axis=0, ddof=1),
        mean=np.mean(samples, axis=0),
        std_error=jackknife_variance_se(samples),
        elapsed_seconds=time.monotonic() - t0,
        samples=samples,
    )


def distance_profile(report):
    """Mean gradient variance grouped by toric Manhattan distance to the observable site.

    Returns {distance: (mean_variance, std_error, n_sites)}; the SE of each
    group mean is jackknifed over the report's raw samples.
    """
    if report.loss.kind not in LOCAL_KINDS:
        raise ValueError("distance profile requires a local loss report")
    samples = report.samples
    if samples is None:
        raise ValueError("distance profile requires a report with its raw samples")
    spec, obs = report.spec, tuple(report.loss.site)
    groups = {}
    for site in spec.sites():
        groups.setdefault(spec.toric_manhattan(site, obs), []).append(site)
    profile = {}
    for delta in sorted(groups):
        sites = groups[delta]
        mean_var = float(np.mean([report.variance[s] for s in sites]))
        if samples.shape[0] < 3:
            se = float("nan")  # as in jackknife_variance_se: too few samples
        else:
            per_site = np.stack([samples[:, s[0], s[1]] for s in sites], axis=1)
            se = float(_jackknife_se(_delete_one_variances(per_site).mean(axis=1)))
        profile[delta] = (mean_var, se, len(sites))
    return profile

