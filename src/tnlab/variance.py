"""Monte-Carlo estimation of per-parameter gradient variances.

Each sample is an independently drawn random state; its full gradient grid is
evaluated analytically. Per-sample random sources are spawned from one root
seed, so results are identical for any worker count, and partial results are
merged in sample order.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError
from .losses import LOCAL_KINDS, gradient_map
from .states import build_state


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
    """Per-site gradient statistics from one Monte-Carlo scan."""

    l1: int
    l2: int
    D: int
    d: int
    loss: dict
    n_samples: int
    n_failures: int
    seed: int
    variance: np.ndarray  # (l1, l2), unbiased
    mean: np.ndarray
    std_error: np.ndarray  # jackknife SE of the variance
    elapsed_seconds: float = 0.0
    samples: np.ndarray = None  # raw (n, l1, l2) gradient grid; not serialized

    def csv_rows(self):
        rows = [("site_x", "site_y", "variance", "std_error", "n")]
        for x in range(self.l1):
            for y in range(self.l2):
                rows.append((x, y, repr(float(self.variance[x, y])),
                             repr(float(self.std_error[x, y])), self.n_samples))
        return rows

    def to_json_dict(self):
        return {
            "l1": self.l1, "l2": self.l2, "D": self.D, "d": self.d,
            "loss": self.loss, "n_samples": self.n_samples,
            "n_failures": self.n_failures, "seed": self.seed,
            "variance": self.variance.tolist(), "mean": self.mean.tolist(),
            "std_error": self.std_error.tolist(),
            "elapsed_seconds": self.elapsed_seconds,
        }


def _scan_chunk(args):
    spec, loss, seeds = args
    grads = []
    failures = 0
    for ss in seeds:
        rng = np.random.default_rng(ss)
        try:
            state = build_state(spec, rng)
            grads.append(gradient_map(state, loss))
        except DegenerateStateError:
            failures += 1
    return grads, failures


def variance_scan(spec, loss, n_samples, seed, workers=1):
    """Empirical per-site Var(d loss/d theta) over n_samples independent states."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    start = time.monotonic()
    sample_keys = np.random.SeedSequence(seed).spawn(n_samples)

    if workers > 1:
        chunks = np.array_split(np.arange(n_samples), min(workers, n_samples))
        jobs = [(spec, loss, [sample_keys[i] for i in idx]) for idx in chunks if len(idx)]
        grads, failures = [], 0
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            for g, f in pool.map(_scan_chunk, jobs):
                grads.extend(g)
                failures += f
    else:
        grads, failures = _scan_chunk((spec, loss, sample_keys))

    samples = np.array(grads)  # (n, l1, l2)
    n_ok = samples.shape[0]
    if n_ok < 2:
        raise RuntimeError(f"only {n_ok} usable samples ({failures} failures)")
    report = VarianceReport(
        l1=spec.l1, l2=spec.l2, D=spec.D, d=spec.d,
        loss=loss.describe(), n_samples=n_ok, n_failures=failures, seed=seed,
        variance=np.var(samples, axis=0, ddof=1),
        mean=np.mean(samples, axis=0),
        std_error=jackknife_variance_se(samples),
        elapsed_seconds=time.monotonic() - start,
        samples=samples,
    )
    return report


def distance_profile(report):
    """Mean gradient variance grouped by toric Manhattan distance to the observable site.

    Returns {distance: (mean_variance, std_error, n_sites)}; the SE of each
    group mean is jackknifed over the report's raw samples.
    """
    from .lattice import LatticeSpec

    if report.loss.get("kind") not in LOCAL_KINDS:
        raise ValueError("distance profile requires a local loss report")
    samples = report.samples
    if samples is None:
        raise ValueError("distance profile requires a report with its raw samples")
    spec = LatticeSpec(report.l1, report.l2, report.D, report.d)
    obs = tuple(report.loss["site"])
    groups = {}
    for x in range(spec.l1):
        for y in range(spec.l2):
            groups.setdefault(spec.toric_manhattan((x, y), obs), []).append((x, y))
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

