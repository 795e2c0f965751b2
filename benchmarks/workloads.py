"""The benchmark's workloads: inputs, warm-up item, timed body and output oracles.

D = d = 2 throughout. A body is a fixed list of steps (tnlab CLI commands run
in this process with `--workers 1`, or public library calls) at a fixed size
and sample count, so its wall time is the time to a result of fixed
statistical precision. Each oracle is independent of the random stream: it
compares against values stored in benchmarks/data/ by make_refs.py.

An operation is one command or library call, or one oracle comparison. A
command fails if it raised, exited 2 or 4, or reported a DegenerateStateError
sample; a comparison fails if it misses its tolerance. Exit code 3 from
norm-stats is its seed-dependent 3-SE Monte-Carlo check and is counted as a
statistical miss, not a failure.
"""

import json
from pathlib import Path

import numpy as np

from tnlab import cli, spinmodel
from tnlab.losses import (GLOBAL_NORMALIZED, LOCAL_NORMALIZED, LossSpec,
                          gradient_map, plus_projector, plus_target)
from tnlab.states import load_state

DATA = Path(__file__).resolve().parent / "data"
Z_REL_TOL = 1e-12
GRAD_REL_TOL = 1e-10
FAILED_EXIT_CODES = (cli.EXIT_CONFIG, cli.EXIT_RESOURCE)


class Tally:
    """Operations attempted and failed, and norm-stats 3-SE misses."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.stat_misses = 0
        self.problems = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def load_refs():
    with open(DATA / "refs.json") as fh:
        return json.load(fh)


def rep_seed(seed, rep):
    """CLI seed of body item `rep`: the first item uses the workload seed itself."""
    return seed + 1000 * rep


def workload_loss(kind, spec):
    """The loss `tnlab var-scan --loss <kind>` builds for this lattice."""
    if kind == GLOBAL_NORMALIZED:
        return LossSpec(kind=kind, target=plus_target(spec))
    return LossSpec(kind=kind, observable=plus_projector(spec.d), site=(0, 0))


def _rel_dev(value, ref):
    return abs(value - ref) / abs(ref)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


class Workload:
    name = None

    def __init__(self, seed, workdir, tally):
        self.seed = seed
        self.out = Path(workdir) / self.name
        self.tally = tally
        self.refs = load_refs()

    def command(self, argv):
        """Run one tnlab command in this process; the exit code, or the exception raised."""
        try:
            return cli.main(argv)
        except Exception as exc:  # a failed operation, reported by the caller
            return exc

    def command_ok(self, rc, what):
        return self.tally.record(isinstance(rc, int) and rc not in FAILED_EXIT_CODES,
                                 f"{what}: {rc!r}")

    def warm_up(self):
        raise NotImplementedError

    def steps(self, rep):
        """[(label, zero-argument callable)] making up body item `rep`."""
        raise NotImplementedError

    def check(self, rep, results):
        """Record the oracle outcome of body item `rep` in the tally."""
        raise NotImplementedError

    def fixed_counts(self):
        """Traced counts per body item that the workload's own calls fix.

        They hold whatever algorithm tnlab uses inside, so a traced run gates
        on them. Most count calls through a name that `cli` binds, so a
        namespace the wrapping missed shows as a wrong count. Counts that
        follow the algorithm are pinned by check_counts.py instead.
        """
        raise NotImplementedError


class NormMC(Workload):
    """tnlab norm-stats: per-sample call overhead of the Monte-Carlo second moment."""

    name = "norm_mc"
    sizes = ((2, 2), (2, 3), (3, 3))
    samples = 400

    def argv(self, seed, samples):
        return ["norm-stats", "--sizes", ",".join(f"{a}x{b}" for a, b in self.sizes),
                "--samples", str(samples), "--seed", str(seed), "--out", str(self.out),
                "--workers", "1"]

    def _check_run(self, rc, seed, what, body=True):
        if not self.command_ok(rc, what):
            return
        if rc == cli.EXIT_CHECK and body:
            self.tally.stat_misses += 1
        doc = _read_json(self.out / "norm_stats.json")
        records = {(r["l1"], r["l2"]): r for r in doc["records"]}
        for l1, l2 in self.sizes:
            ref = self.refs["partition_functions"]["norm"][f"{l1}x{l2}"]
            rec = records.get((l1, l2))
            ok = (doc["config"]["seed"] == seed and rec is not None
                  and _rel_dev(rec["z_exact"], ref) <= Z_REL_TOL)
            self.tally.record(ok, f"{what}: z_exact {l1}x{l2} {rec and rec['z_exact']!r} != {ref!r}")

    def warm_up(self):
        self._check_run(self.command(self.argv(self.seed, 2)), self.seed, "warm-up norm-stats",
                        body=False)

    def steps(self, rep):
        argv = self.argv(rep_seed(self.seed, rep), self.samples)
        return [("norm-stats", lambda: self.command(argv))]

    def check(self, rep, results):
        self._check_run(results[0], rep_seed(self.seed, rep), f"item {rep} norm-stats")

    def fixed_counts(self):
        return {"cli.main.calls": 1, "spinmodel.mc_second_moment.calls": len(self.sizes),
                "spinmodel.exact_partition_function.calls": len(self.sizes)}


class GradScan(Workload):
    """tnlab var-scan, local 4x5 then global 4x4: flop-bound 256 x 256 transfer matrices."""

    name = "grad_scan"
    # (loss kind, l1, l2, samples); the sample counts split the body about
    # evenly between the two scans
    scans = ((LOCAL_NORMALIZED, 4, 5, 8), (GLOBAL_NORMALIZED, 4, 4, 16))

    def warm_up(self):
        """The gradient oracle: stored states against their stored reference gradients."""
        for kind, l1, l2, _ in self.scans:
            ref = self.refs["gradients"][kind]
            state = load_state(DATA / ref["state"])
            loss = workload_loss(kind, state.spec)
            expected = np.array(ref["gradient"])
            try:
                dev = float(np.abs(gradient_map(state, loss) - expected).max()
                            / np.abs(expected).max())
            except Exception as exc:  # a failed operation
                dev = exc
            self.tally.record(isinstance(dev, float) and dev <= GRAD_REL_TOL,
                              f"gradient oracle {kind} {l1}x{l2}: {dev!r}")

    def argv(self, kind, l1, l2, samples, seed):
        return ["var-scan", "--loss", kind, "--sizes", f"{l1}x{l2}", "--samples", str(samples),
                "--seed", str(seed), "--out", str(self.out / kind), "--workers", "1"]

    def steps(self, rep):
        seed = rep_seed(self.seed, rep)
        out = []
        for kind, l1, l2, samples in self.scans:
            argv = self.argv(kind, l1, l2, samples, seed)
            out.append((kind, lambda argv=argv: self.command(argv)))
        return out

    def check(self, rep, results):
        seed = rep_seed(self.seed, rep)
        for (kind, l1, l2, samples), rc in zip(self.scans, results):
            what = f"item {rep} var-scan {kind} {l1}x{l2}"
            if not self.command_ok(rc, what):
                continue
            doc = _read_json(self.out / kind / "var_scan_summary.json")
            rec = doc["records"][0]
            ok = (doc["config"]["seed"] == seed and rec["n_failures"] == 0
                  and rec["n_samples"] == samples and rc == cli.EXIT_OK)
            self.tally.record(ok, f"{what}: exit {rc}, {rec['n_failures']} failed samples")

    def fixed_counts(self):
        return {"cli.main.calls": len(self.scans), "variance.variance_scan.calls": len(self.scans),
                "variance.samples": sum(s for *_, s in self.scans)}


class ExactCount(Workload):
    """Exhaustive partition functions and polyomino enumeration: no sampling, no network."""

    name = "exact_count"
    z_cases = (("norm", 4, 4), ("global", 4, 4), ("norm", 4, 5), ("global", 4, 5))
    poly_argv = ["polyomino", "--sizes", "2x2,3x3,4x4", "--max-area", "11", "--seed", "0"]
    tables = {"norm": spinmodel.norm_weights(2, 2), "global": spinmodel.global_loss_weights(2, 2)}

    def _z_step(self, kind, l1, l2):
        def step():
            try:
                return spinmodel.exact_partition_function(l1, l2, self.tables[kind]).z
            except Exception as exc:  # a failed operation
                return exc
        return step

    def _check_z(self, kind, l1, l2, z, what):
        ref = self.refs["partition_functions"][kind][f"{l1}x{l2}"]
        self.tally.record(isinstance(z, float) and _rel_dev(z, ref) <= Z_REL_TOL,
                          f"{what}: Z {kind} {l1}x{l2} = {z!r}, stored {ref!r}")

    def _check_polyomino(self, rc, what):
        if not self.command_ok(rc, what):
            return
        doc = _read_json(self.out / "polyomino_counts.json")
        ok = (rc == cli.EXIT_OK and doc["series_matches_enumeration"]
              and all(d["n_violations"] == 0 for d in doc["decomposition"]))
        self.tally.record(ok, f"{what}: exit {rc}")

    def warm_up(self):
        kind, l1, l2 = self.z_cases[0]
        self._check_z(kind, l1, l2, self._z_step(kind, l1, l2)(), "warm-up")
        rc = self.command(["polyomino", "--sizes", "2x2", "--max-area", "6", "--seed", "0",
                           "--out", str(self.out)])
        self._check_polyomino(rc, "warm-up polyomino")

    def steps(self, rep):
        out = [(f"z_{kind}_{l1}x{l2}", self._z_step(kind, l1, l2))
               for kind, l1, l2 in self.z_cases]
        argv = self.poly_argv + ["--out", str(self.out)]
        out.append(("polyomino", lambda: self.command(argv)))
        return out

    def check(self, rep, results):
        for (kind, l1, l2), z in zip(self.z_cases, results):
            self._check_z(kind, l1, l2, z, f"item {rep}")
        self._check_polyomino(results[-1], f"item {rep} polyomino")

    def fixed_counts(self):
        return {"cli.main.calls": 1, "spinmodel.exact_partition_function.calls": len(self.z_cases),
                "polyomino.enumerate_directed.calls": 1}


WORKLOADS = {w.name: w for w in (NormMC, GradScan, ExactCount)}
