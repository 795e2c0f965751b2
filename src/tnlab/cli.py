"""Command-line front end: runs the laboratory experiments and writes CSV/JSON tables.

Commands: norm-stats (exact partition function vs Monte-Carlo second moment),
var-scan (gradient-variance scans), polyomino (enumeration vs series, the
toric decomposition check and the reference shape's statistics), bounds
(closed-form bound reports). The library returns plain records, and this module
alone turns them into CSV rows and JSON documents. Every output embeds the run
configuration; a fixed seed makes outputs reproducible byte-for-byte apart from
the elapsed-time metadata field in JSON files.

Exit codes: 0 success, 2 invalid configuration, 3 acceptance-check failure,
4 resource cap exceeded.
"""

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .errors import ResourceLimitError
from .lattice import LatticeSpec
from .losses import (GLOBAL_NORMALIZED, LOCAL_NORMALIZED, LossSpec,
                     plus_projector, plus_target)
from .polyomino import (_check_area, enumerate_directed, series_coefficients, stats,
                        verify_decomposition)
from .spinmodel import exact_partition_function, mc_second_moment, norm_weights
from .states import check_state_budget
from .variance import distance_profile, variance_scan

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_RESOURCE = 4

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    command: str
    sizes: tuple
    bond_dim: int
    phys_dim: int
    samples: int
    seed: int
    out: str
    format: str
    workers: int


def _parse_sizes(text):
    sizes = []
    for part in text.split(","):
        try:
            a, b = part.lower().split("x")
            sizes.append((int(a), int(b)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad size {part!r}; expected e.g. 2x3")
    return tuple(sizes)


def _finite(value):
    """value with every float that JSON cannot hold, NaN (an undefined statistic) or inf,
    replaced by None, in nested dicts, lists and tuples."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _emit(outdir, name, config, elapsed, rows=None, payload=None):
    """Write rows to name.csv and payload to name.json, as config.format asks; both embed config.

    The JSON is strict (RFC 8259): a NaN or inf in payload is written as null."""
    outdir.mkdir(parents=True, exist_ok=True)
    meta = asdict(config)  # json writes the tuple sizes as nested lists
    if config.format in ("csv", "both") and rows is not None:
        with open(outdir / f"{name}.csv", "w", newline="") as fh:
            fh.write("# config: " + json.dumps(meta, sort_keys=True) + "\n")
            csv.writer(fh).writerows(rows)
    if config.format in ("json", "both") and payload is not None:
        doc = {"schema_version": SCHEMA_VERSION, "config": meta,
               "elapsed_seconds": elapsed, **_finite(payload)}
        with open(outdir / f"{name}.json", "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True, allow_nan=False)
            fh.write("\n")


def cmd_norm_stats(config):
    t0 = time.monotonic()
    rng = np.random.default_rng(config.seed)
    rows = [("l1", "l2", "D", "d", "n_samples", "z_exact", "mc_mean", "mc_se",
             "deviation_over_se", "ok")]
    records = []
    failed = False
    table = norm_weights(config.bond_dim, config.phys_dim)
    for l1, l2 in config.sizes:
        spec = LatticeSpec(l1, l2, config.bond_dim, config.phys_dim)
        z = exact_partition_function(l1, l2, table).z
        mean, se = mc_second_moment(spec, config.samples, rng)
        dev = abs(mean - z) / se
        ok = dev <= 3.0
        failed = failed or not ok
        rows.append((l1, l2, config.bond_dim, config.phys_dim, config.samples,
                     repr(z), repr(mean), repr(se), repr(dev), ok))
        records.append({"l1": l1, "l2": l2, "z_exact": z, "mc_mean": mean,
                        "mc_se": se, "deviation_over_se": dev, "ok": ok})
    _emit(Path(config.out), "norm_stats", config, time.monotonic() - t0,
          rows=rows, payload={"records": records})
    return EXIT_CHECK if failed else EXIT_OK


def cmd_var_scan(config, loss_kind):
    t0 = time.monotonic()
    outdir = Path(config.out)
    summary_rows = [("l1", "l2", "n_sites", "loss", "summary_stat", "value")]
    records = []
    for i, (l1, l2) in enumerate(config.sizes):
        spec = LatticeSpec(l1, l2, config.bond_dim, config.phys_dim)
        check_state_budget(spec)  # before the target, which has a vector per site
        if loss_kind == GLOBAL_NORMALIZED:
            loss = LossSpec(kind=loss_kind, target=plus_target(spec))
            stat_name = "mean"
        else:
            loss = LossSpec(kind=loss_kind, observable=plus_projector(spec.d), site=(0, 0))
            stat_name = "max"
        report = variance_scan(spec, loss, config.samples, config.seed + i,
                               workers=config.workers)
        value = float(np.mean(report.variance) if stat_name == "mean"
                      else np.max(report.variance))
        summary_rows.append((l1, l2, spec.n_sites, loss_kind, stat_name, repr(value)))
        # the record flattens the lattice and the loss, and leaves the raw samples out
        rec = {**asdict(spec), "loss": {"kind": loss_kind}, "n_samples": report.n_samples,
               "n_failures": report.n_failures, "seed": report.seed,
               "variance": report.variance.tolist(), "mean": report.mean.tolist(),
               "std_error": report.std_error.tolist(),
               "elapsed_seconds": report.elapsed_seconds, "summary": {stat_name: value}}
        if loss_kind == LOCAL_NORMALIZED:
            rec["loss"]["site"] = list(loss.site)
            prof = distance_profile(report)
            rec["distance_profile"] = {str(k): list(v) for k, v in prof.items()}
        records.append(rec)
        site_rows = [("site_x", "site_y", "variance", "std_error", "n")]
        site_rows += [(x, y, repr(float(report.variance[x, y])),
                       repr(float(report.std_error[x, y])), report.n_samples)
                      for x, y in spec.sites()]
        _emit(outdir, f"var_scan_sites_{l1}x{l2}", config, report.elapsed_seconds,
              rows=site_rows)
    _emit(outdir, "var_scan_summary", config, time.monotonic() - t0,
          rows=summary_rows, payload={"records": records})
    return EXIT_OK


def cmd_polyomino(config, max_area):
    t0 = time.monotonic()
    # the area and then the sizes go first, so that a bad one exits before any enumeration
    _check_area(max_area)
    bridge_rows = [("L", "n_valid_configs", "n_violations")]
    bridge_ok = True
    bridge_records = []
    for l1, l2 in config.sizes:
        if l1 != l2:
            raise ValueError("the toric decomposition check needs square sizes")
        rep = verify_decomposition(l1)
        bridge_ok = bridge_ok and rep.ok
        bridge_rows.append((l1, rep.n_valid, rep.n_violations))
        bridge_records.append({"L": l1, "n_valid": rep.n_valid,
                               "n_violations": rep.n_violations})

    enum = enumerate_directed(max_area)
    series = series_coefficients(max_area)
    rows = [("area", "upper_perimeter", "enumerated", "series", "match")]
    mismatch = False
    for key in sorted(set(enum.counts) | set(series.counts)):
        a, b = enum.counts.get(key, 0), series.counts.get(key, 0)
        mismatch = mismatch or a != b
        rows.append((key[0], key[1], a, b, a == b))

    # reference shape: directed polyomino with the documented statistics (6, 14, 3)
    ref = frozenset({(-3, -1), (-2, -1), (-1, -2), (-1, -1), (-1, 0), (0, 0)})
    ref_stats = stats(ref)
    ref_rows = [("area", "perimeter", "upper_perimeter", "cells"),
                (*ref_stats, json.dumps(sorted(ref)))]

    elapsed = time.monotonic() - t0
    outdir = Path(config.out)
    _emit(outdir, "polyomino_reference", config, elapsed, rows=ref_rows)
    _emit(outdir, "polyomino_counts", config, elapsed, rows=rows, payload={
        "counts": [{"area": k[0], "upper_perimeter": k[1], "count": v}
                   for k, v in sorted(enum.counts.items())],
        "series_matches_enumeration": not mismatch,
        "reference_shape": {"cells": sorted(ref), **ref_stats._asdict()},
        "decomposition": bridge_records,
    })
    _emit(outdir, "polyomino_decomposition", config, elapsed, rows=bridge_rows)
    ref_ok = ref_stats == (6, 14, 3)
    return EXIT_OK if (not mismatch and bridge_ok and ref_ok) else EXIT_CHECK


def cmd_bounds(config):
    t0 = time.monotonic()
    D, d = config.bond_dim, config.phys_dim
    # before any work: (D^2 d)^2 rounds past the largest float from 2**1024 - 2**970 on
    if (D * D * d) ** 2 >= 2**1024 - 2**970:
        raise ValueError(f"--bond-dim {D} and --phys-dim {d} put the on-site floor "
                         "prefactors past the float range")
    pre_generic, pre_obs = bounds_mod.onsite_floor_prefactors(D, d, tr_o2=2.0)
    reports = []
    table = norm_weights(D, d)
    for l1, l2 in config.sizes:
        if l1 != l2:
            raise ValueError("norm bound reports use square sizes")
        z = exact_partition_function(l1, l1, table).z
        reports.append(bounds_mod.norm_excess_report(l1, D, d, z))
    for dd in (2, 3, 4):
        for dp in (2, 3, 4):
            ratio = bounds_mod.global_variance_ratio(dd, dp)
            reports.append(bounds_mod.BoundReport(
                "global_variance_ratio", {"D": dd, "d": dp}, 1.0, ratio,
                ratio < 1.0, 1.0 / ratio))
    reports.append(bounds_mod.BoundReport(
        "onsite_floor_prefactor", {"D": D, "d": d, "tr_o2": 2.0},
        pre_obs, pre_generic, pre_generic <= pre_obs, pre_obs / pre_generic))

    rows = [("name", "params", "bound", "compared", "satisfied", "slack")]
    ok = True
    for r in reports:
        ok = ok and r.satisfied
        rows.append((r.name, json.dumps(r.params, sort_keys=True), repr(r.bound),
                     repr(r.compared), r.satisfied, repr(r.slack)))
    _emit(Path(config.out), "bounds", config, time.monotonic() - t0, rows=rows,
          payload={"reports": [asdict(r) for r in reports]})
    return EXIT_OK if ok else EXIT_CHECK


# command -> (its function, the options it adds to the common ones or changes in them); the
# function takes the RunConfig and the options it adds as keywords
COMMANDS = {
    "norm-stats": (cmd_norm_stats, {}),
    "var-scan": (cmd_var_scan, {"--loss": {"dest": "loss_kind", "default": GLOBAL_NORMALIZED,
                                           "choices": (GLOBAL_NORMALIZED, LOCAL_NORMALIZED)}}),
    "polyomino": (cmd_polyomino, {"--max-area": {"type": int, "default": 10},
                                  "--sizes": {"default": ((2, 2), (3, 3), (4, 4))}}),
    "bounds": (cmd_bounds, {"--sizes": {"default": ((2, 2), (3, 3), (4, 4))}}),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="tnlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = {
        "--sizes": {"type": _parse_sizes, "default": ((2, 2), (2, 3), (3, 3)),
                    "help": "comma-separated lattice sizes, e.g. 2x2,3x3"},
        "--bond-dim": {"type": int, "default": 2},
        "--phys-dim": {"type": int, "default": 2},
        "--samples": {"type": int, "default": 1000},
        "--seed": {"type": int, "required": True},
        "--out": {"default": "tnlab-out"},
        "--format": {"choices": ("csv", "json", "both"), "default": "both"},
        "--workers": {"type": int, "default": 1,
                      "help": "worker processes for var-scan; the other commands take only 1"},
    }
    for name, (_, options) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag, kwargs in {**common, **options}.items():
            p.add_argument(flag, **{**common.get(flag, {}), **kwargs})
    return parser


def main(argv=None):
    args = vars(build_parser().parse_args(argv))
    config = RunConfig(*(args.pop(f.name) for f in fields(RunConfig)))
    try:
        if config.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {config.seed}")
        if not 1 <= config.workers <= (os.cpu_count() or 1):
            raise ValueError(f"--workers must be between 1 and the CPU count, {os.cpu_count()}")
        if config.workers != 1 and config.command != "var-scan":
            raise ValueError(f"--workers {config.workers}: only var-scan runs in parallel")
        out = Path(config.out).absolute()
        nearest = next(p for p in (out, *out.parents) if p.exists())  # nearest existing path
        if not (nearest.is_dir() and os.access(nearest, os.W_OK | os.X_OK)):
            raise ValueError(f"--out {config.out}: {nearest} is not a writable directory")
        run, _ = COMMANDS[config.command]
        return run(config, **args)  # what is left of args: the command's own options
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
