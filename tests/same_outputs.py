"""Byte-identity check: the outputs of fixed tnlab commands at a git revision and here.

Run by hand; pytest collects only test_*.py, so `python -m pytest` skips it:

    python tests/same_outputs.py REV      # REV: any git revision, e.g. HEAD~1

Each command in COMMANDS runs once in a `git archive` of REV and once on the working
tree's src/, in one sequential process each with one BLAS thread. Its exit code and
printed text are kept in a NAME.run file beside its output directory. Every file is
read with its `elapsed_seconds` values and its `out` path masked, and the two trees'
files are compared byte for byte. Prints one line per command and one per difference.
Exits 1 on any difference, and 2 when REV cannot be archived or a command exits with
a code other than 0 or 3 (a failed cross-check is an output too).
"""

import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# output directory -> tnlab arguments; every run writes both formats
COMMANDS = {
    "norm_seed1": ["norm-stats", "--seed", "1"],
    "norm_seed2": ["norm-stats", "--seed", "2"],
    "norm_seed3": ["norm-stats", "--seed", "3"],
    "norm_bond3": ["norm-stats", "--seed", "1", "--bond-dim", "3"],
    "norm_phys3": ["norm-stats", "--seed", "1", "--phys-dim", "3"],
    # 403 samples leave a ragged last chunk at 3x3
    "norm_3x3_ragged": ["norm-stats", "--sizes", "3x3", "--samples", "403", "--seed", "4"],
    "var_global": ["var-scan", "--samples", "200", "--seed", "2"],
    # 256-wide global sweeps: the 4x4 rings of the grad_scan benchmark
    "var_global_4x4": ["var-scan", "--sizes", "4x4", "--samples", "16", "--seed", "2"],
    "var_local": ["var-scan", "--loss", "local_normalized", "--sizes", "4x5",
                  "--samples", "50", "--seed", "3"],
    "polyomino": ["polyomino", "--seed", "4"],
    "bounds": ["bounds", "--seed", "5"],
    # bounds read the norm table: at D = d = 3, and at a d = 10**17 where float products round
    "bounds_dims3": ["bounds", "--seed", "5", "--bond-dim", "3", "--phys-dim", "3"],
    "bounds_phys1e17": ["bounds", "--seed", "5", "--sizes", "2x2,3x3",
                        "--phys-dim", "100000000000000000"],
}

# the two fields that differ between runs of the same command: the wall time and --out
MASKS = ((re.compile(rb'"elapsed_seconds": [^,}\n]*'), b'"elapsed_seconds": "*"'),
         (re.compile(rb'"out": "[^"]*"'), b'"out": "*"'))


def masked(path):
    """The bytes of an output file with its run-dependent fields masked."""
    data = path.read_bytes()
    for pattern, mask in MASKS:
        data = pattern.sub(mask, data)
    return data


def compare(a, b):
    """Differences between the output trees a and b: one line per file that is missing
    from one side or whose masked bytes differ."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    lines = [f"only in {side}: {name}" for side, names in ((a, files_a - files_b),
                                                           (b, files_b - files_a))
             for name in sorted(names)]
    lines += [f"differs: {name}" for name in sorted(files_a & files_b)
              if masked(a / name) != masked(b / name)]
    return lines


def _run(src, out):
    """Run every command on the package in src, writing below out; False when one exits
    with a code other than 0 or 3."""
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    ok = True
    out.mkdir()
    for name, args in COMMANDS.items():
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-m", "tnlab.cli", *args, "--format", "both",
                               "--out", str(out / name)], env=env, capture_output=True, text=True)
        print(f"{src}: {name} exit {done.returncode} in {time.monotonic() - t0:.1f} s", flush=True)
        (out / f"{name}.run").write_text(f"exit {done.returncode}\n{done.stdout}{done.stderr}")
        if done.returncode not in (0, 3):
            print(done.stderr, file=sys.stderr)
            ok = False
    return ok


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rev = tmp / "rev"
        rev.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0], "src"],
                                 capture_output=True)
        if archive.returncode != 0:
            print(archive.stderr.decode(), file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(rev)], input=archive.stdout, check=True)
        ran = [_run(rev / "src", tmp / "out_rev"), _run(ROOT / "src", tmp / "out_here")]
        if not all(ran):
            return 2
        lines = compare(tmp / "out_rev", tmp / "out_here")
    for line in lines:
        print(line)
    print(f"{len(lines)} differences between {argv[0]} and the working tree")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
