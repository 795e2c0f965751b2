"""Write the benchmark's stored output oracles to benchmarks/data/.

Run from the repository root:

    python3 benchmarks/make_refs.py

It stores two random states in the `save_state` format and, for each, the
reference `gradient_map` of the loss kind the grad_scan workload uses at that
size. Each reference gradient is cross-checked against central finite
differences of the dense loss before it is written. It also stores exact
partition functions, each cross-checked against an independent row transfer
matrix Z = tr(T^l1). The references do not depend on the program's random
stream after they are written, so a change to sampling leaves them valid.
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tnlab import spinmodel  # noqa: E402
from tnlab.lattice import LatticeSpec  # noqa: E402
from tnlab.losses import gradient_map, loss_value  # noqa: E402
from tnlab.states import TNState, build_state, save_state  # noqa: E402
from workloads import DATA, Z_REL_TOL, ExactCount, GradScan, NormMC, workload_loss  # noqa: E402

FD_STEP = 1e-5
FD_REL_TOL = 1e-6
STATE_SEED = 20230417


def with_theta(state, x, y, theta):
    rows = [list(row) for row in state.sites]
    rows[x][y] = rows[x][y].with_theta(theta)
    return TNState(state.spec, tuple(tuple(row) for row in rows))


def finite_difference_map(state, loss):
    spec = state.spec
    out = np.zeros((spec.l1, spec.l2))
    for x, y in spec.sites():
        theta = state.site(x, y).theta
        up = loss_value(with_theta(state, x, y, theta + FD_STEP), loss)
        down = loss_value(with_theta(state, x, y, theta - FD_STEP), loss)
        out[x, y] = (up - down) / (2.0 * FD_STEP)
    return out


def z_row_transfer(l1, l2, table):
    """Z = tr(T^l1) with T[r, r'] the product of site weights of row r above row r'."""
    rows = list(itertools.product((0, 1), repeat=l2))
    t = np.array([[np.prod([table.values[r[y], r[(y + 1) % l2], nxt[y]] for y in range(l2)])
                   for nxt in rows] for r in rows])
    return float(np.trace(np.linalg.matrix_power(t, l1)))


def main():
    DATA.mkdir(exist_ok=True)
    refs = {"made_by": "python3 benchmarks/make_refs.py", "gradients": {},
            "partition_functions": {}}
    for i, (kind, l1, l2, _, _) in enumerate(GradScan.scans):
        seed = STATE_SEED + i
        spec = LatticeSpec(l1, l2, 2, 2)
        state = build_state(spec, np.random.default_rng(seed))
        loss = workload_loss(kind, spec)
        grad = gradient_map(state, loss)
        fd = finite_difference_map(state, loss)
        dev = float(np.abs(grad - fd).max() / np.abs(grad).max())
        if dev > FD_REL_TOL:
            raise SystemExit(f"{kind} {l1}x{l2}: gradient vs finite differences {dev:.2e}")
        name = f"state_{l1}x{l2}.bin"
        save_state(state, DATA / name, seed=seed)
        refs["gradients"][kind] = {"state": name, "gradient": grad.tolist(),
                                   "finite_difference_rel_dev": dev}
        print(f"{kind} {l1}x{l2}: finite-difference rel dev {dev:.2e}")
    z_cases = [("norm", l1, l2) for l1, l2 in NormMC.sizes] + list(ExactCount.z_cases)
    for kind, l1, l2 in z_cases:
        table = ExactCount.tables[kind]
        z = spinmodel.exact_partition_function(l1, l2, table).z
        z_tm = z_row_transfer(l1, l2, table)
        dev = abs(z - z_tm) / abs(z_tm)
        if dev > Z_REL_TOL:
            raise SystemExit(f"Z {kind} {l1}x{l2}: enumeration vs transfer matrix {dev:.2e}")
        refs["partition_functions"].setdefault(kind, {})[f"{l1}x{l2}"] = z
        print(f"Z {kind} {l1}x{l2} = {z!r} (transfer-matrix rel dev {dev:.1e})")
    with open(DATA / "refs.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
