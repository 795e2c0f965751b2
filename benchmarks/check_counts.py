"""Check the traced counts that the current tnlab algorithms fix exactly.

Run from the repository root:

    python3 benchmarks/check_counts.py

It makes one short traced run of each workload (three traced body items)
and compares its per-item counts with those of the code that
results/baseline.json was measured on. The counts pass through every
namespace that binds a traced function by name (`states` binds
`haar_unitary`, `losses` binds `local_tensor`, `variance` binds
`build_state` and `gradient_map`), so a namespace the wrapping missed shows
as a wrong count, not as a silent 0.

These counts follow the algorithm: ROADMAP items 2 to 4 change some of them
on purpose (see NOTES.md), so they are not a condition of a run's `correct`.
A change that moves one updates the figure here. Exits 1 on any mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import ExactCount, GradScan, NormMC  # noqa: E402

RUN_TIMEOUT_S = 300
# column transfers per gradient_map call, the figures ROADMAP item 2 sets out to cut
TRANSFERS_PER_GRAD = {"local_normalized": 50, "global_normalized": 40}


def expected_counts():
    norm_sites = sum(a * b for a, b in NormMC.sizes) * NormMC.samples
    grad_sites = sum(l1 * l2 * s for _, l1, l2, s in GradScan.scans)
    grad_samples = sum(s for *_, s in GradScan.scans)
    grad = {"tensors.haar_unitary.calls": 2 * grad_sites,
            "states.local_tensor.calls": grad_sites,
            "states.build_state.calls": grad_samples,
            "losses.gradient_map.calls": grad_samples,
            "network.column_transfer.calls": sum(
                s * TRANSFERS_PER_GRAD[kind] for kind, _, _, s in GradScan.scans),
            "network.peak_transfer_dim": 256}
    for kind, per_grad in TRANSFERS_PER_GRAD.items():
        grad[f"losses.transfers_per_grad.{kind}"] = per_grad
    return {
        "norm_mc": {"tensors.haar_unitary.calls": 2 * norm_sites,
                    "tensors.random_hermitian.calls": norm_sites,
                    "states.local_tensor.calls": norm_sites,
                    "states.build_state.calls": len(NormMC.sizes) * NormMC.samples,
                    "network.peak_transfer_dim": 64},
        "grad_scan": grad,
        "exact_count": {"spinmodel.configs_summed": sum(
            2 ** (l1 * l2) for _, l1, l2 in ExactCount.z_cases)},
    }


def main():
    mismatches = 0
    for workload, counts in expected_counts().items():
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
               "--seconds", "0", "--trace", "1"]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"{workload}: traced run not correct:\n{proc.stderr}")
            mismatches += 1
        for name, expected in counts.items():
            value = result["metrics"][name]["value"]
            ok = value == expected
            mismatches += not ok
            print(f"{'ok' if ok else 'MISMATCH':<8} {workload:<12} {name:<46} "
                  f"{value!r:>10} expected {expected!r}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
