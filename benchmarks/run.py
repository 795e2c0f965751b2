"""Run one tnlab benchmark workload and print its metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload grad_scan --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py. The run repeats the workload's fixed
body item in this process for --seconds. With --trace 0 it also times 15
set-ups, each in a fresh process, spread evenly over the run, and reports the
end-to-end metrics listed in BENCHMARK.json: the median body item time
`run_s`, the median set-up time `setup_s` and this process's peak resident
memory `peak_rss_mb`. With
--trace 1 it alternates untraced and traced body items and reports the
per-layer metrics: calls and self time per traced function, computed counts
and the tracing overhead, all per body item.

Every output is checked against its oracle. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
failed / attempted is the run's failure ratio. The line before it starts with
"meta " and records the machine.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 15
SETUP_TIMEOUT_S = 60
MIN_ITEMS = 3
# float rounding allowed when self times are checked against span and wall times
ACCOUNTING_TOL_S = 1e-6


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up only, timing from the parent's clock reading before it started us
    p.add_argument("--setup-only", type=float, metavar="T0", help=argparse.SUPPRESS)
    return p.parse_args()


def set_up(args, workdir):
    """Import tnlab from this checkout, build the workload's inputs and run its warm-up item."""
    src = ROOT / "src"
    if not (src / "tnlab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no tnlab package under {src}")
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    tally = Tally()
    workload = WORKLOADS[args.workload](args.seed, workdir, tally)
    workload.warm_up()
    return workload, tally


def time_setup_process(args):
    """(set-up seconds, warm-up failed) of one fresh process, from its start to warm-up done."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only", repr(t0)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: set-up process exited {proc.returncode}")
    child = json.loads(proc.stdout.splitlines()[-1])
    return child["setup_s"], child["failed"] > 0


def run_items(workload, seconds, tracer=None, after_item=None):
    """Repeat the body for `seconds`; with a tracer, every other item is traced.

    `after_item(rep)`, if given, runs untimed after each item.

    Returns the untraced and traced item durations, and per step label the
    traced calls made during that step.
    """
    durations = {False: [], True: []}
    step_calls = defaultdict(lambda: defaultdict(int))
    min_items = MIN_ITEMS * (2 if tracer else 1)
    start = time.monotonic()
    rep = 0
    while rep < min_items or time.monotonic() - start < seconds:
        traced = tracer is not None and rep % 2 == 1
        steps = workload.steps(rep)
        results = []
        with tracer if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            for label, step in steps:
                before = tracer.snapshot() if traced else None
                results.append(step())
                if traced:
                    for name, calls in tracer.calls.items():
                        step_calls[label][name] += calls - before[name]
            durations[traced].append(time.perf_counter() - t0)
        workload.check(rep, results)
        if after_item is not None:
            after_item(rep)
        rep += 1
    return durations, step_calls


def per_layer_metrics(tracer, durations, step_calls, tally):
    n = len(durations[True])
    m = {}
    for name in tracer.calls:
        m[f"{name}.calls"] = tracer.calls[name] / n
        m[f"{name}.self_s"] = tracer.self_s[name] / n
    counts = dict(tracer.counts)
    nonzero = counts.pop("spinmodel.configs_nonzero", 0)
    for name, count in counts.items():
        m[name] = count / n
    m["network.peak_transfer_dim"] = tracer.peak_transfer_dim
    configs = counts.get("spinmodel.configs_summed")
    m["spinmodel.nonzero_fraction"] = nonzero / configs if configs else 0.0
    grads = transfers = 0
    for label, calls in step_calls.items():
        if calls["losses.gradient_map"]:
            grads += calls["losses.gradient_map"]
            transfers += calls["network.column_transfer"]
            m[f"losses.transfers_per_grad.{label}"] = (
                calls["network.column_transfer"] / calls["losses.gradient_map"])
    m["losses.transfers_per_grad"] = transfers / grads if grads else 0.0
    m["cli.stat_misses"] = tally.stat_misses / (n + len(durations[False]))
    traced_wall = sum(durations[True])
    m["trace.hook_s"] = tracer.hook_s / n
    m["trace.unwrapped_s"] = (traced_wall - tracer.self_time_total() - tracer.hook_s) / n
    # adjacent items share the machine's conditions, so compare them in pairs
    m["trace.overhead_ratio"] = statistics.median(
        t / u for u, t in zip(durations[False], durations[True])) - 1.0
    in_spans = tracer.self_time_total() + tracer.hook_s
    accounted = (min(tracer.self_s.values()) >= 0.0
                 and abs(in_spans - tracer.root_s) <= ACCOUNTING_TOL_S
                 and tracer.root_s <= traced_wall + ACCOUNTING_TOL_S)
    tally.record(accounted, f"self times plus hook time {in_spans!r} vs root spans "
                            f"{tracer.root_s!r} and traced wall {traced_wall!r}")
    return m


def openblas_threads():
    import numpy as np

    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                return getattr(lib, fn)()
    return None


def machine_info():
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": openblas_threads()}


def report(metric_list, values, tally, info):
    unknown = set(values) - {spec["name"] for spec in metric_list}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for spec in metric_list:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:<52} {value!r:>24} {spec['unit']}")
    for problem in tally.problems[:10]:
        print(f"benchmark: failed: {problem}", file=sys.stderr)
    print("meta " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def main():
    args = parse_args()
    # single-threaded BLAS, inherited by the set-up processes: steadier on a shared
    # machine, and the plain single-threaded baseline of the same problem
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    workdir = HERE / ".work" / str(os.getpid())
    try:
        if args.setup_only is not None:
            _, tally = set_up(args, workdir)
            print(json.dumps({"setup_s": time.monotonic() - args.setup_only,
                              "failed": tally.failed}))
            return 0
        with open(ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        if args.trace:
            from spans import Tracer

            workload, tally = set_up(args, workdir)
            tracer = Tracer()
            durations, step_calls = run_items(workload, args.seconds, tracer)
            # a layer the workload does not reach reads 0
            values = {spec["name"]: 0 for spec in bench["per_layer"]}
            values.update(per_layer_metrics(tracer, durations, step_calls, tally))
            for key, expected in workload.fixed_counts().items():
                tally.record(values.get(key) == expected,
                             f"traced {key} = {values.get(key)!r}, expected {expected!r}")
        else:
            workload, tally = set_up(args, workdir)
            setups = []
            start = time.monotonic()

            def set_up_again(rep):
                # evenly over the run, so set-up meets the same machine conditions as the items
                due = SETUP_PROCESSES * (time.monotonic() - start) / max(args.seconds, 1e-9)
                while len(setups) < min(due, SETUP_PROCESSES):
                    setups.append(time_setup_process(args))

            durations, _ = run_items(workload, args.seconds, after_item=set_up_again)
            while len(setups) < SETUP_PROCESSES:
                setups.append(time_setup_process(args))
            for _, failed in setups:
                tally.record(not failed, "warm-up failed in a set-up process")
            values = {"run_s": statistics.median(durations[False]),
                      "setup_s": statistics.median(t for t, _ in setups),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "items": len(durations[False]) + len(durations[True]),
                "stat_misses": tally.stat_misses, **machine_info()}
        report(bench["per_layer" if args.trace else "end_to_end"], values, tally, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
