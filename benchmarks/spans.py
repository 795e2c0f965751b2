"""Span tracing of tnlab's public functions, installed from outside the package.

Each traced function is replaced by a wrapper in every tnlab namespace that
binds it: the defining module, the package `__init__`, and each module that
imported it by name (for example `states` binds `tensors.haar_unitary` and
`cli` binds `variance.variance_scan`). Patching only the defining module
would miss those calls.

Spans nest: a wrapper's duration is added to its parent's child time, and a
function's self time is its duration minus that child time, so nested calls
(`mc_second_moment` -> `build_state` -> `haar_unitary`) are not counted
twice. Time outside every span is the caller's, here the benchmark harness.

Some wrappers also record counts. The flop and byte counts are computed from
operand shapes, not measured: a complex multiply-add is 8 real flops, and
bytes are the operands read plus the result written by each pairwise
contraction, plus the read and write of each transposed copy. Leading axes
in front of a site tensor's four legs or a transfer matrix's two are taken
as a batch. A count hook runs inside its span but is timed apart as
`hook_s`: its time is in no function's self time, so the self times, the
hook time and the time outside every span add up to the traced wall time.
"""

import functools
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "tnlab"
COMPLEX_MAC_FLOPS = 8


def _column_transfer_counts(tracer, args, result):
    """Mirror the contraction sequence of `network.column_transfer` on shapes."""
    tensors = args[0]
    item = tensors[0].itemsize
    *batch, na, n_b, ng, n_l = tensors[0].shape
    flops = nbytes = 0
    for t in tensors[1:-1]:
        _, nb, nh, nl = t.shape[-4:]
        out = na * n_b * n_l * nb * nh * nl
        flops += COMPLEX_MAC_FLOPS * out * ng
        nbytes += item * (na * n_b * ng * n_l + math.prod(t.shape[-4:]) + 3 * out)
        n_b, ng, n_l = n_b * nb, nh, n_l * nl
    t = tensors[-1]
    _, nb, _, nl = t.shape[-4:]
    out = n_b * n_l * nb * nl
    flops += COMPLEX_MAC_FLOPS * out * na * ng
    nbytes += item * (na * n_b * ng * n_l + math.prod(t.shape[-4:]) + 3 * out)
    tracer.counts["network.column_transfer.flops"] += math.prod(batch) * flops
    tracer.counts["network.column_transfer.bytes"] += math.prod(batch) * nbytes
    tracer.peak_transfer_dim = max(tracer.peak_transfer_dim, *result.shape[-2:])


def _ring_environments_counts(tracer, args, result):
    # prefix, suffix and environment products: 3 matmuls of n x n per column
    columns = args[0]
    *batch, n = columns[0].shape[:-1]
    tracer.counts["network.ring_environments.flops"] += (
        math.prod(batch) * 3 * len(columns) * COMPLEX_MAC_FLOPS * n ** 3)


def _variance_scan_counts(tracer, args, result):
    tracer.counts["variance.samples"] += result.n_samples
    tracer.counts["variance.failures"] += result.n_failures


def _config_counts(tracer, args, result):
    tracer.counts["spinmodel.configs_summed"] += result.size
    tracer.counts["spinmodel.configs_nonzero"] += int(np.count_nonzero(result))


def _polyomino_counts(tracer, args, result):
    tracer.counts["polyomino.polyominoes_generated"] += sum(result.counts.values())


# module -> {function: count hook or None}; the layers are the package modules
TARGETS = {
    "tensors": {"haar_unitary": None, "random_hermitian": None},
    "states": {"build_state": None, "local_tensor": None,
               "local_derivative_tensor": None, "norm_squared": None},
    "network": {"site_double_tensor": None, "site_single_tensor": None,
                "column_transfer": _column_transfer_counts,
                "ring_environments": _ring_environments_counts,
                "ring_value": None, "replace_value": None},
    "losses": {"gradient_map": None},
    "variance": {"variance_scan": _variance_scan_counts},
    "spinmodel": {"exact_partition_function": None,
                  "all_config_amplitudes": _config_counts,
                  "mc_second_moment": None},
    "polyomino": {"enumerate_directed": _polyomino_counts, "stats": None,
                  "series_coefficients": None, "verify_decomposition": None},
    "cli": {"main": None},
}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


class Tracer:
    """Calls and self time per traced function, plus shape-derived counts.

    Use as a context manager: entering patches every tnlab namespace,
    leaving restores the original functions.
    """

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts = defaultdict(int)
        self.peak_transfer_dim = 0
        self.root_s = 0.0  # summed duration of spans with no traced parent
        self.hook_s = 0.0  # time spent in count hooks, inside spans but in no self time
        self._open = []  # child time accumulated by each open span
        self._patches = []

    def _wrap(self, name, fn, hook):
        calls, self_s, open_spans = self.calls, self.self_s, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            hook_s = 0.0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook_start = perf_counter()
                    hook(self, args, result)
                    hook_s = perf_counter() - hook_start
                    self.hook_s += hook_s
            finally:
                duration = perf_counter() - start
                self_s[name] += duration - open_spans.pop() - hook_s
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += duration
                else:
                    self.root_s += duration
            return result
        return wrapper

    def __enter__(self):
        namespaces = [m for key, m in list(sys.modules.items())
                      if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod, fns in TARGETS.items():
            defining = sys.modules[f"{PACKAGE}.{mod}"]
            for fn_name, hook in fns.items():
                original = getattr(defining, fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", original, hook)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patches.append((ns, attr, original))
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()
        return False

    def snapshot(self):
        """Copy of the call counts, for attributing calls to one step of a body."""
        return dict(self.calls)

    def self_time_total(self):
        return sum(self.self_s.values())
