"""Two-layer spin model for Haar second moments: weight tables and partition functions.

Upper-layer spin configurations are boolean arrays of shape (l1, l2) with True = up.
A weight table is a real, finite (2, 2, 2) array t[s, r, g]: the factor of a site with
own spin s, right-neighbor spin r and down-neighbor spin g, 0 = down. The amplitude of
a configuration is the product of these factors over the torus. The partition function,
the sum of amplitudes over all 2**(l1*l2) configurations, is a bond-2 tensor network
that `exact_partition_function` contracts on the `network` engine; the exhaustive sum
`all_config_amplitudes` (np.roll neighbours) is an oracle, capped at PARTITION_CAP.

Two tables appear, for integer D, d >= 2, each the exact Weingarten sum `_s2_table` over
`tensors.weingarten_s2` with a closure of the physical legs: "norm" (identity pairing, a
uniform field) drives E[<psi|psi>^2], "global" (product target, no field) the global-loss bound.

`mc_second_moment` estimates E[<psi|psi>^2] a chunk of states at a time: it
draws each chunk from its one generator in stream order, then builds and
contracts the chunk at once, as many states as _CHUNK_BYTES holds at what
`states.sample_bytes` charges them, which covers their traced peak: 19, 12 and 4
states at 2x2, 2x3 and 3x3 for D = d = 2.
"""

import itertools
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import network
from .errors import ResourceLimitError
from .states import norm_squared, sample_bytes
from .tensors import weingarten_s2
from .variance import sample_values

PARTITION_CAP = 2**25
_ENUM_CHUNK = 2**20
# bytes that one chunk of Monte-Carlo states may be charged by `states.sample_bytes`: the
# least multiple of 256 KiB that holds 4 states at 3x3 (D = d = 2), where fewer states pay
# more fixed cost per call; it holds 19 at 2x2 and 12 at 2x3
_CHUNK_BYTES = 5 * 2**18


def _dims(D, d):
    """D and d as Python ints; ValueError unless both are integers >= 2 (bool excluded)."""
    if any(isinstance(v, bool) or not isinstance(v, Integral) or v < 2 for v in (D, d)):
        raise ValueError(f"D and d must be >= 2 (integers, not bool), got {D!r} and {d!r}")
    return int(D), int(d)


def _s2_table(D, d, closure):
    """t[tau, r, g] = sum_sigma Wg(sigma, tau) closure[sigma] D^c(sigma^-1 r) D^c(sigma^-1 g).

    The Weingarten sum over S2 = {e, swap} (spin 0 = e, c counts cycles) with the matrix of
    `tensors.weingarten_s2` at n = D^2 d, in Python integers: one correctly rounded division.
    """
    w, den = weingarten_s2(D * D * d)
    bond = np.array([[D * D, D], [D, D * D]], dtype=object)
    t = np.einsum("st,s,sr,sg->trg", w, np.array(closure, dtype=object), bond, bond)
    return (t / den).astype(float)


def norm_weights(D, d):
    """Single-site weights of the norm second moment: the physical legs close as d^c(sigma)."""
    D, d = _dims(D, d)
    return _s2_table(D, d, (d * d, d))


def global_loss_weights(D, d):
    """Single-site weights of the global-loss second moment: a product target closes both."""
    return _s2_table(*_dims(D, d), (1, 1))


def _checked(table):
    """table as an array, if it is a real, finite weight table of shape (2, 2, 2)."""
    t = np.asarray(table)
    if t.shape != (2, 2, 2):
        raise ValueError("weight table must have shape (2, 2, 2)")
    if t.dtype.kind not in "biuf" or not np.isfinite(t).all():
        raise ValueError(f"weight table must be real and finite, got {t.ravel()}")
    return t


def _config_grids(l1, l2):
    """Spin grids (chunk, l1, l2) of the codes 0 .. 2**(l1*l2) - 1 in order, in chunks."""
    n = l1 * l2
    total = 1 << n
    if total > PARTITION_CAP:
        raise ResourceLimitError(f"2**{n} configurations exceed cap {PARTITION_CAP}")
    shifts = np.arange(n, dtype=np.uint32)
    for start in range(0, total, _ENUM_CHUNK):
        codes = np.arange(start, min(start + _ENUM_CHUNK, total), dtype=np.uint32)
        yield ((codes[:, None] >> shifts) & 1).reshape(-1, l1, l2)


def all_config_amplitudes(l1, l2, table):
    """Amplitudes of all 2**(l1*l2) upper-layer configurations, indexed by bit pattern.

    Bit k of the configuration index is site (k // l2, k % l2); np.roll reads neighbours.
    """
    t = _checked(table)
    return np.concatenate([t[g, np.roll(g, -1, 2), np.roll(g, -1, 1)].reshape(len(g), -1).prod(1)
                           for g in _config_grids(l1, l2)])


@dataclass(frozen=True)
class PartitionResult:
    z: float
    ground_value: float
    excited_sum: float


def exact_partition_function(l1, l2, table):
    """Sum of configuration amplitudes over the upper layer, by network contraction.

    Every site carries A[a, b, g, l] = [a = b = s] table[s, l, g]: its spin s
    goes out on the up and left legs, and the spins of its right and down
    neighbors come in on l and g. For the norm table the ground configuration
    contributes exactly 1 and the result decomposes as Z = 1 + (sum over
    excited configurations).
    """
    v = _checked(table)
    site = np.einsum("ab,alg->abgl", np.eye(2), v)
    shape = (l1, l2, *site.shape)
    network.check_contract(shape, site.itemsize)  # before the grid, which numpy may refuse
    z = network.contract(np.broadcast_to(site, shape)).real
    ground = float(v[0, 0, 0]) ** (l1 * l2)
    return PartitionResult(z, ground, z - ground)


def _chunk_size(spec):
    """States per Monte-Carlo chunk: as many as _CHUNK_BYTES holds, at least one, and no
    more than network.NETWORK_BUDGET holds. ResourceLimitError when one state does not
    fit the budget."""
    budget = min(_CHUNK_BYTES, network.NETWORK_BUDGET)
    fixed = sample_bytes(spec, 0)  # what a chunk is charged whatever its size
    return max(1, (budget - fixed) // (sample_bytes(spec) - fixed))


def mc_second_moment(spec, n_samples, rng):
    """Monte-Carlo estimate (mean, standard error) of E[<psi|psi>^2] over random states.

    Every sample draws from rng in turn: one sequential stream, so the run is serial.
    The states are drawn and contracted a chunk at a time, which gives the same values
    as one at a time.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    vals, _ = sample_values(spec, lambda states: norm_squared(states) ** 2,
                            itertools.repeat(rng, n_samples), _chunk_size(spec))
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    return mean, se
