"""Two-layer spin model for Haar second moments: weight tables and partition functions.

Upper-layer spin configurations are boolean arrays of shape (l1, l2) with
True = up. A weight table assigns a real factor to each site as a function of
(own spin, right-neighbor spin, down-neighbor spin); the amplitude of a
configuration is the product of these factors over the torus. The partition
function, the sum of amplitudes over all 2**(l1*l2) configurations, is a
bond-2 tensor network that `exact_partition_function` contracts on the
`network` engine; the exhaustive sums are oracles, capped at PARTITION_CAP.

Two tables appear: the "norm" table (physical legs closed with the identity
pairing, i.e. a uniform external field) drives E[<psi|psi>^2]; the "global"
table (no external field) drives the global-loss gradient variance bound.

Spin-to-sign convention for the Boltzmann form: down -> +1, up -> -1. The
couplings enter the per-site energy as H_site = -(J1*s1*(s3+s4) + J2*s1*s2
+ hz*s1)/2: the printed form of the Hamiltonian in our source material
carries a sign typo (no +-1 convention reproduces the tabulated weights),
so the signs here are fixed by demanding consistency with the closed-form
tables, which are themselves verified against Monte-Carlo Haar integration.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import network
from .errors import ResourceLimitError

PARTITION_CAP = 2**25
_ENUM_CHUNK = 2**20


@dataclass(frozen=True)
class IsingCouplings:
    """Couplings of the two-layer model at unitary dimension N = D^2 d.

    j1 couples a bottom spin to the upper spins of its two successor sites,
    j2 couples the two layers on one site, hz is the external field acting on
    the bottom layer. The imaginary part pi of j2 realizes the sign of the
    cross-pairing Weingarten weight.
    """

    D: int
    d: int

    def __post_init__(self):
        if self.D < 2 or self.d < 2:
            raise ValueError("D and d must be >= 2")

    @property
    def N(self):
        return self.D * self.D * self.d

    @property
    def j1(self):
        return complex(np.log(self.D))

    @property
    def j2(self):
        return 1j * np.pi + np.log(self.N)

    @property
    def hz(self):
        return float(np.log(self.d))

    def site_prefactor(self, field):
        """Per-site constant multiplying the bottom-layer Boltzmann sum.

        Derived from the two-fold Weingarten identity: -i N/(N^2-1) when the
        physical leg carries the field, -i D^3/(sqrt(N) (N^2-1)) without it.
        """
        n = self.N
        if field:
            return -1j * n / (n**2 - 1)
        return -1j * self.D**3 / (np.sqrt(n) * (n**2 - 1))


def two_layer_site_weight(couplings, s1, s2, s3, s4, field=True):
    """Boltzmann factor exp(-H_site) for one site, spins given as +-1 (down = +1).

    s1 is the bottom-layer spin, s2 the same-site upper spin, s3/s4 the upper
    spins of the right/down successor sites.
    """
    h = couplings.j1 * s1 * (s3 + s4) + couplings.j2 * s1 * s2
    if field:
        h = h + couplings.hz * s1
    return np.exp(0.5 * h)


KIND_NORM = "norm"
KIND_GLOBAL = "global"

_SIGN = (1, -1)  # index 0 = down, 1 = up


@dataclass(frozen=True)
class WeightTable:
    """Eight per-site weights indexed by (spin, right spin, down spin), 0 = down."""

    D: int
    d: int
    kind: str
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.shape != (2, 2, 2):
            raise ValueError("weight table must have shape (2, 2, 2)")
        if self.kind == KIND_NORM:
            ok = (abs(v[0, 0, 0] - 1.0) < 1e-12
                  and abs(v[1, 0, 0]) < 1e-12
                  and abs(v[0, 0, 1] - v[0, 1, 0]) < 1e-12
                  and abs(v[1, 0, 1] - v[1, 1, 0]) < 1e-12
                  and np.all(v >= -1e-15) and np.all(v <= 1 + 1e-12))
        elif self.kind == KIND_GLOBAL:
            ok = (abs(v[0, 0, 0] - v[1, 1, 1]) < 1e-15
                  and abs(v[0, 0, 1] - v[1, 0, 1]) < 1e-15
                  and abs(v[0, 0, 1] - v[0, 1, 0]) < 1e-15
                  and abs(v[1, 0, 0] - v[0, 1, 1]) < 1e-15
                  and v.max() == v[0, 0, 0])
        else:
            raise ValueError(f"unknown table kind {self.kind!r}")
        if not ok:
            raise ValueError(f"values violate the {self.kind} table symmetries: {v.tolist()}")

    def __call__(self, s, s_right, s_down):
        return float(self.values[s, s_right, s_down])


def norm_weights(D, d):
    """Single-site weights of the norm second moment (field case), closed form."""
    if D < 2 or d < 2:
        raise ValueError("D and d must be >= 2")
    den = D**4 * d**2 - 1
    v = np.zeros((2, 2, 2))
    v[0, 0, 0] = 1.0
    v[0, 0, 1] = v[0, 1, 0] = (D**3 * d**2 - D) / den
    v[0, 1, 1] = (D**2 * d**2 - D**2) / den
    v[1, 0, 0] = 0.0
    v[1, 0, 1] = v[1, 1, 0] = (D**3 * d - D * d) / den
    v[1, 1, 1] = (D**4 * d - d) / den
    return WeightTable(D, d, KIND_NORM, v)


def global_loss_weights(D, d):
    """Single-site weights of the global-loss second moment (no field), closed form."""
    if D < 2 or d < 2:
        raise ValueError("D and d must be >= 2")
    den = (D**2 * d) ** 2 - 1
    v = np.zeros((2, 2, 2))
    v[0, 0, 0] = v[1, 1, 1] = (D**4 - 1.0 / d) / den
    v[0, 0, 1] = v[0, 1, 0] = v[1, 0, 1] = v[1, 1, 0] = (D**3 - D / d) / den
    v[1, 0, 0] = v[0, 1, 1] = (D**2 - D**2 / d) / den
    return WeightTable(D, d, KIND_GLOBAL, v)


def _boltzmann_weights(couplings, field):
    """Site Boltzmann factors exp(-H_site) indexed [s1, s2, s3, s4], 0 = down."""
    s1, s2, s3, s4 = np.ix_(_SIGN, _SIGN, _SIGN, _SIGN)
    return two_layer_site_weight(couplings, s1, s2, s3, s4, field)


def table_from_boltzmann(D, d, kind):
    """Rebuild a weight table by summing the bottom layer of the Boltzmann form.

    Independent of the closed forms; equality of the two is the consistency
    check tying the Hamiltonian picture to the tabulated weights.
    """
    couplings = IsingCouplings(D, d)
    field = kind == KIND_NORM
    w = couplings.site_prefactor(field) * _boltzmann_weights(couplings, field).sum(axis=0)
    if np.abs(w.imag).max() >= 1e-12:
        raise RuntimeError(f"Boltzmann site weights {w.tolist()} are not real")
    return WeightTable(D, d, kind, w.real.copy())


class ConfigClass(Enum):
    GROUND = "ground"
    VALID = "valid"
    ZERO = "zero"


def classify_config(config):
    """Ground (all down), zero (some up spin with both successors down), or valid."""
    c = np.asarray(config, dtype=bool)
    if not c.any():
        return ConfigClass.GROUND
    right = np.roll(c, -1, axis=1)
    down = np.roll(c, -1, axis=0)
    if np.any(c & ~right & ~down):
        return ConfigClass.ZERO
    return ConfigClass.VALID


def _successor_indexing(l1, l2):
    idx = np.arange(l1 * l2)
    x, y = idx // l2, idx % l2
    right = x * l2 + (y + 1) % l2
    down = ((x + 1) % l1) * l2 + y
    return right, down


def _config_bits(n):
    """Bit rows of the codes 0 .. 2**n - 1 in order, in chunks; bit k is column k."""
    total = 1 << n
    if total > PARTITION_CAP:
        raise ResourceLimitError(f"2**{n} configurations exceed cap {PARTITION_CAP}")
    shifts = np.arange(n, dtype=np.uint32)
    for start in range(0, total, _ENUM_CHUNK):
        codes = np.arange(start, min(start + _ENUM_CHUNK, total), dtype=np.uint32)
        yield (codes[:, None] >> shifts) & 1


def all_config_amplitudes(l1, l2, table):
    """Amplitudes of all 2**(l1*l2) upper-layer configurations, indexed by bit pattern.

    Bit k of the configuration index is site (k // l2, k % l2).
    """
    right, down = _successor_indexing(l1, l2)
    flat = table.values.reshape(-1)
    return np.concatenate([np.prod(flat[4 * bits + 2 * bits[:, right] + bits[:, down]], axis=1)
                           for bits in _config_bits(l1 * l2)])


@dataclass(frozen=True)
class PartitionResult:
    l1: int
    l2: int
    D: int
    d: int
    kind: str
    z: float
    ground_value: float
    excited_sum: float


def exact_partition_function(l1, l2, table):
    """Sum of configuration amplitudes over the upper layer, by network contraction.

    Every site carries A[a, b, g, l] = [a = b = s] table(s, l, g): its spin s
    goes out on the up and left legs, and the spins of its right and down
    neighbors come in on l and g. For the norm table the ground configuration
    contributes exactly 1 and the result decomposes as Z = 1 + (sum over
    excited configurations).
    """
    v = table.values
    site = np.zeros((2, 2, 2, 2))
    for s in (0, 1):
        site[s, s] = v[s].T
    columns = network.Layout(l1, l2).columns(np.broadcast_to(site, (l1, l2, *site.shape)))
    z = network.ring_value(network.transfer_matrices(columns)).real
    ground = float(v[0, 0, 0]) ** (l1 * l2)
    return PartitionResult(l1, l2, table.D, table.d, table.kind, z, ground, z - ground)


def exact_partition_function_two_layer(l1, l2, D, d, kind=KIND_NORM):
    """Partition function summed over BOTH spin layers in the Boltzmann form.

    Complex weights are accumulated and the imaginary part of the result must
    vanish; used as a cross-check of the single-layer table path at small sizes.
    """
    n = l1 * l2
    couplings = IsingCouplings(D, d)
    field = kind == KIND_NORM
    w = (couplings.site_prefactor(field) * _boltzmann_weights(couplings, field)).reshape(-1)
    right, down = _successor_indexing(l1, l2)
    z = 0.0 + 0.0j
    for bits in _config_bits(2 * n):
        bottom, upper = bits[:, :n], bits[:, n:]
        key = 8 * bottom + 4 * upper + 2 * upper[:, right] + upper[:, down]
        z += np.sum(np.prod(w[key], axis=1))
    if abs(z.imag) >= 1e-10:
        raise RuntimeError(f"two-layer partition function {z} is not real")
    return float(z.real)


def mc_second_moment(spec, n_samples, rng):
    """Monte-Carlo estimate (mean, standard error) of E[<psi|psi>^2] over random states."""
    from .states import build_state, norm_squared

    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    vals = np.empty(n_samples)
    for i in range(n_samples):
        vals[i] = norm_squared(build_state(spec, rng)) ** 2
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(n_samples))
    return mean, se
