"""Unitarily embedded random tensor-network states on the torus.

Each site (x, y) carries a D^2 d x D^2 d unitary U = u_minus exp(-i theta G)
u_plus acting on (up bond, left bond, physical-in); the site tensor
A[a, b, g, l, j] = <g l j| U |a b 0> feeds legs g/l to the down/right
neighbors. theta is the site's single variational parameter and G its
Hermitian generator. A `TNState` holds these four factors of every site with
leading (l1, l2) axes; `local_tensor` builds every site tensor at once.

`build_states` draws a chunk of states and holds them in one `TNState` with a
leading sample axis in front of (l1, l2); `local_tensor` and `norm_squared`
then work on every sample at once, and `states[i]` is sample i alone.
`build_state` is the chunk of one.
"""

import dataclasses
import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import network
from .errors import ResourceLimitError, gib
from .lattice import LatticeSpec
from .tensors import haar_unitary, is_hermitian, is_unitary, random_hermitian

STATE_FORMAT = "tnlab-state-v1"
# bytes that a state file's header line, its newline included, may take
_HEADER_BYTES = 4096


def _expm_herm(scale, h):
    """exp(1j * scale * h) for Hermitian h via eigendecomposition, batched over leading axes."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * scale[..., None] * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class TNState:
    """A random state: u_minus, u_plus, generator (l1, l2, N, N) and theta (l1, l2).

    A chunk of states has one more leading axis on each array, the sample axis.
    """

    spec: LatticeSpec
    u_minus: np.ndarray
    u_plus: np.ndarray
    generator: np.ndarray
    theta: np.ndarray

    @cached_property
    def exponential(self):
        """exp(-i theta G), from one batched eigh that U and dU/dtheta share."""
        return _expm_herm(-np.asarray(self.theta), self.generator)

    def __getitem__(self, i):
        """Sample i of a chunk of states: the state without its sample axis."""
        return TNState(self.spec, self.u_minus[i], self.u_plus[i], self.generator[i],
                       self.theta[i])

    def with_theta(self, x, y, theta):
        """This state with site (x, y)'s parameter set to theta."""
        thetas = np.array(self.theta, dtype=float)
        thetas[x, y] = theta
        return dataclasses.replace(self, theta=thetas)


# bytes per entry of a site's N x N unitary that drawing a state takes at its peak, in the
# Haar QR: the (6, N, N) float64 draws, the complex Ginibre matrices, the QR's copy and
# factors and the phase-fixed unitaries, 11.4-14.2 complex128 entries' worth by tracemalloc
_DRAW_BYTES = 15 * 16
# bytes per such entry that a built state holds while its norm is contracted: its three
# factors, the cached exponential and the site tensors, at most 4.5 complex128 entries' worth
_HELD_BYTES = 5 * 16


def check_state_budget(spec, n_samples=1):
    """ResourceLimitError if drawing n_samples states of spec would exceed
    network.NETWORK_BUDGET at its peak; else the bytes it takes."""
    n = spec.unitary_dim
    need = n_samples * spec.n_sites * n * n * _DRAW_BYTES
    if need > network.NETWORK_BUDGET:
        states = "" if n_samples == 1 else f"{n_samples} states of "
        raise ResourceLimitError(
            f"{states}{spec.n_sites} sites of {n} x {n} unitaries need about {gib(need)} GiB, "
            f"above the network budget of {gib(network.NETWORK_BUDGET)} GiB")
    return need


def sample_bytes(spec, n_samples=1):
    """Bytes that a chunk of n_samples states of spec is charged to draw and then to contract
    to its norms: the buffers of one ring call (network.BUFFER_BYTES), and per state the
    larger of its draws (`check_state_budget`) and its norm ring (`network.check_bra_ket`)
    beside what the built state holds. Raises as those checks do, before anything is drawn,
    when one state does not fit the network budget."""
    D, d, n = spec.D, spec.d, spec.unitary_dim
    draws = check_state_budget(spec)
    ring = network.check_bra_ket((spec.l1, spec.l2, D, D, D, D, d)) - network.BUFFER_BYTES
    held = spec.n_sites * n * n * _HELD_BYTES
    return network.BUFFER_BYTES + n_samples * max(draws, held + ring)


def build_states(spec, rngs):
    """A chunk of states, sample i drawn from rngs[i], with a leading sample axis.

    rngs is a sequence of generators and may name one generator many times.
    Sample after sample, and site by site in row-major order, the stream gives
    the real and imaginary Ginibre parts of u_minus, u_plus and the generator,
    then theta: independent Haar u_minus/u_plus, a Gaussian Hermitian generator
    and a uniform theta per site. Only then do the transforms run, once over
    every sample and site. Checks `check_state_budget` for the chunk first.
    """
    n_samples = len(rngs)
    check_state_budget(spec, n_samples)
    n = spec.unitary_dim
    raw = np.empty((n_samples, spec.l1, spec.l2, 6, n, n))
    theta = np.empty((n_samples, spec.l1, spec.l2))
    # row-major site views; a uniform on [0, 2 pi) is 2 pi times rng.random(), bit for bit
    for rng, draws, thetas in zip(rngs, raw.reshape(n_samples, -1, 6, n, n),
                                  theta.reshape(n_samples, -1)):
        for s, site in enumerate(draws):
            rng.standard_normal(out=site)
            thetas[s] = rng.random()
    theta *= 2.0 * np.pi
    u = haar_unitary(raw[..., 0:4:2, :, :], raw[..., 1:4:2, :, :])
    generator = random_hermitian(raw[..., 4, :, :], raw[..., 5, :, :])
    return TNState(spec, u[..., 0, :, :], u[..., 1, :, :], generator, theta)


def build_state(spec, rng):
    """One state drawn from rng: the chunk of one of `build_states`, without its sample axis."""
    return build_states(spec, [rng])[0]


def _tensor_from_unitary(u, D, d):
    # A[..., a, b, g, l, j] = U[..., (g, l, j), (a, b, 0)]
    u6 = u.reshape(*u.shape[:-2], D, D, d, D, D, d)[..., 0]
    k = u6.ndim - 5
    return np.ascontiguousarray(u6.transpose(*range(k), k + 3, k + 4, k, k + 1, k + 2))


def local_tensor(state):
    """Site tensors A[x, y, a, b, g, l, j]: the embedded unitaries applied to |0> on the
    physical input; a chunk's sample axis leads."""
    u = state.u_minus @ state.exponential @ state.u_plus
    return _tensor_from_unitary(u, state.spec.D, state.spec.d)


def local_derivative_tensor(state):
    """d/d theta of the site tensors: -iG inserted next to the exponential."""
    du = state.u_minus @ ((-1j * state.generator) @ state.exponential) @ state.u_plus
    return _tensor_from_unitary(du, state.spec.D, state.spec.d)


def norm_squared(state):
    """<psi|psi> by bra-ket network contraction (no statevector materialized); for a chunk
    of states, an array of one norm per sample."""
    return network.bra_ket(local_tensor(state))


def _record_dtype(n):
    """One site's record in a state file: three (n, n) complex128 factors, then theta."""
    return np.dtype([("u_minus", "<c16", (n, n)), ("u_plus", "<c16", (n, n)),
                     ("generator", "<c16", (n, n)), ("theta", "<f8")])


def save_state(state, path, seed=None):
    """Versioned hybrid format: one JSON header line, then raw little-endian arrays.

    Per site, in row-major order: u_minus, u_plus, generator as complex128 and
    theta as float64.
    """
    spec = state.spec
    header = {"format": STATE_FORMAT, "l1": spec.l1, "l2": spec.l2,
              "D": spec.D, "d": spec.d, "seed": seed}
    records = np.empty((spec.l1, spec.l2), dtype=_record_dtype(spec.unitary_dim))
    for name in records.dtype.names:
        records[name] = getattr(state, name)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(records.tobytes())


def load_state(path):
    """Read a state written by save_state.

    Raises ResourceLimitError, before the body is read, when the body that the
    header implies exceeds network.NETWORK_BUDGET bytes, and ValueError unless
    the header line ends within its first _HEADER_BYTES bytes, the body has
    exactly that length, every u_minus and u_plus is unitary, every generator
    Hermitian and every theta finite; the message names the first bad site.
    """
    with open(path, "rb") as fh:
        line = fh.readline(_HEADER_BYTES)
        if not line.endswith(b"\n"):
            raise ValueError(f"no header line within the first {_HEADER_BYTES} bytes")
        header = json.loads(line.decode())
        if not isinstance(header, dict) or header.get("format") != STATE_FORMAT:
            raise ValueError(f"expected a {STATE_FORMAT} header, got {header!r:.80}")
        try:
            spec = LatticeSpec(header["l1"], header["l2"], header["D"], header["d"])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad state header {header!r}: {exc!r}") from None
        n = spec.unitary_dim
        expected = spec.n_sites * (3 * n * n * 16 + 8)  # the size of _record_dtype(n) per site
        if expected > network.NETWORK_BUDGET:
            raise ResourceLimitError(f"the header implies a {gib(expected)} GiB body, above "
                                     f"the network budget of {gib(network.NETWORK_BUDGET)} GiB")
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if body != expected:
            raise ValueError(f"state body has {body} bytes; its header implies {expected}")
        records = np.frombuffer(fh.read(), dtype=_record_dtype(n)).reshape(spec.l1, spec.l2)
    u_minus, u_plus, generator = (np.array(records[name], dtype=complex)
                                  for name in ("u_minus", "u_plus", "generator"))
    theta = np.array(records["theta"], dtype=float)
    checks = [(~(is_unitary(u_minus) & is_unitary(u_plus)), "u_minus or u_plus is not unitary"),
              (~is_hermitian(generator), "generator is not Hermitian"),
              (~np.isfinite(theta), "theta = {} is not finite")]
    bad = np.logical_or.reduce([failed for failed, _ in checks])
    if bad.any():
        x, y = (int(i) for i in np.argwhere(bad)[0])
        message = next(text for failed, text in checks if failed[x, y])
        raise ValueError(f"site ({x}, {y}): " + message.format(theta[x, y]))
    return TNState(spec, u_minus, u_plus, generator, theta)
