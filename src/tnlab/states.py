"""Unitarily embedded random tensor-network states on the torus.

Each site (x, y) carries a D^2 d x D^2 d unitary U = u_minus exp(-i theta G)
u_plus acting on (up bond, left bond, physical-in); the site tensor
A[a, b, g, l, j] = <g l j| U |a b 0> feeds legs g/l to the down/right
neighbors. theta is the site's single variational parameter and G its
Hermitian generator. A `TNState` holds these four factors of every site with
leading (l1, l2) axes; `local_tensor` builds every site tensor at once.
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


def _expm_herm(scale, h):
    """exp(1j * scale * h) for Hermitian h via eigendecomposition, batched over leading axes."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * scale[..., None] * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class TNState:
    """A random state: u_minus, u_plus, generator (l1, l2, N, N) and theta (l1, l2)."""

    spec: LatticeSpec
    u_minus: np.ndarray
    u_plus: np.ndarray
    generator: np.ndarray
    theta: np.ndarray

    @cached_property
    def exponential(self):
        """exp(-i theta G), from one batched eigh that U and dU/dtheta share."""
        return _expm_herm(-np.asarray(self.theta), self.generator)

    def with_theta(self, x, y, theta):
        """This state with site (x, y)'s parameter set to theta."""
        thetas = np.array(self.theta, dtype=float)
        thetas[x, y] = theta
        return dataclasses.replace(self, theta=thetas)


def check_state_budget(spec):
    """ResourceLimitError if a state of spec, with its draws, exceeds network.NETWORK_BUDGET."""
    n = spec.unitary_dim
    # a (6, N, N) float64 block of draws and three (N, N) complex128 factors per site
    need = spec.n_sites * n * n * (6 * 8 + 3 * 16)
    if need > network.NETWORK_BUDGET:
        raise ResourceLimitError(
            f"{spec.n_sites} sites of {n} x {n} unitaries need about {gib(need)} GiB, "
            f"above the network budget of {gib(network.NETWORK_BUDGET)} GiB")


def build_state(spec, rng):
    """Independent Haar u_minus/u_plus, Gaussian Hermitian generator, uniform theta per site.

    Site by site in row-major order the stream gives the real and imaginary
    Ginibre parts of u_minus, u_plus and the generator, then theta; the
    transforms then run once over every site. Checks `check_state_budget` first.
    """
    check_state_budget(spec)
    n = spec.unitary_dim
    raw = np.empty((spec.l1, spec.l2, 6, n, n))
    theta = np.empty((spec.l1, spec.l2))
    for x, y in spec.sites():
        rng.standard_normal(out=raw[x, y])
        theta[x, y] = rng.uniform(0.0, 2.0 * np.pi)
    u = haar_unitary(raw[:, :, 0:4:2], raw[:, :, 1:4:2])
    generator = random_hermitian(raw[:, :, 4], raw[:, :, 5])
    return TNState(spec, u[:, :, 0], u[:, :, 1], generator, theta)


def _tensor_from_unitary(u, D, d):
    # A[x, y, a, b, g, l, j] = U[x, y, (g, l, j), (a, b, 0)]
    u6 = u.reshape(*u.shape[:2], D, D, d, D, D, d)[..., 0]
    return np.ascontiguousarray(u6.transpose(0, 1, 5, 6, 2, 3, 4))


def local_tensor(state):
    """Site tensors A[x, y, a, b, g, l, j]: the embedded unitaries applied to |0> on the
    physical input."""
    u = state.u_minus @ state.exponential @ state.u_plus
    return _tensor_from_unitary(u, state.spec.D, state.spec.d)


def local_derivative_tensor(state):
    """d/d theta of the site tensors: -iG inserted next to the exponential."""
    du = state.u_minus @ ((-1j * state.generator) @ state.exponential) @ state.u_plus
    return _tensor_from_unitary(du, state.spec.D, state.spec.d)


def norm_squared(state):
    """<psi|psi> by bra-ket network contraction (no statevector materialized)."""
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
    the body has exactly that length, every u_minus and u_plus is unitary,
    every generator Hermitian and every theta finite; the message names the
    first bad site.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
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
