"""Unitarily embedded random tensor-network states on the torus.

Each site (x, y) carries a D^2 d x D^2 d unitary U = u_minus exp(-i theta G)
u_plus acting on (up bond, left bond, physical-in); the site tensor
A[a, b, g, l, j] = <g l j| U |a b 0> feeds legs g/l to the down/right
neighbors. theta is the site's single variational parameter and G its
Hermitian generator.
"""

import dataclasses
import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import network
from .errors import ResourceLimitError
from .lattice import LatticeSpec
from .tensors import haar_from_ginibre, hermitian_from_gaussian, is_hermitian, is_unitary

STATE_FORMAT = "tnlab-state-v1"


@dataclass(frozen=True)
class SiteParams:
    """Unitary factorizations U = u_minus exp(-i theta G) u_plus, batched over leading axes.

    u_minus, u_plus and generator have shape (..., N, N) and theta shape (...):
    a state holds one SiteParams with leading (l1, l2) axes, `TNState.site`
    gives one site's.
    """

    u_minus: np.ndarray
    u_plus: np.ndarray
    generator: np.ndarray
    theta: np.ndarray

    @cached_property
    def exponential(self):
        """exp(-i theta G), from one batched eigh that U and dU/dtheta share."""
        return _expm_herm(-np.asarray(self.theta), self.generator)

    def embedded_unitary(self):
        return self.u_minus @ self.exponential @ self.u_plus

    def derivative_unitary(self):
        """d/d theta of the embedded unitary: -iG inserted next to the exponential."""
        mid = (-1j * self.generator) @ self.exponential
        return self.u_minus @ mid @ self.u_plus


def _expm_herm(scale, h):
    """exp(1j * scale * h) for Hermitian h via eigendecomposition, batched over leading axes."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * scale[..., None] * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class TNState:
    """A random state: `params` holds every site's factors with leading (l1, l2) axes."""

    spec: LatticeSpec
    params: SiteParams

    def site(self, x, y):
        p = self.params
        return SiteParams(p.u_minus[x, y], p.u_plus[x, y], p.generator[x, y], p.theta[x, y])

    def with_theta(self, x, y, theta):
        """This state with site (x, y)'s parameter set to theta."""
        thetas = np.array(self.params.theta, dtype=float)
        thetas[x, y] = theta
        return TNState(self.spec, dataclasses.replace(self.params, theta=thetas))


def build_state(spec, rng):
    """Independent Haar u_minus/u_plus, Gaussian Hermitian generator, uniform theta per site.

    Site by site in row-major order the stream gives the real and imaginary
    Ginibre parts of u_minus, u_plus and the generator, then theta; the
    transforms then run once over every site. Raises ResourceLimitError,
    before any draw, when the draws and the state's complex factors would
    exceed network.NETWORK_BUDGET bytes.
    """
    n = spec.unitary_dim
    # a (6, N, N) float64 block of draws and three (N, N) complex128 factors per site
    need = spec.n_sites * n * n * (6 * 8 + 3 * 16)
    if need > network.NETWORK_BUDGET:
        raise ResourceLimitError(
            f"{spec.n_sites} sites of {n} x {n} unitaries need about {need / 2**30:.1f} GiB, "
            f"above the network budget of {network.NETWORK_BUDGET / 2**30:.1f} GiB")
    raw = np.empty((spec.l1, spec.l2, 6, n, n))
    theta = np.empty((spec.l1, spec.l2))
    for x, y in spec.sites():
        rng.standard_normal(out=raw[x, y])
        theta[x, y] = rng.uniform(0.0, 2.0 * np.pi)
    u = haar_from_ginibre(raw[:, :, 0:4:2], raw[:, :, 1:4:2])
    generator = hermitian_from_gaussian(raw[:, :, 4], raw[:, :, 5])
    return TNState(spec, SiteParams(u[:, :, 0], u[:, :, 1], generator, theta))


def _tensor_from_unitary(u, D, d):
    # A[..., a, b, g, l, j] = U[..., (g, l, j), (a, b, 0)]
    k = u.ndim - 2
    u6 = u.reshape(*u.shape[:k], D, D, d, D, D, d)[..., 0]
    return np.ascontiguousarray(u6.transpose(*range(k), k + 3, k + 4, k, k + 1, k + 2))


def local_tensor(params, D, d):
    """Site tensors A[..., a, b, g, l, j]: the embedded unitaries applied to |0> on the physical
    input."""
    return _tensor_from_unitary(params.embedded_unitary(), D, d)


def local_derivative_tensor(params, D, d):
    """d/d theta of the site tensors."""
    return _tensor_from_unitary(params.derivative_unitary(), D, d)


def _ket(state):
    """Every site tensor of the state, shape (l1, l2, D, D, D, D, d)."""
    return local_tensor(state.params, state.spec.D, state.spec.d)


def to_statevector(state):
    """Dense amplitude tensor, one leg of extent d per site in row-major (x, y) order."""
    return network.statevector(_ket(state))


def norm_squared(state):
    """<psi|psi> by bra-ket network contraction (no statevector materialized)."""
    return network.bra_ket(_ket(state))


def check_product_state(spec, product_state):
    phi = np.asarray(product_state, dtype=complex)
    if phi.shape != (spec.l1, spec.l2, spec.d):
        raise ValueError(f"product state must have shape {(spec.l1, spec.l2, spec.d)}")
    norms = np.linalg.norm(phi, axis=2)
    if np.abs(norms - 1.0).max() > 1e-10:
        raise ValueError("product-state site vectors must be normalized")
    return phi


def check_observable(observable):
    """observable's Hermitian part (O + O^dagger) / 2 as a complex array, or ValueError
    unless it is a Hermitian square matrix (to 1e-12).

    The Hermitian part is exactly Hermitian, so `network.bra_ket` runs it on real
    transfer matrices, and it is observable itself when observable is exactly Hermitian.
    """
    obs = np.asarray(observable, dtype=complex)
    if obs.ndim != 2 or obs.shape[0] != obs.shape[1]:
        raise ValueError(f"observable must be Hermitian: a square matrix, got shape {obs.shape}")
    if np.abs(obs - obs.conj().T).max(initial=0.0) > 1e-12:
        raise ValueError("observable must be Hermitian")
    return (obs + obs.conj().T) / 2


def overlap(state, product_state):
    """<phi|psi> for a normalized per-site product state phi, shape (l1, l2, d)."""
    return network.overlap(_ket(state), check_product_state(state.spec, product_state))


def local_expectation(state, site_index, observable):
    """Unnormalized <psi| O at site |psi> for a Hermitian d x d observable."""
    return network.bra_ket(_ket(state), site=tuple(site_index), op=check_observable(observable))


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
        records[name] = getattr(state.params, name)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(records.tobytes())


def load_state(path):
    """Read a state written by save_state.

    Raises ValueError unless the body has exactly the length that the header
    implies, every u_minus and u_plus is unitary, every generator Hermitian
    and every theta finite; the message names the first bad site.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        if not isinstance(header, dict) or header.get("format") != STATE_FORMAT:
            raise ValueError(f"expected a {STATE_FORMAT} header, got {header!r:.80}")
        try:
            spec = LatticeSpec(header["l1"], header["l2"], header["D"], header["d"])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad state header {header!r}: {exc!r}") from None
        dtype = _record_dtype(spec.unitary_dim)
        expected = spec.n_sites * dtype.itemsize
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if body != expected:
            raise ValueError(f"state body has {body} bytes; its header implies {expected}")
        records = np.frombuffer(fh.read(), dtype=dtype).reshape(spec.l1, spec.l2)
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
    return TNState(spec, SiteParams(u_minus, u_plus, generator, theta))
