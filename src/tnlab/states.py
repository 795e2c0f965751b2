"""Unitarily embedded random tensor-network states on the torus.

Each site (x, y) carries a D^2 d x D^2 d unitary U = u_minus exp(-i theta G)
u_plus acting on (up bond, left bond, physical-in); the site tensor
A[a, b, g, l, j] = <g l j| U |a b 0> feeds legs g/l to the down/right
neighbors. theta is the site's single variational parameter and G its
Hermitian generator.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import network
from .errors import ResourceLimitError
from .lattice import DEFAULT_AMPLITUDE_CAP, LatticeSpec
from .tensors import haar_unitary, is_hermitian, is_unitary, random_hermitian

EMBED_TOL = 1e-10
STATE_FORMAT = "tnlab-state-v1"


@dataclass(frozen=True)
class SiteParams:
    """One site's unitary factorization U = u_minus exp(-i theta G) u_plus."""

    u_minus: np.ndarray
    u_plus: np.ndarray
    generator: np.ndarray
    theta: float

    def embedded_unitary(self):
        return self.u_minus @ _expm_herm(-self.theta, self.generator) @ self.u_plus

    def derivative_unitary(self):
        """d/d theta of the embedded unitary: -iG inserted next to the exponential."""
        mid = (-1j * self.generator) @ _expm_herm(-self.theta, self.generator)
        return self.u_minus @ mid @ self.u_plus

    def with_theta(self, theta):
        return SiteParams(self.u_minus, self.u_plus, self.generator, float(theta))


def _expm_herm(scale, h):
    """exp(1j * scale * h) for Hermitian h via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * scale * w)) @ v.conj().T


@dataclass(frozen=True)
class TNState:
    spec: LatticeSpec
    sites: tuple  # tuple of tuples of SiteParams, indexed [x][y]

    def site(self, x, y):
        return self.sites[x][y]


def build_state(spec, rng):
    """Independent Haar u_minus/u_plus, Gaussian Hermitian generator, uniform theta per site."""
    n = spec.unitary_dim
    rows = []
    for _ in range(spec.l1):
        row = []
        for _ in range(spec.l2):
            row.append(SiteParams(
                u_minus=haar_unitary(n, rng),
                u_plus=haar_unitary(n, rng),
                generator=random_hermitian(n, rng),
                theta=float(rng.uniform(0.0, 2.0 * np.pi)),
            ))
        rows.append(tuple(row))
    return TNState(spec, tuple(rows))


def _tensor_from_unitary(u, D, d):
    # A[a, b, g, l, j] = U[(g, l, j), (a, b, 0)]
    u6 = np.asarray(u).reshape(D, D, d, D, D, d)
    return np.ascontiguousarray(u6[:, :, :, :, :, 0].transpose(3, 4, 0, 1, 2))


def local_tensor(site, D, d):
    """Site tensor A[a, b, g, l, j]: the embedded unitary applied to |0> on the physical input."""
    return _tensor_from_unitary(site.embedded_unitary(), D, d)


def local_derivative_tensor(site, D, d):
    """d/d theta of the site tensor."""
    return _tensor_from_unitary(site.derivative_unitary(), D, d)


def _ket(state):
    """site_fn(x, y) returning the state's 5-leg site tensor at (x, y)."""
    spec = state.spec
    return lambda x, y: local_tensor(state.site(x, y), spec.D, spec.d)


def to_statevector(state):
    """Dense amplitude tensor, one leg of extent d per site in row-major (x, y) order."""
    spec = state.spec
    if spec.d ** spec.n_sites > DEFAULT_AMPLITUDE_CAP:
        raise ResourceLimitError(
            f"d**(l1*l2) = {spec.d}**{spec.n_sites} exceeds the dense cap "
            f"{DEFAULT_AMPLITUDE_CAP}")
    layout = network.Layout(spec.l1, spec.l2)
    D, d, n = spec.D, spec.d, layout.n_rows
    columns = []
    for ts in layout.columns(_ket(state)):
        # fold each physical leg onto the left bond: (a, (b, j), g, l)
        m = network.column_transfer(
            [t.transpose(0, 1, 4, 2, 3).reshape(D, D * d, D, D) for t in ts])
        # split the left index (b0, j0, b1, j1, ...) into [bonds, phys, right]
        m = m.reshape((D, d) * n + (-1,))
        m = m.transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2), 2 * n)
        columns.append(m.reshape(D**n, d**n, -1))
    psi = network.ring_statevector(columns).reshape((d,) * spec.n_sites)
    # ring order is (column, row-within-column); map back to row-major sites
    perm = [c * layout.n_rows + r for c, r in (layout.coords(x, y) for x, y in spec.sites())]
    return np.ascontiguousarray(psi.transpose(perm))


def _bra_ket_value(state, site=None, op=None):
    """<psi| op at site |psi> by bra-ket network contraction; <psi|psi> without op."""
    spec = state.spec
    ket = _ket(state)

    def double(x, y):
        return network.site_double_tensor(ket(x, y), op=op if (x, y) == site else None)

    columns = network.Layout(spec.l1, spec.l2).columns(double)
    val = network.ring_value(network.transfer_matrices(columns))
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise RuntimeError(f"bra-ket value {val} has a non-negligible imaginary part")
    return float(val.real)


def norm_squared(state):
    """<psi|psi> by bra-ket network contraction (no statevector materialized)."""
    return _bra_ket_value(state)


def check_product_state(spec, product_state):
    phi = np.asarray(product_state, dtype=complex)
    if phi.shape != (spec.l1, spec.l2, spec.d):
        raise ValueError(f"product state must have shape {(spec.l1, spec.l2, spec.d)}")
    norms = np.linalg.norm(phi, axis=2)
    if np.abs(norms - 1.0).max() > 1e-10:
        raise ValueError("product-state site vectors must be normalized")
    return phi


def overlap(state, product_state):
    """<phi|psi> for a normalized per-site product state phi, shape (l1, l2, d)."""
    spec = state.spec
    phi = check_product_state(spec, product_state)
    ket = _ket(state)
    columns = network.Layout(spec.l1, spec.l2).columns(
        lambda x, y: network.site_single_tensor(ket(x, y), phi[x, y]))
    return complex(network.ring_value(network.transfer_matrices(columns)))


def local_expectation(state, site_index, observable):
    """Unnormalized <psi| O at site |psi> for a Hermitian d x d observable."""
    spec = state.spec
    obs = np.asarray(observable, dtype=complex)
    if obs.shape != (spec.d, spec.d):
        raise ValueError(f"observable must be {spec.d} x {spec.d}")
    if np.abs(obs - obs.conj().T).max() > 1e-12:
        raise ValueError("observable must be Hermitian")
    return _bra_ket_value(state, tuple(site_index), obs)


def save_state(state, path, seed=None):
    """Versioned hybrid format: one JSON header line, then raw little-endian arrays.

    Per site, in row-major order: u_minus, u_plus, generator as complex128 and
    theta as float64.
    """
    spec = state.spec
    header = {"format": STATE_FORMAT, "l1": spec.l1, "l2": spec.l2,
              "D": spec.D, "d": spec.d, "seed": seed}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for x in range(spec.l1):
            for y in range(spec.l2):
                s = state.site(x, y)
                for arr in (s.u_minus, s.u_plus, s.generator):
                    fh.write(np.ascontiguousarray(arr, dtype="<c16").tobytes())
                fh.write(np.float64(s.theta).astype("<f8").tobytes())


def load_state(path):
    """Read a state written by save_state.

    Raises ValueError unless the body has exactly the length that the header
    implies, every u_minus and u_plus is unitary, every generator Hermitian
    and every theta finite.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        if not isinstance(header, dict) or header.get("format") != STATE_FORMAT:
            raise ValueError(f"expected a {STATE_FORMAT} header, got {header!r:.80}")
        try:
            spec = LatticeSpec(header["l1"], header["l2"], header["D"], header["d"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad state header {header!r}: {exc!r}") from None
        n = spec.unitary_dim
        mat_bytes = n * n * 16
        expected = spec.n_sites * (3 * mat_bytes + 8)
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if body != expected:
            raise ValueError(f"state body has {body} bytes; its header implies {expected}")
        rows = []
        for x in range(spec.l1):
            row = []
            for y in range(spec.l2):
                u_minus, u_plus, generator = (
                    np.frombuffer(fh.read(mat_bytes), dtype="<c16").reshape(n, n)
                    for _ in range(3))
                theta = float(np.frombuffer(fh.read(8), dtype="<f8")[0])
                if not (is_unitary(u_minus) and is_unitary(u_plus)):
                    raise ValueError(f"site ({x}, {y}): u_minus or u_plus is not unitary")
                if not is_hermitian(generator):
                    raise ValueError(f"site ({x}, {y}): generator is not Hermitian")
                if not math.isfinite(theta):
                    raise ValueError(f"site ({x}, {y}): theta = {theta} is not finite")
                row.append(SiteParams(u_minus, u_plus, generator, theta))
            rows.append(tuple(row))
    return TNState(spec, tuple(rows))
