"""Loss functions on tensor-network states and their exact parameter gradients.

Four loss kinds: fidelity against a product state (pure or normalized by
Z = <psi|psi>) and a single-site observable expectation (unnormalized or
normalized). Values are evaluated densely through the statevector; gradients
are evaluated by network contraction with the derivative tensor inserted at
one site, which stays cheap on lattices where the statevector would be
rebuilt once per parameter.
"""

from dataclasses import dataclass

import numpy as np

from . import network
from .errors import DegenerateStateError
from .states import (check_product_state, local_derivative_tensor, local_tensor,
                     to_statevector)

GLOBAL_PURE = "global_pure"
GLOBAL_NORMALIZED = "global_normalized"
LOCAL_UNNORMALIZED = "local_unnormalized"
LOCAL_NORMALIZED = "local_normalized"

GLOBAL_KINDS = (GLOBAL_PURE, GLOBAL_NORMALIZED)
LOCAL_KINDS = (LOCAL_UNNORMALIZED, LOCAL_NORMALIZED)
NORMALIZED_KINDS = (GLOBAL_NORMALIZED, LOCAL_NORMALIZED)

Z_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class LossSpec:
    """Loss descriptor: a global target state or a local observable plus site.

    target has shape (l1, l2, d) with one normalized vector per site. In
    theory mode the local observable must additionally be traceless, matching
    the setting of the variance statements being checked.
    """

    kind: str
    target: np.ndarray = None
    observable: np.ndarray = None
    site: tuple = None
    theory_mode: bool = False

    def __post_init__(self):
        if self.kind not in GLOBAL_KINDS + LOCAL_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind in GLOBAL_KINDS:
            if self.target is None:
                raise ValueError("global losses need a target product state")
        else:
            if self.observable is None or self.site is None:
                raise ValueError("local losses need an observable and a site")
            obs = np.asarray(self.observable)
            if np.abs(obs - obs.conj().T).max() > 1e-12:
                raise ValueError("observable must be Hermitian")
            if self.theory_mode and abs(np.trace(obs)) > 1e-12:
                raise ValueError("theory mode requires a traceless observable")

    @property
    def normalized(self):
        return self.kind in NORMALIZED_KINDS

    def describe(self):
        out = {"kind": self.kind}
        if self.site is not None:
            out["site"] = list(self.site)
        return out


def plus_target(spec):
    """Product target with the uniform-superposition vector on every site."""
    v = np.full(spec.d, 1.0 / np.sqrt(spec.d), dtype=complex)
    return np.broadcast_to(v, (spec.l1, spec.l2, spec.d)).copy()


def plus_projector(d):
    v = np.full(d, 1.0 / np.sqrt(d), dtype=complex)
    return np.outer(v, v.conj())


def traceless_observable(d):
    """diag(1, -1, 0, ...): traceless Hermitian with tr(O^2) = 2."""
    o = np.zeros((d, d), dtype=complex)
    o[0, 0], o[1, 1] = 1.0, -1.0
    return o


def _dense_overlap(psi, target):
    l1, l2, d = target.shape
    w = psi.reshape(-1)
    for x in range(l1):
        for y in range(l2):
            w = target[x, y].conj() @ w.reshape(d, -1)
    return complex(w[0])


def loss_value(state, loss):
    """Exact dense loss evaluation (statevector within the lattice cap)."""
    spec = state.spec
    psi = to_statevector(state).reshape(-1)
    if loss.kind in GLOBAL_KINDS:
        target = check_product_state(spec, loss.target)
        w = _dense_overlap(psi, target)
        val = abs(w) ** 2
    else:
        val = _dense_local_expectation(psi, spec, loss.site, np.asarray(loss.observable))
    if loss.normalized:
        z = float(np.vdot(psi, psi).real)
        if z < Z_FLOOR:
            raise DegenerateStateError(f"norm^2 = {z} below {Z_FLOOR}")
        val = val / z
    if loss.kind in GLOBAL_KINDS:
        return 1.0 - val
    return float(val)


def _dense_local_expectation(psi, spec, site, obs):
    k = site[0] * spec.l2 + site[1]
    d = spec.d
    psi_nd = psi.reshape((d,) * spec.n_sites)
    front = np.moveaxis(psi_nd, k, 0).reshape(d, -1)
    return float(np.vdot(front, obs @ front).real)


def _derivative_sweep(layout, base, envs, derivative):
    """Ring values with one site tensor replaced, as an (l1, l2) complex grid.

    base holds the ring's oriented [column][row] tensors and envs their ring
    environments; the value at site coords(c, r) has base[c][r] replaced by
    derivative(c, r).
    """
    out = np.empty(layout.shape, dtype=complex)
    for c, col in enumerate(base):
        for r in range(layout.n_rows):
            ts = list(col)
            ts[r] = derivative(c, r)
            out[layout.coords(c, r)] = network.replace_value(
                network.column_transfer(ts), envs[c])
    return out


def gradient_map(state, loss):
    """d(loss)/d(theta) for every site's parameter, as an (l1, l2) array."""
    spec = state.spec
    layout = network.Layout(spec.l1, spec.l2)
    ket = layout.columns(lambda x, y: local_tensor(state.site(x, y), spec.D, spec.d))
    dket = layout.columns(lambda x, y: local_derivative_tensor(state.site(x, y), spec.D, spec.d))

    def d_double(c, r, op=None):
        return network.site_double_tensor(dket[c][r], bra=ket[c][r], op=op)

    z = dz = None
    if loss.normalized or loss.kind in LOCAL_KINDS:
        e_base = [[network.site_double_tensor(t) for t in col] for col in ket]
    # the transfer matrices (cols_*) stay referenced until gradient_map
    # returns: released before the sweeps, their pages go back to the OS and
    # the sweeps fault them in again (1.6x the minor page faults over 8 local
    # 4x5 and 16 global 4x4 gradients)
    if loss.normalized:
        cols_z = network.transfer_matrices(e_base)
        zval, envs_z = network.ring_environments(cols_z)
        z = zval.real
        if z < Z_FLOOR:
            raise DegenerateStateError(f"norm^2 = {z} below {Z_FLOOR}")
        dz = 2.0 * _derivative_sweep(layout, e_base, envs_z, d_double).real

    if loss.kind in GLOBAL_KINDS:
        target = check_product_state(spec, loss.target)

        def single(tensors, c, r):
            return network.site_single_tensor(tensors[c][r], target[layout.coords(c, r)])

        m = [[single(ket, c, r) for r in range(layout.n_rows)] for c in range(layout.n_cols)]
        cols_w = network.transfer_matrices(m)
        w, envs_w = network.ring_environments(cols_w)
        dw = _derivative_sweep(layout, m, envs_w, lambda c, r: single(dket, c, r))
        d_fid = 2.0 * (w.real * dw.real + w.imag * dw.imag)  # 2 Re(conj(w) dw)
        if loss.kind == GLOBAL_PURE:
            return -d_fid
        return -(d_fid * z - abs(w) ** 2 * dz) / z**2

    obs = np.asarray(loss.observable, dtype=complex)
    obs_slot = layout.coords(*loss.site)
    c_obs, r_obs = obs_slot
    n_base = [list(col) for col in e_base]
    n_base[c_obs][r_obs] = network.site_double_tensor(ket[c_obs][r_obs], op=obs)
    cols_n = network.transfer_matrices(n_base)
    nval, envs_n = network.ring_environments(cols_n)
    nval = nval.real
    dn = 2.0 * _derivative_sweep(
        layout, n_base, envs_n,
        lambda c, r: d_double(c, r, obs if (c, r) == obs_slot else None)).real
    if loss.kind == LOCAL_UNNORMALIZED:
        return dn
    return (dn * z - nval * dz) / z**2
