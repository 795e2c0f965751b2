"""Loss functions on tensor-network states and their exact parameter gradients.

Four loss kinds: fidelity against a product state (pure or normalized by
Z = <psi|psi>) and a single-site observable expectation (unnormalized or
normalized). Values and gradients are evaluated by network contraction, so
neither builds the statevector; a gradient is a sweep over ring values with
the derivative tensor inserted at one site.
"""

from dataclasses import dataclass

import numpy as np

from . import network
from .errors import DegenerateStateError
from .states import (check_product_state, local_derivative_tensor, local_expectation,
                     local_tensor, norm_squared, overlap)

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


def loss_value(state, loss):
    """Exact loss value by network contraction (no statevector is built)."""
    if loss.kind in GLOBAL_KINDS:
        val = abs(overlap(state, loss.target)) ** 2
    else:
        val = local_expectation(state, loss.site, loss.observable)
    if loss.normalized:
        z = norm_squared(state)
        if z < Z_FLOOR:
            raise DegenerateStateError(f"norm^2 = {z} below {Z_FLOOR}")
        val = val / z
    return 1.0 - val if loss.kind in GLOBAL_KINDS else val


def _ring(layout, base, derivative):
    """Ring value of the oriented [column][row] tensors `base`, and its derivative sweep.

    Returns (value, grid): grid is the (l1, l2) complex array whose entry at
    site coords(c, r) is the ring value with base[c][r] replaced by
    derivative[c][r].
    """
    cols = network.transfer_matrices(base)
    value, envs = network.ring_environments(cols)
    grid = np.empty(layout.shape, dtype=complex)
    for c, col in enumerate(base):
        for r in range(layout.n_rows):
            ts = list(col)
            ts[r] = derivative[c][r]
            grid[layout.coords(c, r)] = network.replace_value(
                network.column_transfer(ts), envs[c])
    return value, grid


def _replaced(columns, slot, tensor):
    """[column][row] lists of `columns` with the tensor at slot (c, r) replaced."""
    out = [list(col) for col in columns]
    out[slot[0]][slot[1]] = tensor
    return out


def gradient_map(state, loss):
    """d(loss)/d(theta) for every site's parameter, as an (l1, l2) array."""
    spec = state.spec
    layout = network.Layout(spec.l1, spec.l2)
    ket = local_tensor(state.params, spec.D, spec.d)
    dket = local_derivative_tensor(state.params, spec.D, spec.d)

    if loss.kind != GLOBAL_PURE:
        e_base = layout.columns(network.site_double_tensor(ket))
        d_base = layout.columns(network.site_double_tensor(dket, bra=ket))
    if loss.normalized:
        z, dz = _ring(layout, e_base, d_base)
        z, dz = z.real, 2.0 * dz.real
        if z < Z_FLOOR:
            raise DegenerateStateError(f"norm^2 = {z} below {Z_FLOOR}")

    if loss.kind in GLOBAL_KINDS:
        target = check_product_state(spec, loss.target)
        w, dw = _ring(layout, layout.columns(network.site_single_tensor(ket, target)),
                      layout.columns(network.site_single_tensor(dket, target)))
        d_fid = 2.0 * (w.real * dw.real + w.imag * dw.imag)  # 2 Re(conj(w) dw)
        if loss.kind == GLOBAL_PURE:
            return -d_fid
        return -(d_fid * z - abs(w) ** 2 * dz) / z**2

    obs = np.asarray(loss.observable, dtype=complex)
    slot = layout.coords(*loss.site)
    # from the oriented views: the order of a three-operand einsum's sums follows its
    # operands' strides, and this one keeps the gradients bit-for-bit reproducible
    ket_obs, dket_obs = layout.columns(ket)[slot], layout.columns(dket)[slot]
    nval, dn = _ring(
        layout, _replaced(e_base, slot, network.site_double_tensor(ket_obs, op=obs)),
        _replaced(d_base, slot, network.site_double_tensor(dket_obs, bra=ket_obs, op=obs)))
    nval, dn = nval.real, 2.0 * dn.real
    if loss.kind == LOCAL_UNNORMALIZED:
        return dn
    return (dn * z - nval * dz) / z**2
