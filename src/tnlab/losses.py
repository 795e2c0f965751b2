"""Loss functions on tensor-network states and their exact parameter gradients.

Four loss kinds: fidelity against a product state (pure or normalized by
Z = <psi|psi>) and a single-site observable expectation (unnormalized or
normalized). Values and gradients are evaluated by network contraction, so
neither builds the statevector; a gradient is a sweep over ring values with
the derivative tensor inserted at one site.

A local gradient takes one sweep. N = <psi|O|psi> and its sweep are linear
in O, so the normalized gradient (dN z - N dZ) / z^2 is the sweep of the
folded observable O' = (O - (N/z) 1) / z. `network.bra_ket` reads z and N
from the observable column's environment and folds O inside the same ring
pass; z is checked against Z_FLOOR before it divides anything.
"""

from dataclasses import dataclass

import numpy as np

from . import network
from .errors import DegenerateStateError
from .states import local_derivative_tensor, local_tensor

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

    Checked once, here, else ValueError: a target is a finite (l1, l2, d) product state of
    unit site vectors (to 1e-10), kept complex; an observable is a finite square matrix,
    Hermitian to 1e-12, kept as its exactly Hermitian part (O + O^dagger) / 2, as
    `network.bra_ket` takes it. `network` checks the target's shape and the site.
    """

    kind: str
    target: np.ndarray = None
    observable: np.ndarray = None
    site: tuple = None

    def __post_init__(self):
        if self.kind not in GLOBAL_KINDS + LOCAL_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind in GLOBAL_KINDS:
            if self.target is None:
                raise ValueError("global losses need a target product state")
            phi = np.array(self.target, dtype=complex)
            if phi.ndim != 3:
                raise ValueError(f"product state must have shape (l1, l2, d), got {phi.shape}")
            if not np.isfinite(phi).all():
                raise ValueError("product state must be finite")
            if np.abs(np.linalg.norm(phi, axis=2) - 1.0).max(initial=0.0) > 1e-10:
                raise ValueError("product-state site vectors must be normalized")
            object.__setattr__(self, "target", phi)
        else:
            if self.observable is None or self.site is None:
                raise ValueError("local losses need an observable and a site")
            obs = np.asarray(self.observable, dtype=complex)
            if obs.ndim != 2 or obs.shape[0] != obs.shape[1]:
                raise ValueError(
                    f"observable must be Hermitian: a square matrix, got shape {obs.shape}")
            if not np.isfinite(obs).all():
                raise ValueError("observable must be finite")
            if np.abs(obs - obs.conj().T).max(initial=0.0) > 1e-12:
                raise ValueError("observable must be Hermitian")
            object.__setattr__(self, "observable", (obs + obs.conj().T) / 2)

    @property
    def normalized(self):
        return self.kind in NORMALIZED_KINDS


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


def _above_floor(z):
    """z = <psi|psi>, or DegenerateStateError when it is below Z_FLOOR."""
    if z < Z_FLOOR:
        raise DegenerateStateError(f"norm^2 = {z} below {Z_FLOOR}")
    return z


def loss_value(state, loss):
    """Exact loss value by network contraction (no statevector is built)."""
    ket = local_tensor(state)
    if loss.kind in GLOBAL_KINDS:
        val = abs(network.overlap(ket, loss.target)) ** 2
    else:
        val = network.bra_ket(ket, site=loss.site, op=loss.observable)
    if loss.normalized:
        val = val / _above_floor(network.bra_ket(ket))
    return 1.0 - val if loss.kind in GLOBAL_KINDS else val


def gradient_map(state, loss):
    """d(loss)/d(theta) for every site's parameter, as an (l1, l2) array."""
    ket = local_tensor(state)
    dket = local_derivative_tensor(state)

    if loss.kind in GLOBAL_KINDS:
        w, dw = network.overlap(ket, loss.target, dket)
        d_fid = 2.0 * (w.real * dw.real + w.imag * dw.imag)  # 2 Re(conj(w) dw)
        if loss.kind == GLOBAL_PURE:
            return -d_fid
        z, dz = network.bra_ket(ket, dket)
        z = _above_floor(z)
        return -(d_fid * z - abs(w) ** 2 * 2.0 * dz.real) / z**2

    fold = None
    if loss.kind == LOCAL_NORMALIZED:
        # fold the quotient rule into the observable (see the module docstring)
        def fold(z, n):
            z = _above_floor(z)
            return 1.0 / z, -n / z**2

    return 2.0 * network.bra_ket(ket, dket, loss.site, loss.observable, fold)[1].real
