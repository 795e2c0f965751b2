"""Haar sampling, unitarity and Hermiticity checks, and the analytic two-fold Haar average.

Tensors are plain complex numpy arrays (row-major).
"""

from dataclasses import dataclass

import numpy as np

UNITARITY_TOL = 1e-12
HERMITICITY_TOL = 1e-14


def haar_unitary(dim, rng):
    """Draw a dim x dim unitary from the Haar measure.

    Uses the Ginibre + QR construction with the diagonal phase fix that makes
    the distribution exactly Haar (not just approximately).
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_unitaries(dim, count, rng):
    """Batch of `count` independent Haar unitaries, shape (count, dim, dim)."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    z = (rng.standard_normal((count, dim, dim))
         + 1j * rng.standard_normal((count, dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def random_hermitian(dim, rng):
    """Gaussian-ensemble Hermitian matrix H = (A + A^dag)/2 with A complex standard normal."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def is_unitary(u, tol=UNITARITY_TOL):
    dim = u.shape[0]
    return np.abs(u.conj().T @ u - np.eye(dim)).max() <= tol


def is_hermitian(h, tol=HERMITICITY_TOL):
    return np.abs(h - h.conj().T).max() <= tol


@dataclass(frozen=True)
class SecondMomentWeights:
    """Diagrammatic pairing weights of the two-fold Haar average at dimension `dim`.

    w_same / w_cross are the same-pairing and cross-pairing diagram weights;
    dividing both by (dim + 1) gives the coefficients of the exact channel.
    """

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")

    @property
    def w_same(self):
        return 1.0 / (self.dim - 1)

    @property
    def w_cross(self):
        return -1.0 / ((self.dim - 1) * self.dim)


def second_moment_channel(weights, tensor):
    """Average (U x U) X (U x U)^dag over Haar U, applied to a four-leg tensor.

    Leg convention: X[i, j, k, l] = <i|x1|j> <k|x2|l> for X = x1 (x) x2, i.e.
    legs alternate (out, in, out, in). The result is a_I * I + a_S * SWAP with
    coefficients fixed by Tr(X) and Tr(X SWAP).
    """
    n = weights.dim
    x = np.asarray(tensor, dtype=complex)
    if x.shape != (n, n, n, n):
        raise ValueError(f"expected shape {(n, n, n, n)}, got {x.shape}")
    t_id = np.einsum("iikk->", x)
    t_sw = np.einsum("ikki->", x)
    c_same = weights.w_same / (n + 1)
    c_cross = weights.w_cross / (n + 1)
    a_id = t_id * c_same + t_sw * c_cross
    a_sw = t_sw * c_same + t_id * c_cross
    eye = np.eye(n)
    out = np.einsum("ij,kl->ijkl", a_id * eye, eye)
    out += np.einsum("il,kj->ijkl", a_sw * eye, eye)
    return out
