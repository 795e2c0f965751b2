"""Haar and Gaussian-Hermitian transforms of normal draws, unitarity and Hermiticity
checks, and the analytic two-fold Haar average.

Tensors are plain complex numpy arrays (row-major).
"""

import numpy as np

UNITARITY_TOL = 1e-12
HERMITICITY_TOL = 1e-14


def haar_unitary(re, im):
    """Haar unitaries from the real and imaginary parts of Ginibre matrices.

    Mezzadri's construction (Notices AMS 54, 592, 2007): the QR factors of
    (re + i im) / sqrt(2), with the phases of R's diagonal moved into Q, which
    makes the distribution exactly Haar (not just approximately). Batches over
    leading axes.
    """
    z = (re + 1j * im) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_hermitian(re, im):
    """Gaussian-ensemble Hermitian matrices (A + A^dag) / 2 for A = re + i im, batched over
    leading axes."""
    a = re + 1j * im
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def is_unitary(u):
    """Whether u is unitary to UNITARITY_TOL; an array of answers over leading axes."""
    dim = u.shape[-1]
    return np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(dim)).max(axis=(-2, -1)) <= UNITARITY_TOL


def is_hermitian(h):
    """Whether h is Hermitian to HERMITICITY_TOL; an array of answers over leading axes."""
    return np.abs(h - h.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) <= HERMITICITY_TOL


def second_moment_channel(tensor):
    """Average (U x U) X (U x U)^dag over Haar U, applied to a four-leg tensor.

    Leg convention: X[i, j, k, l] = <i|x1|j> <k|x2|l> for X = x1 (x) x2, i.e.
    legs alternate (out, in, out, in), each of extent n >= 2. The result is
    a_I * I + a_S * SWAP with coefficients fixed by Tr(X) and Tr(X SWAP): the
    same-pairing and cross-pairing diagram weights 1 / (n - 1) and
    -1 / ((n - 1) n), each divided by n + 1.
    """
    x = np.asarray(tensor, dtype=complex)
    n = x.shape[0] if x.ndim else 0
    if n < 2 or x.shape != (n, n, n, n):
        raise ValueError(f"expected shape (n, n, n, n) with n >= 2, got {x.shape}")
    t_id = np.einsum("iikk->", x)
    t_sw = np.einsum("ikki->", x)
    c_same = 1.0 / (n - 1) / (n + 1)
    c_cross = -1.0 / ((n - 1) * n) / (n + 1)
    a_id = t_id * c_same + t_sw * c_cross
    a_sw = t_sw * c_same + t_id * c_cross
    eye = np.eye(n)
    out = np.einsum("ij,kl->ijkl", a_id * eye, eye)
    out += np.einsum("il,kj->ijkl", a_sw * eye, eye)
    return out
