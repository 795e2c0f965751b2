"""Haar and Gaussian-Hermitian transforms of normal draws, unitarity and Hermiticity
checks, and the analytic two-fold Haar average: the one exact S2 Weingarten matrix
(`weingarten_s2`) and its channel.

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


def weingarten_s2(n):
    """The S2 Weingarten matrix of U(n) over the pairings (e, swap), exactly: Wg = W / den
    with W = [[n, -1], [-1, n]] (object dtype) and den = n (n^2 - 1), the inverse of the
    Gram matrix [[n^2, n], [n, n^2]] (Collins & Sniady, Commun. Math. Phys. 264, 773, 2006).
    """
    return np.array([[n, -1], [-1, n]], dtype=object), n * (n * n - 1)


def second_moment_channel(tensor):
    """Average (U x U) X (U x U)^dag over Haar U, applied to a four-leg tensor.

    Leg convention: X[i, j, k, l] = <i|x1|j> <k|x2|l> for X = x1 (x) x2, i.e.
    legs alternate (out, in, out, in), each of extent n >= 2. The result is
    a_I * I + a_S * SWAP with (a_I, a_S) = Wg (Tr X, Tr X SWAP), Wg from `weingarten_s2`.
    """
    x = np.asarray(tensor, dtype=complex)
    n = x.shape[0] if x.ndim else 0
    if n < 2 or x.shape != (n, n, n, n):
        raise ValueError(f"expected shape (n, n, n, n) with n >= 2, got {x.shape}")
    w, den = weingarten_s2(n)
    a_id, a_sw = w.dot([np.einsum("iikk->", x), np.einsum("ikki->", x)]) / den
    eye = np.eye(n)
    return a_id * np.einsum("ij,kl->ijkl", eye, eye) + a_sw * np.einsum("il,kj->ijkl", eye, eye)
