"""Tests for the Haar and Gaussian-Hermitian transforms and the two-fold Haar average."""

import numpy as np
import pytest

from tnlab.tensors import (haar_unitary, is_hermitian, is_unitary, random_hermitian,
                           second_moment_channel)

from oracles import sample_hermitian, sample_unitaries, sample_unitary


def mc_channel(n, tensor, samples, rng):
    """Monte-Carlo average of (U x U) X (U x U)^dag over Haar samples."""
    x_mat = np.asarray(tensor, dtype=complex).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    acc = np.zeros((n * n, n * n), dtype=complex)
    for u in sample_unitaries(n, samples, rng):
        w = np.kron(u, u)
        acc += w @ x_mat @ w.conj().T
    acc /= samples
    return acc.reshape(n, n, n, n).transpose(0, 2, 1, 3)


def one_haar(re, im):
    """Mezzadri's phase-fixed QR of one Ginibre matrix, the formula the batched transform
    replaced."""
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2.0))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def one_hermitian(re, im):
    a = re + 1j * im
    return (a + a.conj().T) / 2.0


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 18])
def test_single_draws_keep_the_ginibre_stream(dim):
    # the one-matrix formulas on the same draws: real part, then imaginary part, per matrix
    for seed in range(5):
        rng = np.random.default_rng(seed)
        re_u, im_u, re_h, im_h = (rng.standard_normal((dim, dim)) for _ in range(4))
        u, h = one_haar(re_u, im_u), one_hermitian(re_h, im_h)
        assert np.array_equal(haar_unitary(re_u, im_u), u)
        assert np.array_equal(random_hermitian(re_h, im_h), h)
        rng = np.random.default_rng(seed)
        assert np.array_equal(sample_unitary(dim, rng), u)
        assert np.array_equal(sample_hermitian(dim, rng), h)


@pytest.mark.parametrize("shape", [(), (1,), (5,), (2, 3)], ids=str)
@pytest.mark.parametrize("dim", range(1, 9))
def test_batched_transforms_match_the_per_matrix_formulas(dim, shape):
    # bit for bit, matrix by matrix, over any leading axes; at dim 1, a phase and a real scalar
    re, im = np.random.default_rng(100 + dim).standard_normal((2, *shape, dim, dim))
    u, h = haar_unitary(re, im), random_hermitian(re, im)
    assert u.shape == h.shape == re.shape
    for index in np.ndindex(*shape):
        assert np.array_equal(u[index], one_haar(re[index], im[index]))
        assert np.array_equal(h[index], one_hermitian(re[index], im[index]))
    assert np.all(is_unitary(u)) and np.all(is_hermitian(h))


def test_entry_second_moment_matches_one_over_dim():
    # E|U_00|^2 = 1/8; |U_00|^2 is Beta(1, 7) so Var = 7/576
    rng = np.random.default_rng(2)
    n, samples = 8, 10_000
    vals = np.abs(sample_unitaries(n, samples, rng)[:, 0, 0]) ** 2
    se = np.sqrt(7.0 / 576.0 / samples)
    assert abs(vals.mean() - 1.0 / n) < 3 * se


def test_first_moment_vanishes():
    rng = np.random.default_rng(3)
    n, samples = 8, 4000
    mean = sample_unitaries(n, samples, rng).mean(axis=0)
    assert np.abs(mean).max() < 5.0 / np.sqrt(samples) / np.sqrt(n)


def test_random_hermitian_real_spectrum():
    rng = np.random.default_rng(6)
    for _ in range(100):
        w = np.linalg.eigvals(sample_hermitian(8, rng))
        assert np.abs(w.imag).max() < 1e-12


@pytest.mark.parametrize("n", [2, 8])
def test_generator_moments_fix_its_scale(n):
    # E[G (x) G] = SWAP for G = (A + A^dag)/2, A complex standard normal (E|A_ij|^2 = 2),
    # so E Tr G^2 = N^2 and E (Tr G)^2 = N; seed 13 is the next one of this file
    re, im = np.random.default_rng(13).standard_normal((2, 4000, n, n))
    g = random_hermitian(re, im)
    tr_sq = np.einsum("bij,bji->b", g, g).real
    sq_tr = np.trace(g, axis1=1, axis2=2).real ** 2
    for values, expected in ((tr_sq, n * n), (sq_tr, n)):
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(values.mean() - expected) <= 3 * se, (values.mean(), expected, se)


def test_channel_matches_monte_carlo_on_random_input():
    rng = np.random.default_rng(10)
    n = 4
    x = rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
    exact = second_moment_channel(x)
    mc = mc_channel(n, x, 20_000, rng)
    # per-entry Monte-Carlo SE is ~7e-3 here; allow for the max over 256 entries
    assert np.abs(exact - mc).max() < 5e-2


def test_channel_trace_preservation_on_pure_state_pair():
    rng = np.random.default_rng(11)
    n = 4
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    x = np.einsum("ij,kl->ijkl", rho, rho)
    out = second_moment_channel(x)
    assert abs(np.einsum("iikk->", out) - 1.0) < 1e-12
    assert abs(np.einsum("ikki->", out) - 1.0) < 1e-12


def test_channel_commutes_with_copy_swap():
    rng = np.random.default_rng(12)
    n = 3
    x = rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
    swapped_in = second_moment_channel(x.transpose(2, 3, 0, 1))
    swapped_out = second_moment_channel(x).transpose(2, 3, 0, 1)
    assert np.abs(swapped_in - swapped_out).max() < 1e-14


@pytest.mark.parametrize("shape", [(4, 4, 4, 3), (1, 1, 1, 1), (0, 0, 0, 0), (4, 4, 4), (4,), ()])
def test_channel_rejects_wrong_leg_extent(shape):
    with pytest.raises(ValueError, match="n >= 2"):
        second_moment_channel(np.zeros(shape))
