"""Exact contraction of site-tensor networks on the torus.

Every network handled here is a ring of column transfer matrices: the sites of
one lattice column are contracted over their vertical bond ring, giving a
matrix from the column's combined left legs to its combined right legs; the
torus value is the trace of the matrix product around the horizontal ring.

This is the one module that orients a lattice and assembles a ring. Its
entry points take plain (l1, l2, ...) grids of site tensors: `contract` (any
4-leg grid, e.g. the spin model), `bra_ket` (double-layer networks of bond
extent D^2: norms and local expectations), `overlap` (single-layer networks
of bond extent D against a product state) and `statevector` (the dense
amplitudes). Given the derivative tensors of every site, `bra_ket` and
`overlap` also return the sweep: the value with each site's tensor replaced
in turn.

Contraction is always performed along the shorter lattice side (the grid is
transposed if needed), which keeps the largest intermediate at
chi^(2*min(l1,l2)) for bond extent chi. The transfer matrices of one ring
are kept within `NETWORK_BUDGET` bytes.
"""

import itertools
import math

import numpy as np

from .errors import ResourceLimitError
from .lattice import DEFAULT_AMPLITUDE_CAP

# bytes that the transfer matrices of one ring and their environments may take
NETWORK_BUDGET = 2**30


def site_double_tensor(ket, bra=None, op=None):
    """Double-layer site tensors with combined (ket, bra) legs of extent D^2.

    ket/bra are 5-leg site tensors (..., a, b, g, l, j) with any leading axes;
    bra defaults to ket. With `op` (a d x d matrix) the physical legs are
    closed through <j'|op|j>, otherwise through the identity.
    """
    if bra is None:
        bra = ket
    if op is None:
        e = np.einsum("...abglj,...ABGLj->...aAbBgGlL", ket, bra.conj())
    else:
        e = np.einsum("...abglj,...ABGLk,kj->...aAbBgGlL", ket, bra.conj(), op)
    D = ket.shape[-5]
    return e.reshape(*e.shape[:-8], D * D, D * D, D * D, D * D)


def site_single_tensor(ket, site_vector):
    """Single-layer site tensors <v|A>: physical legs closed with conj(site_vector).

    ket has shape (..., a, b, g, l, j) and site_vector (..., j).
    """
    return np.einsum("...abglj,...j->...abgl", ket, site_vector.conj())


def column_transfer(tensors):
    """Contract one column's vertical ring; returns a matrix [left legs, right legs].

    `tensors` lists the column's 4-leg site tensors (a, b, g, l) in vertical
    order (at least two); leg g of each site is contracted with leg a of the
    next, cyclically.
    """
    cur = tensors[0]
    for t in tensors[1:-1]:
        na, nB, _, nL = cur.shape
        _, nb, nh, nl = t.shape
        # (a, B, g, L) x (g, b, h, l) -> (a, B, L, b, h, l) -> (a, Bb, h, Ll)
        cur = np.tensordot(cur, t, axes=[(2,), (0,)])
        cur = cur.transpose(0, 1, 3, 4, 2, 5).reshape(na, nB * nb, nh, nL * nl)
    t = tensors[-1]
    _, nB, _, nL = cur.shape
    _, nb, _, nl = t.shape
    out = np.tensordot(cur, t, axes=[(0, 2), (2, 0)])  # (B, L, b, l)
    return out.transpose(0, 2, 1, 3).reshape(nB * nb, nL * nl)


def transfer_matrices(columns):
    """Column transfer matrices of an oriented ring of 4-leg site tensors.

    Raises ValueError when a column has fewer than two sites (`column_transfer`
    would contract a lone site with itself), and ResourceLimitError, before any
    matrix is built, when the ring's matrices and their environments would
    exceed NETWORK_BUDGET bytes.
    """
    if len(columns) == 0 or len(columns[0]) < 2:
        raise ValueError("network columns need two sites: lattice sides must be >= 2")
    first = columns[0]
    n_left = math.prod(t.shape[1] for t in first)
    n_right = math.prod(t.shape[3] for t in first)
    # room for 3 matrices per column plus 2: ring_environments forms 3k - 5
    # products beside the k transfer matrices
    need = (3 * len(columns) + 2) * n_left * n_right * first[0].itemsize
    if need > NETWORK_BUDGET:
        raise ResourceLimitError(
            f"{len(columns)} transfer matrices of {n_left} x {n_right} need about "
            f"{need / 2**30:.1f} GiB, above the network budget of "
            f"{NETWORK_BUDGET / 2**30:.1f} GiB")
    return [column_transfer(ts) for ts in columns]


def ring_value(columns):
    """Trace of the product of column transfer matrices around the ring."""
    acc = columns[0]
    for m in columns[1:]:
        acc = acc @ m
    return complex(np.trace(acc))


def ring_environments(columns):
    """Ring value and per-column ring environments of a ring of at least two columns.

    Returns (value, envs) where envs[y] is the matrix E such that replacing
    column y by T' gives ring value sum_ab T'[a, b] E[b, a]; i.e. E is the
    product of the other columns in ring order starting after y. Only the
    products that are returned get formed: the prefixes T0...Ty (k - 1
    products), the suffixes T(y+1)...T(k-1) (k - 2) and the environments of
    the middle columns (k - 2).
    """
    k = len(columns)
    head = list(itertools.accumulate(columns, np.matmul))  # head[y] = T0...Ty
    # tail[y] = T(y+1)...T(k-1), built from the right
    tail = list(itertools.accumulate(columns[:0:-1], lambda acc, m: m @ acc))[::-1]
    envs = [tail[0], *(tail[y] @ head[y - 1] for y in range(1, k - 1)), head[k - 2]]
    return complex(np.trace(head[-1])), envs


def replace_value(replacement, env):
    """Ring value with one column replaced, given that column's environment."""
    return complex(np.sum(replacement * env.T))


def _transposed(grid):
    return grid.shape[0] > grid.shape[1]


def _orient(grid):
    """Oriented [column, row] view of an (l1, l2, ...) grid of 4- or 5-leg site tensors.

    Columns run along the shorter side: column c, row r holds site (r, c), or
    site (c, r) when l1 > l2. In the second case the grid is transposed and
    each tensor's (a, b) and (g, l) legs swap roles.
    """
    if not _transposed(grid):
        return grid.swapaxes(0, 1)
    return grid.transpose(0, 1, 3, 2, 5, 4, *range(6, grid.ndim))


def _ring(columns, derivative=None, transposed=False):
    """Value of an oriented ring of [column][row] site tensors and, given
    `derivative` of the same layout, its sweep.

    The sweep is the (l1, l2) array whose entry at a site is the ring value
    with that site's tensor replaced by its derivative tensor.
    """
    # the transfer matrices stay referenced until the sweep ends: releasing them
    # earlier makes the sweep's column transfers fault their pages in again
    cols = transfer_matrices(columns)
    if derivative is None:
        return ring_value(cols)
    value, envs = ring_environments(cols)
    shape = (len(columns), len(columns[0]))
    sweep = np.empty(shape if transposed else shape[::-1], dtype=complex)
    for c, col in enumerate(columns):
        for r in range(len(col)):
            ts = list(col)
            ts[r] = derivative[c][r]
            sweep[(c, r) if transposed else (r, c)] = replace_value(column_transfer(ts), envs[c])
    return value, sweep


def _real(value):
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        raise RuntimeError(f"bra-ket value {value} has a non-negligible imaginary part")
    return float(value.real)


def contract(grid):
    """Ring value of an (l1, l2, a, b, g, l) grid of 4-leg site tensors."""
    return _ring(_orient(grid))


def bra_ket(ket, dket=None, site=None, op=None):
    """<psi|psi>, or <psi| op at site |psi>, of the (l1, l2, a, b, g, l, j) site tensors ket.

    site is an (x, y) tuple and op a d x d matrix. The value must be real: an
    imaginary part above 1e-9 of its size raises RuntimeError. With dket, the
    derivative tensors of every site, returns (value, sweep): sweep[x, y] is
    the value with the ket-layer tensor of site (x, y) replaced by dket[x, y].
    """
    transposed = _transposed(ket)
    # every tensor is built on the contiguous kets and then oriented, except the
    # op site's tensors of a sweep, which are built from the oriented views: the
    # order of a three-operand einsum's sums follows its operands' strides, and
    # these two orders keep both kinds of value bit-for-bit reproducible
    double = site_double_tensor(ket)
    if site is not None and dket is None:
        double[site] = site_double_tensor(ket[site], op=op)
    base = [list(col) for col in _orient(double)]
    if dket is None:
        return _real(_ring(base))
    deriv = [list(col) for col in _orient(site_double_tensor(dket, bra=ket))]
    if site is not None:
        c, r = site if transposed else site[::-1]
        ket_op = _orient(ket)[c, r]
        base[c][r] = site_double_tensor(ket_op, op=op)
        deriv[c][r] = site_double_tensor(_orient(dket)[c, r], bra=ket_op, op=op)
    value, sweep = _ring(base, deriv, transposed)
    return _real(value), sweep


def overlap(ket, phi, dket=None):
    """<phi|psi> of the (l1, l2, a, b, g, l, j) site tensors ket and a product state phi.

    phi has shape (l1, l2, j). With dket, the derivative tensors of every
    site, returns (value, sweep) as `bra_ket` does.
    """
    base = _orient(site_single_tensor(ket, phi))
    if dket is None:
        return _ring(base)
    return _ring(base, _orient(site_single_tensor(dket, phi)), _transposed(ket))


def statevector(ket):
    """Dense amplitudes of the (l1, l2, a, b, g, l, j) site tensors ket.

    One leg of extent d per site, in row-major (x, y) order. The columns are
    folded one by one (each physical leg joins the left bond) and the ring is
    closed from two halves. Raises ResourceLimitError, before any work, when
    the d**(l1*l2) amplitudes exceed DEFAULT_AMPLITUDE_CAP.
    """
    l1, l2, D, d = *ket.shape[:3], ket.shape[-1]
    if d ** (l1 * l2) > DEFAULT_AMPLITUDE_CAP:
        raise ResourceLimitError(
            f"d**(l1*l2) = {d}**{l1 * l2} exceeds the dense cap {DEFAULT_AMPLITUDE_CAP}")
    n = min(l1, l2)
    columns = []
    for ts in _orient(ket):
        # fold each physical leg onto the left bond: (a, (b, j), g, l)
        m = column_transfer([t.transpose(0, 1, 4, 2, 3).reshape(D, D * d, D, D) for t in ts])
        # split the left index (b0, j0, b1, j1, ...) into [bonds, phys, right]
        m = m.reshape((D, d) * n + (-1,))
        m = m.transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2), 2 * n)
        columns.append(m.reshape(D**n, d**n, -1))

    def chain(cols):
        acc = cols[0]
        for c in cols[1:]:
            na, nJ, _ = acc.shape
            _, nj, nr = c.shape
            acc = np.einsum("aJb,bjc->aJjc", acc, c).reshape(na, nJ * nj, nr)
        return acc

    half = (len(columns) + 1) // 2
    psi = np.tensordot(chain(columns[:half]), chain(columns[half:]), axes=[(0, 2), (2, 0)])
    # the legs run in (column, row) order; map them back to row-major sites
    legs = np.arange(l1 * l2).reshape(len(columns), n)
    perm = (legs if l1 > l2 else legs.T).reshape(-1)
    return np.ascontiguousarray(psi.reshape((d,) * (l1 * l2)).transpose(perm))
