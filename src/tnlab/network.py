"""Exact contraction of site-tensor networks on the torus.

Every network handled here is a ring of column transfer matrices: the sites of
one lattice column are contracted over their vertical bond ring, giving a
matrix from the column's combined left legs to its combined right legs; the
torus value is the trace of the matrix product around the horizontal ring.
Works for single-layer networks (bond extent D, e.g. overlaps with product
states) and double-layer bra-ket networks (bond extent D^2, e.g. norms and
local expectations), with or without open physical legs.

Contraction is always performed along the shorter lattice side (`Layout`
transposes the grid if needed), which keeps the largest intermediate at
chi^(2*min(l1,l2)) for bond extent chi. The transfer matrices of one ring
are kept within `NETWORK_BUDGET` bytes.
"""

import itertools
import math

import numpy as np

from .errors import ResourceLimitError

# bytes that the transfer matrices of one ring and their environments may take
NETWORK_BUDGET = 2**30


class Layout:
    """Orientation of an l1 x l2 site grid so that columns run along the shorter side.

    Layout column c, row r holds the site at `coords(c, r)`. When l1 > l2 the
    grid is transposed: columns are the original x, rows the original y, and
    each site tensor's vertical and horizontal legs swap roles. `coords` is
    its own inverse, so `coords(x, y)` is the (c, r) slot of site (x, y).
    """

    def __init__(self, l1, l2):
        self.shape = (l1, l2)
        self.transposed = l1 > l2
        self.n_cols, self.n_rows = (l1, l2) if self.transposed else (l2, l1)

    def coords(self, c, r):
        return (c, r) if self.transposed else (r, c)

    def columns(self, grid):
        """Oriented [column, row] view of an (l1, l2, ...) array of site tensors.

        The grid holds 4-leg (a, b, g, l) or 5-leg (a, b, g, l, j) site
        tensors; when transposed their (a, b) and (g, l) legs are swapped.
        """
        if not self.transposed:
            return grid.swapaxes(0, 1)
        return grid.transpose(0, 1, 3, 2, 5, 4, *range(6, grid.ndim))


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


def ring_statevector(columns):
    """Contract a ring of physical-leg columns [left, phys, right]; returns [phys...].

    The output physical index is the concatenation of the per-column physical
    groups in ring order.
    """
    k = len(columns)
    half = (k + 1) // 2

    def chain(cols):
        acc = cols[0]
        for c in cols[1:]:
            na, nJ, _ = acc.shape
            _, nj, nr = c.shape
            acc = np.einsum("aJb,bjc->aJjc", acc, c).reshape(na, nJ * nj, nr)
        return acc

    left = chain(columns[:half])
    right = chain(columns[half:])
    out = np.tensordot(left, right, axes=[(0, 2), (2, 0)])
    return out.reshape(-1)
