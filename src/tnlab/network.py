"""Exact contraction of site-tensor networks on the torus.

Every network handled here is a ring of column transfer matrices; the torus
value is the trace of their product around the horizontal ring. This is the
one module that orients a lattice and assembles a ring. Its entry points take
plain (l1, l2, ...) grids of site tensors:

- `contract` (any 4-leg grid, e.g. the spin model) contracts each column's
  vertical bond ring into a matrix from its combined left legs to its
  combined right legs.
- `bra_ket` (norms and local expectations) and `overlap` (against a product
  state) contract ket columns against bra columns. A ket column K[L, P, R]
  is one column's sites contracted over the vertical ring, with left bonds
  L, the physical legs P of its rows and right bonds R; a bra column
  B[L', P, R'] has the same physical legs. A double-layer transfer matrix is
  one product over the physical legs, T[(L, L'), (R, R')] = sum_P K[L, P, R]
  conj(B[L', P, R']). For `bra_ket` the bra columns are the ket columns,
  with an op folded into the bra at its site: <psi| op = (op^dagger
  |psi>)^dagger. For `overlap` each bra column is the product state's
  vectors of its rows, B[1, P, 1].
- `statevector` chains the ket columns into the dense amplitudes.

Given the derivative tensors of every site, `bra_ket` and `overlap` also
return the sweep: the value with each site's tensor replaced in turn. Each
column's ring environment E (the product of the other columns) is contracted
with the column's bra once, G[L, P, R] = sum conj(B[L', P, R'])
E[(R, R'), (L, L')]; a site's sweep value is then sum K' G, where K' is the
ket column with that site's tensor replaced by its derivative. A ring of k
columns forms 3k - 6 matrix products for its environments and value, and
k - 2 for a value alone: the trace of the last product is read as an
elementwise sum, trace(A B) = sum A * B^T.

`bra_ket` can also refold its op within that one ring (the normalized local
gradient sweeps O' = (O - (N/z) 1) / z). The ring then starts at the op
column, whose environment E is the first suffix product. z and N are read
from E with that column's plain and op transfer matrices, and the caller's
fold(z, N) gives the op to put in its place, as a combination of the op and
the identity, before the prefix products are formed. So the pass builds
k + 1 double-layer columns and forms the products of one sweep.

`site_double_tensor` and `site_single_tensor` build the same networks site
by site. No library code calls them: the tests build with them the
networks that `contract` checks `bra_ket` and `overlap` against, and the
benchmark's span tracer wraps them.

Contraction is always performed along the shorter lattice side (the grid is
transposed if needed), which keeps the transfer matrices at chi^(2*min(l1,l2))
entries for bond extent chi. A ring's transfer matrices, ket columns and
their environments are kept within `NETWORK_BUDGET` bytes.
"""

import functools
import itertools

import numpy as np

from .errors import ResourceLimitError
from .lattice import DEFAULT_AMPLITUDE_CAP

# bytes that the transfer matrices and ket columns of one ring and their environments may take
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


def _check_ring(n_cols, n_rows, itemsize, transfer_size, ket_size=0):
    """Raise, before anything is built, when a ring cannot or may not be contracted.

    ValueError when a column has fewer than two sites (`column_transfer` would
    contract a lone site with itself). ResourceLimitError when the ring would
    exceed NETWORK_BUDGET bytes, at itemsize bytes an entry. The charge is what
    the costliest ring, a fused `bra_ket` pass, holds at once:
    - 4 k - 4 transfer matrices of transfer_size entries for k = n_cols: the k
      columns, the op column's plain transfer matrix, the k - 2 suffixes,
      k - 2 prefixes and k - 2 middle environments of `ring_environments`,
      and one temporary (the sweep that follows holds at most 2 k + 2, a
      plain sweep 4 k - 6 and a value-only ring k + 3);
    - k + 6 ket columns of ket_size entries: the k ket columns, the op
      column's bra, and up to 5 more that a sweep holds beside them while it
      forms a sweep tensor (the bra conjugated and transposed, the product
      and its contiguous copy) or rebuilds a ket column.
    """
    if n_cols == 0 or n_rows < 2:
        raise ValueError("network columns need two sites: lattice sides must be >= 2")
    need = ((4 * n_cols - 4) * transfer_size + (n_cols + 6) * ket_size) * itemsize
    if need > NETWORK_BUDGET:
        raise ResourceLimitError(
            f"a ring of {n_cols} columns of {n_rows} sites needs about "
            f"{need / 2**30:.1f} GiB, above the network budget of "
            f"{NETWORK_BUDGET / 2**30:.1f} GiB")


def ring_value(columns):
    """Trace of the product of column transfer matrices around a ring of at least two columns.

    The last product is not formed: the trace is `replace_value` of the last
    column against the product of the others, k - 2 products in all.
    """
    return replace_value(columns[-1], functools.reduce(np.matmul, columns[:-1]))


def ring_environments(columns, replace_first=None):
    """Ring value and per-column ring environments of a ring of at least two columns.

    Returns (value, envs) where envs[y] is the matrix E such that replacing
    column y by T' gives ring value sum_ab T'[a, b] E[b, a]; i.e. E is the
    product of the other columns in ring order starting after y. Only the
    products that are returned get formed: the suffixes T(y+1)...T(k-1)
    (k - 2 products), the prefixes T0...Ty of the first k - 1 columns (k - 2)
    and the environments of the middle columns (k - 2). The value is taken
    as `ring_value` takes it.

    No suffix holds column 0, so its environment is known before any prefix
    is formed. With replace_first, a function of that environment that
    returns a new column 0, the prefixes, the other environments and the
    value are those of the ring with the new column in place.
    """
    k = len(columns)
    # tail[y] = T(y+1)...T(k-1), built from the right
    tail = list(itertools.accumulate(columns[:0:-1], lambda acc, m: m @ acc))[::-1]
    if replace_first is not None:
        columns = [replace_first(tail[0]), *columns[1:]]
    head = list(itertools.accumulate(columns[:-1], np.matmul))  # head[y] = T0...Ty
    value = replace_value(columns[-1], head[-1])
    return value, [tail[0], *(tail[y] @ head[y - 1] for y in range(1, k - 1)), head[-1]]


def replace_value(replacement, env):
    """Ring value with one column replaced, given that column's environment.

    trace(replacement @ env), as the sum of replacement * env^T: no product is formed.
    """
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


def _ket_column(ts):
    """Ket column K[L, P, R] of one oriented column of 5-leg site tensors (a, b, g, l, j).

    L and R combine the sites' left (b) and right (l) bonds and P their
    physical legs, each in row order. Each physical leg is folded onto the
    left bond, so one `column_transfer` contracts the column.
    """
    n = len(ts)
    na, nb, ng, nl, d = ts[0].shape
    # fold each physical leg onto the left bond: (a, (b, j), g, l)
    m = column_transfer([t.transpose(0, 1, 4, 2, 3).reshape(na, nb * d, ng, nl) for t in ts])
    # split the left index (b0, j0, b1, j1, ...) into [bonds, phys, right]
    m = m.reshape((nb, d) * n + (-1,))
    m = m.transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2), 2 * n)
    return m.reshape(nb**n, d**n, -1)


def _on_row(op, column, row):
    """op applied to the physical leg of `row` of a [L, P, R] column tensor."""
    d = op.shape[0]
    return (op @ column.reshape(column.shape[0] * d**row, d, -1)).reshape(column.shape)


def _double_column(ket_col, bra_col):
    """Double-layer transfer matrix T[(L, L'), (R, R')] = sum_P ket[L, P, R] conj(bra[L', P, R'])."""
    # one (R x P) @ (P x R') product per (L, L'), written straight into (L, L', R, R') order
    t = np.matmul(ket_col.transpose(0, 2, 1)[:, None], bra_col.conj()[None])
    return t.reshape(ket_col.shape[0] * bra_col.shape[0], -1)


def _sweep_tensor(bra_col, env):
    """G[L, P, R] = sum conj(bra[L', P, R']) env[(R, R'), (L, L')]: replacing the column's
    ket side by K' gives the ring value sum K' G."""
    nl, _, nr = bra_col.shape
    env = env.reshape(env.shape[0] // nr, nr, env.shape[1] // nl, nl)
    g = np.tensordot(env, bra_col.conj(), axes=([1, 3], [2, 0]))
    return np.ascontiguousarray(g.transpose(1, 2, 0))


def _real(value):
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        raise RuntimeError(f"bra-ket value {value} has a non-negligible imaginary part")
    return float(value.real)


def contract(grid):
    """Ring value of an (l1, l2, a, b, g, l) grid of 4-leg site tensors.

    Raises as `_check_ring` does, before any transfer matrix is built.
    """
    columns = _orient(grid)
    n_cols, n_rows, _, n_b, _, n_l = columns.shape
    _check_ring(n_cols, n_rows, grid.itemsize, (n_b * n_l) ** n_rows)
    return ring_value([column_transfer(ts) for ts in columns])


def _ket_columns(ket, chi):
    """Oriented [column][row] site tensors of ket and their ket columns, built after
    `_check_ring` passes for a ring of transfer matrices of bond extent chi."""
    columns = _orient(ket)
    n_cols, n_rows = columns.shape[:2]
    D, d = ket.shape[2], ket.shape[-1]
    _check_ring(n_cols, n_rows, ket.itemsize, chi ** (2 * n_rows), D ** (2 * n_rows) * d**n_rows)
    return columns, [_ket_column(col) for col in columns]


def _ring(columns, kets, bras, dket=None, first=0, fold=None):
    """Ring value of ket columns against bra columns; with dket, (value, sweep).

    `columns` holds the oriented site tensors behind `kets`, and the ring is
    multiplied from column `first` on. The sweep entry of column c, row r is
    sum K' G_c, where K' is column c's ket column with row r's tensor
    replaced by its derivative and G_c = `_sweep_tensor` of the column's bra
    and ring environment.

    With fold (and dket), bras[first] holds the op of `bra_ket`. No suffix
    product holds that column, so its environment E is formed first, and
    z = <psi|psi> and N = <psi|op|psi> are read from E with the column's plain
    and op transfer matrices, T and T_op. fold(z, N) returns (a, b), and the
    column becomes that of the op a op + b 1, with transfer matrix
    a T_op + b T and bra conj(a) B_op + conj(b) K, before the prefixes are
    formed. T_op and bras[first] are replaced in place, so neither is kept.
    The value and sweep are those of the new op.
    """
    order = [*range(first, len(kets)), *range(first)]
    cols = [_double_column(kets[c], bras[c]) for c in order]
    if dket is None:
        return ring_value(cols)
    replace_first = None
    if fold is not None:
        plain = _double_column(kets[first], kets[first])

        def replace_first(env):
            a, b = fold(_real(replace_value(plain, env)), _real(replace_value(cols[0], env)))
            bras[first] = np.conj(a) * bras[first] + np.conj(b) * kets[first]
            # T_op is read: the new column takes its place and its memory
            cols[0] *= a
            cols[0] += b * plain
            return cols[0]

    value, envs = ring_environments(cols, replace_first)
    envs = dict(zip(order, envs))
    dcolumns = _orient(dket)
    sweep = np.empty(dcolumns.shape[:2], dtype=complex)
    for c, bra in enumerate(bras):
        g = _sweep_tensor(bra, envs[c]).reshape(-1)
        for r in range(sweep.shape[1]):
            ts = list(columns[c])
            ts[r] = dcolumns[c, r]
            sweep[c, r] = _ket_column(ts).reshape(-1) @ g
    # column c, row r is site (c, r) of a transposed grid, else site (r, c)
    return value, np.ascontiguousarray(sweep if _transposed(dket) else sweep.T)


def bra_ket(ket, dket=None, site=None, op=None, fold=None):
    """<psi|psi>, or <psi| op at site |psi>, of the (l1, l2, a, b, g, l, j) site tensors ket.

    site is an (x, y) tuple inside the lattice and op a d x d matrix, else
    ValueError. The value must be real: an imaginary part above 1e-9 of its
    size raises RuntimeError. With dket, the derivative tensors of every site,
    returns (value, sweep): sweep[x, y] is the value with the ket-layer tensor
    of site (x, y) replaced by dket[x, y].

    fold, which needs dket, site and op, refolds the op inside the same ring
    pass: fold(z, N) is called with the real values z = <psi|psi> and
    N = <psi| op |psi> and returns numbers (a, b); the value and sweep
    returned are then those of the op a op + b 1. The whole call makes one
    ring of products, as a plain sweep does.
    """
    if fold is not None and (dket is None or site is None):
        raise ValueError("fold needs dket, a site and an op")
    if site is not None:
        (l1, l2), d = ket.shape[:2], ket.shape[-1]
        x, y = site
        if not (isinstance(x, (int, np.integer)) and isinstance(y, (int, np.integer))
                and 0 <= x < l1 and 0 <= y < l2):
            raise ValueError(f"site {site} is not a site of the {l1} x {l2} lattice")
        if np.shape(op) != (d, d):
            raise ValueError(f"op must be {d} x {d}, got shape {np.shape(op)}")
    columns, kets = _ket_columns(ket, ket.shape[2] ** 2)
    bras = list(kets)
    c = 0
    if site is not None:
        # <psi| op = (op^dagger |psi>)^dagger: op joins the bra column that holds its site
        c, row = (x, y) if _transposed(ket) else (y, x)
        bras[c] = _on_row(np.conj(op).T, kets[c], row)
    out = _ring(columns, kets, bras, dket, c, fold)
    return _real(out) if dket is None else (_real(out[0]), out[1])


def overlap(ket, phi, dket=None):
    """<phi|psi> of the (l1, l2, a, b, g, l, j) site tensors ket and a product state phi.

    phi has shape (l1, l2, j). With dket, the derivative tensors of every
    site, returns (value, sweep) as `bra_ket` does.
    """
    columns, kets = _ket_columns(ket, ket.shape[2])
    # each column's bra [1, P, 1]: the product of its rows' vectors, row 0 slowest
    bras = [functools.reduce(np.kron, col)[None, :, None]
            for col in (phi if _transposed(ket) else phi.swapaxes(0, 1))]
    return _ring(columns, kets, bras, dket)


def statevector(ket):
    """Dense amplitudes of the (l1, l2, a, b, g, l, j) site tensors ket.

    One leg of extent d per site, in row-major (x, y) order. The ket columns
    are chained into two halves, which close the ring. Raises ResourceLimitError, before any work, when
    the d**(l1*l2) amplitudes exceed DEFAULT_AMPLITUDE_CAP.
    """
    l1, l2, d = *ket.shape[:2], ket.shape[-1]
    if d ** (l1 * l2) > DEFAULT_AMPLITUDE_CAP:
        raise ResourceLimitError(
            f"d**(l1*l2) = {d}**{l1 * l2} exceeds the dense cap {DEFAULT_AMPLITUDE_CAP}")
    columns = [_ket_column(ts) for ts in _orient(ket)]

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
    legs = np.arange(l1 * l2).reshape(len(columns), -1)
    perm = (legs if l1 > l2 else legs.T).reshape(-1)
    return np.ascontiguousarray(psi.reshape((d,) * (l1 * l2)).transpose(perm))
