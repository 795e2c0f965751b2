"""Exact contraction of site-tensor networks on the torus.

Every network handled here is a ring of column transfer matrices; the torus
value is the trace of their product around the horizontal ring. This is the
one module that orients a lattice and assembles a ring. Its entry points take
plain (l1, l2, ...) grids of site tensors:

- `contract` (any 4-leg grid, e.g. the spin model) contracts each column's
  vertical bond ring into a matrix from its combined left legs to its
  combined right legs.
- `overlap` (against a product state) is the `contract` of the single-layer
  grid `site_single_tensor`, each site's physical leg closed with its own
  target vector: a ring of bond D.
- `bra_ket` (norms and local expectations) contracts ket columns against bra
  columns. A ket column K[L, R, P] is one column's sites contracted over the
  vertical ring, with left bonds L, right bonds R and the physical legs P of
  its rows. The bra columns are the ket columns, with a Hermitian op folded
  into the bra at its site: <psi| op = (op |psi>)^dagger. A double-layer
  transfer matrix is one product over the physical legs,
  T[(L, L'), (R, R')] = sum_P K[L, R, P] conj(B[L', R', P]).
- `statevector` chains the ket columns into the dense amplitudes.

A `bra_ket` column is a completely positive map X -> sum_P K_P X K_P^dagger,
which takes Hermitian matrices to Hermitian matrices. Its ring runs in a
basis of Hermitian matrices: on each (L, L') and (R, R') pair leg it uses the
unitary U = ((1 - i) 1 + (1 + i) SWAP) / 2 and multiplies M = U T U^dagger,
which leaves every trace unchanged. When T is swap-symmetric,
T[L', L, R', R] = conj(T[L, L', R, R']), M is real: M = Re T + Im T^R, where
T^R swaps R and R'. That holds when the bra is the ket, and for the op
column, because `bra_ket` takes only an exactly Hermitian op; so every
`bra_ket` ring multiplies real matrices.

Given the derivative tensors of every site, all three also return the sweep:
the value with each site's tensor replaced in turn. One ring routine takes
the values, environments and sweeps of all three. Each column's ring
environment E (the product of the other columns) gives the column's sweep
tensor once: E^T for `contract`, and for `bra_ket`, with E taken back to the
plain basis, G[L, R, P] = sum conj(B[L', R', P]) E[(R, R'), (L, L')]. A
site's sweep value is then sum T' E^T or sum K' G, where T' and K' are the
column's transfer matrix and ket column with that site's tensor replaced by
its derivative. A ring of k columns forms 3k - 6 matrix products for its
environments and value, and k - 2 for a value alone: the trace of the last
product is read as an elementwise sum, trace(A B) = sum A * B^T.

`bra_ket` can also refold its op within that one ring (the normalized local
gradient sweeps O' = (O - (N/z) 1) / z). The ring then starts at the op
column, whose environment E is the first suffix product. z and N are read
from E with that column's plain and op transfer matrices, and the caller's
fold(z, N) gives the op to put in its place, as a combination of the op and
the identity, before the prefix products are formed. So the pass builds
k + 1 double-layer columns and forms the products of one sweep.

`site_double_tensor` builds the double-layer networks site by site. No
library code calls it: the tests build with it the networks that `contract`
checks `bra_ket` against, and the benchmark's span tracer wraps it.

Contraction is always performed along the shorter lattice side (the grid is
transposed if needed), which keeps the transfer matrices at chi^(2*min(l1,l2))
entries for bond extent chi. A ring's transfer matrices, ket columns,
single-layer grids and environments are kept within `NETWORK_BUDGET` bytes.
"""

import functools
import itertools

import numpy as np

from .errors import ResourceLimitError
from .lattice import DEFAULT_AMPLITUDE_CAP

# bytes that one ring's transfer matrices, ket columns, grids and environments may take
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


def _check_ring(grid, dgrid, transfer_bytes, other_bytes):
    """Raise, before anything is built, when a ring of the site grid `grid` cannot or
    may not be contracted.

    ValueError when a column has fewer than two sites (`column_transfer` would
    contract a lone site with itself), or as `_check_sweep` does. ResourceLimitError
    when the ring would exceed NETWORK_BUDGET bytes: 4 k - 4 transfer matrices of
    transfer_bytes each (k = n_cols), each with 256 bytes of array header and views,
    and the other_bytes that the entry point holds besides them. The counts are
    what tracemalloc shows the costliest ring of each kind to hold at once:
    - a fused `bra_ket` pass holds the k columns, the op column's plain transfer
      matrix, k - 2 suffixes, k - 2 prefixes, k - 2 middle environments and one
      temporary; a sweep then holds its k environments and at most three more
      (the one taken back to the plain basis, or a column rebuilt by
      `column_transfer` with its temporaries), and a value-only ring k + 3;
    - `bra_ket` also holds k + 4 ket columns: the k columns, the op column's
      bra, a sweep tensor, and a rebuilt ket column with its transposed copy;
    - `contract` also holds four grids' worth: the grid and, for `overlap`, the
      derivative grid and the temporaries of `site_single_tensor` (the product
      state cast to complex and the einsum's working memory).
    Over k = 3, 5 and 8 on lattices of 2 to 4 rows (D = 2 or 3, d = 2, and
    d = 9 and 17), the charge is 1.01-1.33 times the peak of a fused pass and
    1.02-1.58 times that of an `overlap` sweep.
    """
    n_cols, n_rows = max(grid.shape[:2]), min(grid.shape[:2])
    if n_rows < 2:
        raise ValueError("network columns need two sites: lattice sides must be >= 2")
    _check_sweep(grid, dgrid)
    need = (4 * n_cols - 4) * (transfer_bytes + 256) + other_bytes
    if need > NETWORK_BUDGET:
        raise ResourceLimitError(
            f"a ring of {n_cols} columns of {n_rows} sites needs about "
            f"{need / 2**30:.1f} GiB, above the network budget of "
            f"{NETWORK_BUDGET / 2**30:.1f} GiB")


def _check_sweep(grid, dgrid):
    """ValueError unless dgrid, the derivative tensors of a sweep, is None or has grid's shape."""
    if dgrid is not None and np.shape(dgrid) != np.shape(grid):
        raise ValueError(f"derivative tensors of shape {np.shape(dgrid)} for site tensors "
                         f"of shape {np.shape(grid)}")


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
    is formed. With replace_first, a function of column 0 and that
    environment that returns a new column 0, the prefixes, the other
    environments and the value are those of the ring with the new column in
    place.
    """
    k = len(columns)
    # tail[y] = T(y+1)...T(k-1), built from the right
    tail = list(itertools.accumulate(columns[:0:-1], lambda acc, m: m @ acc))[::-1]
    if replace_first is not None:
        columns = [replace_first(columns[0], tail[0]), *columns[1:]]
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
    """Ket column K[L, R, P] of one oriented column of 5-leg site tensors (a, b, g, l, j).

    L and R combine the sites' left (b) and right (l) bonds and P their
    physical legs, each in row order. Each physical leg is folded onto the
    right bond, so one `column_transfer` contracts the column.
    """
    n = len(ts)
    na, nb, ng, nl, d = ts[0].shape
    # fold each physical leg onto the right bond: (a, b, g, (l, j)) is a view
    m = column_transfer([t.reshape(na, nb, ng, nl * d) for t in ts])
    # split the right index (l0, j0, l1, j1, ...) into [right, phys]
    m = m.reshape((nb**n,) + (nl, d) * n)
    m = m.transpose(0, *range(1, 2 * n + 1, 2), *range(2, 2 * n + 1, 2))
    return m.reshape(nb**n, nl**n, d**n)


def _on_row(op, column, row):
    """op applied to the physical leg of `row` of a [L, R, P] column tensor."""
    d = op.shape[0]
    nl, nr, _ = column.shape
    return (op @ column.reshape(nl * nr * d**row, d, -1)).reshape(column.shape)


# times a column tensor: the stack [column, i column]
_ONE_I = np.array([1, 1j]).reshape(2, 1, 1, 1)


def _parts(col):
    """Real view [(..., L, R), (P, re/im)] of C-contiguous complex128 [..., L, R, P] column tensors."""
    return col.view(np.float64).reshape(-1, 2 * col.shape[-1])


def _double_column(ket_col, bra_col):
    """Double-layer transfer matrix of a ket column against a bra column with its bonds.

    T[(L, L'), (R, R')] = sum_P ket[L, R, P] conj(bra[L', R', P]) is swap-symmetric, as the
    bra is the ket or a Hermitian op of it, and the matrix is the real
    M = U T U^dagger = Re T + Im T^R in the Hermitian basis of both pair legs (see the module
    docstring). Re T and Im T are real products over the parts of P, with rows (L, R) and
    columns (L', R'): no complex T is formed.
    """
    nl, nr, _ = ket_col.shape
    # [bra, i bra]: i bra has the parts (-bi, br), so one real product over the parts of P
    # gives re = sum kr br + ki bi and im = sum ki br - kr bi, at [L, R, (re, im), L', R']
    t = (_parts(ket_col) @ _parts(_ONE_I * bra_col).T).reshape(nl, nr, 2, nl, nr)
    re, im = t[:, :, 0], t[:, :, 1]
    # as [L, L', R, R'] arrays, T is re + i im transposed (0, 2, 1, 3) and T^R (0, 2, 3, 1)
    return np.add(re.transpose(0, 2, 1, 3), im.transpose(0, 2, 3, 1)).reshape(nl * nl, -1)


def _sweep_tensor(bra_col, env):
    """G[L, R, P] = sum conj(bra[L', R', P]) E[(R, R'), (L, L')]: replacing the column's
    ket side by K' gives the ring value sum K' G.

    env is the column's ring environment in the Hermitian basis, and E is env taken back
    to the plain basis, E = U^dagger env U = (e + e^RL) / 2 + i (e^L - e^R) / 2, with
    e = env and e^RL, e^L and e^R the matrices with both pairs, the (L, L') pair and the
    (R, R') pair swapped. That step writes E as a matrix Y[(L, R), (L', R')]; the real
    and imaginary parts of Y each multiply the real view of the bra, and the two products
    are combined into G = Y conj(B) in place.
    """
    nl, nr, n_p = bra_col.shape
    # e[L, R, L', R'] = env[(R, R'), (L, L')]
    e = env.reshape(nr, nr, nl, nl).transpose(2, 0, 3, 1)
    # 2 E = (e + e^RL) + i (e^L - e^R), each term at [L, R, L', R']
    y = np.empty((2, nl * nr, nl * nr))
    np.add(e, e.transpose(2, 3, 0, 1), out=y[0].reshape(e.shape))
    np.subtract(e.transpose(2, 1, 0, 3), e.transpose(0, 3, 2, 1), out=y[1].reshape(e.shape))
    b = _parts(bra_col)
    # (Y_re + i Y_im) conj(B): Re G = Y_re br + Y_im bi, Im G = Y_im br - Y_re bi
    g, gi = (y[0] @ b).reshape(-1, n_p, 2), (y[1] @ b).reshape(-1, n_p, 2)
    g[..., 0] += gi[..., 1]
    np.subtract(gi[..., 0], g[..., 1], out=g[..., 1])
    g *= 0.5
    return g.view(bra_col.dtype).reshape(nl, nr, n_p)


def _ring(transfers, grid, dgrid=None, bras=None, first=0, replace_first=None):
    """Ring value of the transfer matrices of grid's oriented columns, in column order and
    multiplied from column `first` on; with dgrid, (value, sweep).

    They are the `column_transfer` of grid's 4-leg site tensors, or, given `bras`, the
    `_double_column` of the ket columns of its 5-leg ones against bras. dgrid holds every
    site's derivative tensor, and the sweep entry of column c, row r is sum T' E^T, or sum
    K' G with G = `_sweep_tensor` of bras[c] and E, where E is the column's ring
    environment (replace_first is passed on to `ring_environments`) and T' and K' are the
    column's transfer matrix and ket column with row r's tensor replaced by its derivative.
    """
    transfers = transfers[first:] + transfers[:first]
    if dgrid is None:
        return ring_value(transfers)
    value, envs = ring_environments(transfers, replace_first)
    # the sweep holds only the environments
    transfers = None
    envs = dict(zip([*range(first, len(envs)), *range(first)], envs))
    build = column_transfer if bras is None else _ket_column
    columns, dcolumns = _orient(grid), _orient(dgrid)
    sweep = np.array([
        _column_sweep(build, columns[c], dcolumns[c],
                      envs.pop(c).T if bras is None else _sweep_tensor(bras[c], envs.pop(c)))
        for c in range(len(columns))])
    # column c, row r is site (c, r) of a transposed grid, else site (r, c)
    return value, np.ascontiguousarray(sweep if _transposed(grid) else sweep.T)


def _column_sweep(build, ts, dts, g):
    """sum build(ts') * g for each row of a column, where ts' is its site tensors ts with that
    row's tensor replaced by its derivative in dts."""
    g = g.reshape(-1)
    return [build([*ts[:r], dts[r], *ts[r + 1:]]).reshape(-1) @ g for r in range(len(ts))]


def contract(grid, dgrid=None):
    """Ring value of an (l1, l2, a, b, g, l) grid of 4-leg site tensors.

    With dgrid, the derivative tensors of every site, returns (value, sweep):
    sweep[x, y] is the value with the tensor of site (x, y) replaced by
    dgrid[x, y]. Raises as `_check_ring` does, before any transfer matrix is built.
    """
    columns = _orient(grid)
    _, n_rows, _, n_b, _, n_l = columns.shape
    _check_ring(grid, dgrid, (n_b * n_l) ** n_rows * grid.itemsize, 4 * grid.nbytes)
    return _ring([column_transfer(ts) for ts in columns], grid, dgrid)


def bra_ket(ket, dket=None, site=None, op=None, fold=None):
    """<psi|psi>, or <psi| op at site |psi>, of the (l1, l2, a, b, g, l, j) site tensors ket.

    site is an (x, y) tuple inside the lattice and op, which needs a site, an
    exactly Hermitian d x d matrix (op == op^dagger entry by entry), else
    ValueError before anything is built. With dket, the derivative tensors of
    every site, returns (value, sweep): sweep[x, y] is the value with the
    ket-layer tensor of site (x, y) replaced by dket[x, y].

    fold, which needs dket, site and op, refolds the op inside the same ring
    pass: fold(z, N) is called with the real values z = <psi|psi> and
    N = <psi| op |psi> and returns real numbers (a, b), else ValueError; the
    value and sweep returned are then those of the op a op + b 1. The whole
    call makes one ring of products, as a plain sweep does, on real transfer
    matrices.
    """
    if fold is not None and (dket is None or site is None):
        raise ValueError("fold needs dket, a site and an op")
    if op is not None and site is None:
        raise ValueError("op needs a site")
    ket = np.asarray(ket, dtype=complex)
    (l1, l2), D, d = ket.shape[:2], ket.shape[2], ket.shape[-1]
    c = 0
    if site is not None:
        x, y = site
        if not (isinstance(x, (int, np.integer)) and isinstance(y, (int, np.integer))
                and 0 <= x < l1 and 0 <= y < l2):
            raise ValueError(f"site {site} is not a site of the {l1} x {l2} lattice")
        if np.shape(op) != (d, d):
            raise ValueError(f"op must be {d} x {d}, got shape {np.shape(op)}")
        op = np.asarray(op, dtype=complex)
        if not np.array_equal(op, op.conj().T):
            raise ValueError("op must be exactly Hermitian: op == op^dagger entry by entry")
        c, row = (x, y) if _transposed(ket) else (y, x)
    # the ring's transfer matrices are float64, half the bytes of the complex128 ket
    _check_ring(ket, dket, D ** (4 * min(l1, l2)) * ket.itemsize // 2,
                (max(l1, l2) + 4) * (D * D * d) ** min(l1, l2) * ket.itemsize)
    kets = [_ket_column(col) for col in _orient(ket)]
    bras = list(kets)
    if site is not None:
        # <psi| op = (op |psi>)^dagger: op joins the bra column that holds its site
        bras[c] = _on_row(op, kets[c], row)
    replace_first = None
    if fold is not None:
        # the op column's plain transfer matrix, built before the ring's products and
        # popped when used, so that the sweep does not hold it
        plains = [_double_column(kets[c], kets[c])]

        def replace_first(t_op, env):
            # z and N from the op column's environment; T_op and the op's own bra then
            # become those of the op a op + b 1, in place
            plain = plains.pop()
            a, b = fold(replace_value(plain, env).real, replace_value(t_op, env).real)
            if np.imag(a) or np.imag(b):
                raise ValueError(f"fold must return real (a, b), got ({a}, {b})")
            a, b = float(np.real(a)), float(np.real(b))
            bras[c] *= a
            bras[c] += b * kets[c]
            t_op *= a
            t_op += b * plain
            return t_op
    out = _ring(list(map(_double_column, kets, bras)), ket, dket, bras, c, replace_first)
    # a real ring's value has an imaginary part of exactly 0
    return out.real if dket is None else (out[0].real, out[1])


def overlap(ket, phi, dket=None):
    """<phi|psi> of the (l1, l2, a, b, g, l, j) site tensors ket and a product state phi.

    phi has shape (l1, l2, j), else ValueError naming its shape before anything
    is built. The value is the `contract` of the single-layer grid
    `site_single_tensor(ket, phi)`; with dket, the derivative tensors of every
    site, it returns (value, sweep) as `bra_ket` does, against the grid of dket.
    """
    shape = (*ket.shape[:2], ket.shape[-1])
    if np.shape(phi) != shape:
        raise ValueError(f"phi must have shape {shape}, got {np.shape(phi)}")
    _check_sweep(ket, dket)
    dgrid = None if dket is None else site_single_tensor(dket, phi)
    return contract(site_single_tensor(ket, phi), dgrid)


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
        # acc[L, P, R] over the columns so far
        acc = cols[0].transpose(0, 2, 1)
        for c in cols[1:]:
            na, nJ, _ = acc.shape
            _, nr, nj = c.shape
            acc = np.einsum("aJb,bcj->aJjc", acc, c).reshape(na, nJ * nj, nr)
        return acc

    half = (len(columns) + 1) // 2
    psi = np.tensordot(chain(columns[:half]), chain(columns[half:]), axes=[(0, 2), (2, 0)])
    # the legs run in (column, row) order; map them back to row-major sites
    legs = np.arange(l1 * l2).reshape(len(columns), -1)
    perm = (legs if l1 > l2 else legs.T).reshape(-1)
    return np.ascontiguousarray(psi.reshape((d,) * (l1 * l2)).transpose(perm))
