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
product is read as an elementwise sum, trace(A B) = sum A * B^T. A sweep
builds each column's rows at once, as a chunk with row r's column at sample
r, and sums each against the column's sweep tensor alone.

Each ring call writes its large arrays into one workspace of its own: the
products, the elementwise products of its traces and, for `bra_ket`, the
double-layer columns and the temporaries of `_double_column` and
`_sweep_tensor`. Regions are reused once they are dead: the suffixes and
prefixes of a sweep take 2k - 4 matrices, and the value's elementwise
product and then each middle environment go over spent columns; a value ring
takes turns between two products; a double column's temporary sits over
products not formed yet and a sweep tensor's over two spent columns. A fused
pass of k >= 3 columns thus holds 3k - 3 matrices, a sweep 3k - 4 and a
value ring k + 2. The workspace lives for one call only;
as its size repeats from call to call, the allocator hands back the same
pages instead of faulting in fresh ones for every product.

`bra_ket` can also refold its op within that one ring (the normalized local
gradient sweeps O' = (O - (N/z) 1) / z). The ring then starts at the op
column, whose environment E is the first suffix product. z and N are read
from E with that column's plain and op transfer matrices, and the caller's
fold(z, N) gives the op to put in its place, as a combination of the op and
the identity, before the prefix products are formed. So the pass builds
k + 1 double-layer columns and forms the products of one sweep.

Below the entry points every array leads with one sample axis: one state is
a chunk of one. The entry points check the caller's shapes, add that axis
once, and return Python numbers for one state. Only the value path of
`bra_ket` (no derivative tensors) takes a chunk, (n, l1, l2, a, b, g, l, j):
one value per sample, each equal to that sample's value alone to the bit.

`site_double_tensor` builds the double-layer networks site by site. No
library code calls it: the tests build with it the networks that `contract`
checks `bra_ket` against, and the benchmark's span tracer wraps it.

Contraction is always performed along the shorter lattice side (the grid is
transposed if needed), which keeps the transfer matrices at chi^(2*min(l1,l2))
entries for bond extent chi. A ring's transfer matrices, ket columns,
single-layer grids and environments are kept within `NETWORK_BUDGET` bytes.
"""

import math
import operator

import numpy as np

from .errors import ResourceLimitError, gib, is_integer

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

    `tensors` lists the column's 4-leg site tensors (n, a, b, g, l) of n samples in
    vertical order (at least two); leg g of each site is contracted with leg a of
    the next, cyclically. Each sample's column is contracted by the same products.
    """
    cur = tensors[0]
    n, na = cur.shape[:2]
    for t in tensors[1:-1]:
        nB, ng, nL = cur.shape[2:]
        nb, nh, nl = t.shape[2:]
        # (a, B, L, g) x (g, (b, h, l)) -> (a, B, L, b, h, l) -> (a, Bb, h, Ll)
        cur = cur.swapaxes(3, 4).reshape(n, na * nB * nL, ng) @ t.reshape(n, ng, -1)
        cur = cur.reshape(n, na, nB, nL, nb, nh, nl).transpose(0, 1, 2, 4, 5, 3, 6).reshape(
            n, na, nB * nb, nh, nL * nl)
    t = tensors[-1]
    nB, ng, nL = cur.shape[2:]
    nb, nl = t.shape[2], t.shape[4]
    # ((B, L), (a, g)) x ((h, g), (b, l)) -> (B, L, b, l), with h = a closing the ring
    out = (cur.transpose(0, 2, 4, 1, 3).reshape(n, nB * nL, na * ng)
           @ t.transpose(0, 3, 1, 2, 4).reshape(n, na * ng, nb * nl))
    return out.reshape(n, nB, nL, nb, nl).swapaxes(2, 3).reshape(n, nB * nb, nL * nl)


# bytes of numpy's buffers that one ring call holds whatever the size of its chunk: a ufunc
# over strided operands, such as the reordering sum of `_double_column`, buffers two of them
# in np.getbufsize() = 8192 entries of float64, about 0.13 MB with their iterator
BUFFER_BYTES = 2**17 + 2**12


def _refusal(shape, amount):
    """The ResourceLimitError of an (n, l1, l2, ...) chunk of rings that needs amount GiB."""
    n_rings, *lattice = shape[:3]
    n_cols, n_rows = max(lattice), min(lattice)
    rings = (f"a ring of {n_cols} columns of {n_rows} sites needs" if n_rings == 1
             else f"{n_rings} rings of {n_cols} columns of {n_rows} sites need")
    return ResourceLimitError(f"{rings} {amount} GiB, above the network budget "
                              f"of {gib(NETWORK_BUDGET)} GiB")


def _check_rows(shape, floor):
    """ResourceLimitError, before any transfer matrix is counted, when an (n, l1, l2, ...)
    chunk of rings has more than 2**15 rows: more than 2**30 sites put floor, the bytes of
    their site tensors or grids, past the budget, and the transfer matrices of so many rows
    would have too many digits to count."""
    if min(shape[1:3]) > 2**15:
        raise _refusal(shape, f"more than {gib(floor)}")


def _check_ring(shape, transfer_bytes, other_bytes, sweep):
    """Raise, before anything is built, when the rings of an (n, l1, l2, ...) chunk of
    site tensors cannot or may not be contracted; else return their charge.

    ValueError when a column has fewer than two sites (`column_transfer` would
    contract a lone site with itself). ResourceLimitError when the rings would exceed
    NETWORK_BUDGET bytes: BUFFER_BYTES once, and per ring its transfer matrices, a
    value's or, with sweep, a sweep's, of transfer_bytes each, each with 256 bytes of
    array header and views, and the other_bytes that the entry point holds besides
    them. The counts follow what tracemalloc shows the rings to hold at once (k = n_cols):
    - a value ring holds k + 2: its k columns and the two products it takes turns
      between (see `ring_value`), which a `_double_column` temporary uses first;
    - a sweep is charged 4 k - 4: the workspace of a fused `bra_ket` pass, the largest,
      holds 3 k - 3 transfer matrices (see the module docstring), and the other k - 1
      cover the copy of each environment that a `contract` sweep sums against;
    - `bra_ket` is also charged k + 4 ket columns: the k columns, the op column's bra
      and two more, for the [bra, i bra] stack of `_double_column` or for a sweep
      tensor with its imaginary part; a sweep 2 n + 1 more (n = n_rows), for the
      rebuild of a column's rows: a chunk of n ket columns, its transposed copy and
      the site tensors it is built from;
    - `contract` is also charged four grids' worth: the grid and, for `overlap`, the
      derivative grid and the temporaries of `site_single_tensor` (the product state
      cast to complex and the einsum's working memory); a sweep 3 n transfer matrices
      more, for the rebuild of a column's rows: the chunk, its reordered copy and its
      last partial product.
    A chunk is charged that much per sample. Over k = 3, 4, 5, 8 and 12 on lattices of 2
    to 4 rows (D = 2; d = 2 and 17), the charge is 1.03-1.71 times the traced peak of a
    value ring, 1.25-1.62 times that of a fused pass and 1.32-1.87 times that of a plain
    sweep; `contract` rings of bond D, which buffer less, read 2.3-17 times.
    """
    n_rings, *lattice = shape[:3]
    n_cols, n_rows = max(lattice), min(lattice)
    if n_rows < 2:
        raise ValueError("network columns need two sites: lattice sides must be >= 2")
    n_transfers = 4 * n_cols - 4 if sweep else n_cols + 2
    need = BUFFER_BYTES + n_rings * (n_transfers * (transfer_bytes + 256) + other_bytes)
    if need > NETWORK_BUDGET:
        raise _refusal(shape, f"about {gib(need)}")
    return need


def _check_sweep(shape, dgrid):
    """ValueError unless dgrid, the derivative tensors of a sweep, is None or has this shape."""
    if dgrid is not None and np.shape(dgrid) != shape:
        raise ValueError(f"derivative tensors of shape {np.shape(dgrid)} for site tensors "
                         f"of shape {shape}")


def ring_value(columns, work):
    """Trace of the product of column transfer matrices around a ring of at least two columns.

    The last product is not formed: the trace is `replace_value` of the last
    column against the product of the others, k - 2 products in all. They are
    written by turns into work[0] and work[1], matrices of the columns' shape
    and dtype, and the trace's elementwise product into the one that does not
    hold the last product.
    """
    product = columns[0]
    for i, column in enumerate(columns[1:-1]):
        product = np.matmul(product, column, out=work[i % 2])
    return replace_value(columns[-1], product, work[len(columns) % 2])


def ring_environments(columns, work, replace_first=None):
    """Ring value and per-column ring environments of a ring of at least two columns.

    Returns (value, envs) where envs[y] is the matrix E such that replacing
    column y by T' gives ring value sum_ab T'[a, b] E[b, a]; i.e. E is the
    product of the other columns in ring order starting after y. Only the
    products that are returned get formed: the suffixes T(y+1)...T(k-1)
    (k - 2 products), the prefixes T0...Ty of the first k - 1 columns (k - 2)
    and the environments of the middle columns (k - 2). The suffixes and
    prefixes are written into work, a stack of at least max(2 k - 4, 1)
    matrices of the columns' shape and dtype, and each middle environment
    over its own column, which no product reads once the value is taken. The
    value is taken as `ring_value` takes it, over column 1, which no product
    reads once the prefixes are formed, or in a ring of two columns, which
    reads both, over work[0].

    No suffix holds column 0, so its environment is known before any prefix
    is formed. With replace_first, a function of column 0, that environment
    and a matrix it may overwrite (the first prefix slot) that returns a new
    column 0, the prefixes, the other environments and the value are those
    of the ring with the new column in place.
    """
    k = len(columns)
    tail = [columns[-1]]  # tail[y] = T(y+1)...T(k-1), built from the right
    for y in range(k - 3, -1, -1):
        tail.insert(0, np.matmul(columns[y + 1], tail[0], out=work[y]))
    if replace_first is not None:
        columns = [replace_first(columns[0], tail[0], work[k - 2]), *columns[1:]]
    head = [columns[0]]  # head[y] = T0...Ty
    for y in range(1, k - 1):
        head.append(np.matmul(head[-1], columns[y], out=work[k - 3 + y]))
    value = replace_value(columns[-1], head[-1], columns[1] if k > 2 else work[0])
    middle = [np.matmul(tail[y], head[y - 1], out=columns[y]) for y in range(1, k - 1)]
    return value, [tail[0], *middle, head[-1]]


def replace_value(replacement, env, work):
    """Ring value with one column replaced, given that column's environment.

    trace(replacement @ env), as the sum of replacement * env^T, with the
    elementwise product written into work, a matrix of their shape and dtype:
    no product is formed. One value per sample.
    """
    return np.multiply(replacement, env.swapaxes(-1, -2), out=work).sum(axis=(-2, -1))


def _transposed(lattice):
    """Whether a lattice of sides lattice[:2] is contracted along its first side."""
    return lattice[0] > lattice[1]


def _orient(grid):
    """Oriented [column, row] view of an (n, l1, l2, ...) chunk of 4- or 5-leg site tensors,
    whose entries keep the sample axis in front of their legs.

    Columns run along the shorter side: column c, row r holds site (r, c), or
    site (c, r) when l1 > l2. In the second case the grid is transposed and
    each tensor's (a, b) and (g, l) legs swap roles.
    """
    if not _transposed(grid.shape[1:]):
        return grid.transpose(2, 1, 0, *range(3, grid.ndim))
    return grid.transpose(1, 2, 0, 4, 3, 6, 5, *range(7, grid.ndim))


def _ket_column(ts):
    """Ket column K[L, R, P] of one oriented column of 5-leg site tensors (a, b, g, l, j).

    L and R combine the sites' left (b) and right (l) bonds and P their
    physical legs, each in row order. Each physical leg is folded onto the
    right bond, so one `column_transfer` contracts the column. The sample axis of
    the site tensors leads the column too.
    """
    n = len(ts)
    ns, na, nb, ng, nl, d = ts[0].shape
    # fold each physical leg onto the right bond: (a, b, g, (l, j)) is a view
    m = column_transfer([t.reshape(ns, na, nb, ng, nl * d) for t in ts])
    # split the right index (l0, j0, l1, j1, ...) into [right, phys]
    m = m.reshape(ns, nb**n, *(nl, d) * n)
    m = m.transpose(0, 1, *range(2, 2 * n + 2, 2), *range(3, 2 * n + 2, 2))
    return m.reshape(ns, nb**n, nl**n, d**n)


def _on_row(op, column, row):
    """op applied to the physical leg of `row` of [..., L, R, P] column tensors."""
    d = op.shape[0]
    return (op @ column.reshape(-1, d, column.shape[-1] // d ** (row + 1))).reshape(column.shape)


# times a column tensor: the stack [column, i column]
_ONE_I = np.array([1, 1j]).reshape(2, 1, 1, 1)


def _parts(col):
    """Real view [n, (..., L, R), (P, re/im)] of C-contiguous complex128 [n, ..., L, R, P]
    column tensors."""
    return col.view(np.float64).reshape(len(col), -1, 2 * col.shape[-1])


def _double_column(ket_col, bra_col, out, work):
    """Double-layer transfer matrix of a ket column against a bra column with its bonds,
    written into out, an (n, L L', R R') float64 matrix; work is a float64 block of two
    such matrices that it overwrites.

    T[(L, L'), (R, R')] = sum_P ket[L, R, P] conj(bra[L', R', P]) is swap-symmetric, as the
    bra is the ket or a Hermitian op of it, and the matrix is the real
    M = U T U^dagger = Re T + Im T^R in the Hermitian basis of both pair legs (see the module
    docstring). Re T and Im T are real products over the parts of P, with rows (L, R) and
    columns (L', R'): no complex T is formed. The sample axis of the columns leads T.
    """
    n, nl, nr, _ = ket_col.shape
    # [bra, i bra]: i bra has the parts (-bi, br), so one real product over the parts of P
    # gives re = sum kr br + ki bi and im = sum ki br - kr bi, at [L, R, (re, im), L', R']
    bras = _ONE_I * bra_col[:, None]
    t = np.matmul(_parts(ket_col), _parts(bras).swapaxes(1, 2),
                  out=work.reshape(n, nl * nr, 2 * nl * nr)).reshape(n, nl, nr, 2, nl, nr)
    re, im = t[:, :, :, 0], t[:, :, :, 1]
    # as [L, L', R, R'] arrays, T is re + i im with axes (L, L', R, R') and T^R (L, L', R', R)
    np.add(re.swapaxes(2, 3), im.swapaxes(2, 3).swapaxes(3, 4), out=out.reshape(n, nl, nl, nr, nr))
    return out


def _sweep_tensor(bra_col, env, pair):
    """G[L, R, P] = sum conj(bra[L', R', P]) E[(R, R'), (L, L')]: replacing the column's
    ket side by K' gives the ring value sum K' G.

    env is the column's ring environment in the Hermitian basis, and E is env taken back
    to the plain basis, E = U^dagger env U = (e + e^RL) / 2 + i (e^L - e^R) / 2, with
    e = env and e^RL, e^L and e^R the matrices with both pairs, the (L, L') pair and the
    (R, R') pair swapped. That step writes E as a matrix Y[(L, R), (L', R')]; the real
    and imaginary parts of Y each multiply the real view of the bra, and the two products
    are combined into G = Y conj(B) in place. All three lead with the sample axis; Y's
    parts are written into pair, two float64 matrices of env's shape.
    """
    n, nl, nr, n_p = bra_col.shape
    # e[L, R, L', R'] = env[(R, R'), (L, L')]
    e = env.reshape(n, nr, nr, nl, nl).transpose(0, 3, 1, 4, 2)
    # 2 E = (e + e^RL) + i (e^L - e^R), each term at [L, R, L', R']
    y = [m.reshape(n, nl * nr, nl * nr) for m in pair]
    np.add(e, e.transpose(0, 3, 4, 1, 2), out=y[0].reshape(e.shape))
    np.subtract(e.transpose(0, 3, 2, 1, 4), e.transpose(0, 1, 4, 3, 2), out=y[1].reshape(e.shape))
    b = _parts(bra_col)
    # (Y_re + i Y_im) conj(B): Re G = Y_re br + Y_im bi, Im G = Y_im br - Y_re bi
    g, gi = (y[0] @ b).reshape(n, -1, n_p, 2), (y[1] @ b).reshape(n, -1, n_p, 2)
    g[..., 0] += gi[..., 1]
    np.subtract(gi[..., 0], g[..., 1], out=g[..., 1])
    g *= 0.5
    return g.view(bra_col.dtype).reshape(n, nl, nr, n_p)


def _n_products(k, sweep):
    """Matrices of room for the products of a ring of k columns: 2 k - 4 for a sweep (see
    `ring_environments`) and two for a value (`ring_value` takes turns between them), and
    never fewer than two, the room of a `_double_column` temporary."""
    return max(2 * k - 4, 2) if sweep else 2


def _ring(transfers, work, grid, dgrid=None, bras=None, first=0, replace_first=None):
    """Ring values of the transfer matrices of the oriented columns of grid, an (n, l1, l2,
    ...) chunk, in column order and multiplied from column `first` on; with dgrid, (value,
    sweep), where grid and dgrid are chunks of one.

    They are the `column_transfer` of grid's 4-leg site tensors, or, given `bras`, the
    `_double_column` of the ket columns of its 5-leg ones against bras. dgrid holds every
    site's derivative tensor, and the sweep entry of column c, row r is sum T' E^T, or sum
    K' G with G = `_sweep_tensor` of bras[c] and E, where E is the column's ring
    environment (replace_first is passed on to `ring_environments`) and T' and K' are the
    column's transfer matrix and ket column with row r's tensor replaced by its derivative.

    work is a stack of `_n_products` matrices of the transfer matrices' shape and dtype,
    where the ring writes its products; a sweep also overwrites the transfer matrices. Each
    sweep tensor writes its pair of temporaries over the first and last transfer matrix,
    which no environment holds, or in a ring of two columns, whose environments are its
    columns, over work[0] and work[1], which hold no product.
    """
    transfers = transfers[first:] + transfers[:first]
    if dgrid is None:
        return ring_value(transfers, work)
    value, envs = ring_environments(transfers, work, replace_first)
    pair = work[:2] if len(transfers) == 2 else (transfers[0], transfers[-1])
    envs = dict(zip([*range(first, len(envs)), *range(first)], envs))
    build = column_transfer if bras is None else _ket_column
    columns, dcolumns = _orient(grid), _orient(dgrid)
    sweep = np.array([
        _column_sweep(build, columns[c], dcolumns[c],
                      envs.pop(c).swapaxes(1, 2) if bras is None
                      else _sweep_tensor(bras[c], envs.pop(c), pair))
        for c in range(len(columns))])
    # column c, row r is site (c, r) of a transposed grid, else site (r, c)
    return value, np.ascontiguousarray(sweep if _transposed(grid.shape[1:]) else sweep.T)


def _column_sweep(build, ts, dts, g):
    """sum build(ts') * g for each row of a column, where ts' is its site tensors ts with that
    row's tensor replaced by its derivative in dts.

    ts and dts are chunks of one; one build makes every row's ts' at once, as a chunk with
    row r's ts' at sample r, and each is then summed against g alone.
    """
    stack = [np.repeat(t, len(ts), axis=0) for t in ts]
    for r, s in enumerate(stack):
        s[r] = dts[r][0]
    g = g.reshape(-1)
    return [m.reshape(-1) @ g for m in build(stack)]


def contract(grid, dgrid=None):
    """Ring value of an (l1, l2, a, b, g, l) grid of 4-leg site tensors.

    With dgrid, the derivative tensors of every site, returns (value, sweep):
    sweep[x, y] is the value with the tensor of site (x, y) replaced by
    dgrid[x, y]. Raises as `_check_sweep` and `check_contract` do, before anything is built.
    """
    _check_sweep(grid.shape, dgrid)
    check_contract(grid.shape, grid.itemsize, dgrid is not None)
    grid, dgrid = grid[None], None if dgrid is None else dgrid[None]
    transfers = [column_transfer(ts) for ts in _orient(grid)]
    work = np.empty((_n_products(len(transfers), dgrid is not None), *transfers[0].shape),
                    transfers[0].dtype)
    out = _ring(transfers, work, grid, dgrid)
    return complex(out[0]) if dgrid is None else (complex(out[0][0]), out[1])


def check_contract(shape, itemsize, sweep=False):
    """Raise as `contract` does, before anything is built, for an (l1, l2, a, b, g, l) grid of
    this shape and itemsize, with derivative tensors when sweep; else return the bytes that
    its ring is charged against NETWORK_BUDGET (see `_check_ring`)."""
    shape = tuple(map(operator.index, shape))  # Python ints, whose products cannot overflow
    grids = 4 * math.prod(shape) * itemsize
    _check_rows((1, *shape), grids)
    n_rows = min(shape[:2])
    # the column's left and right legs, which swap with (a, g) when `_orient` transposes
    n_b, n_l = shape[2:6:2] if _transposed(shape) else shape[3:6:2]
    transfer_bytes = (n_b * n_l) ** n_rows * itemsize
    # a sweep also holds 3 n_rows transfer matrices' worth (see `_check_ring`)
    rebuilt = 3 * n_rows * transfer_bytes if sweep else 0
    return _check_ring((1, *shape), transfer_bytes, grids + rebuilt, sweep)


def check_bra_ket(shape, dket=None):
    """Raise as `bra_ket` does, before anything is built, for site tensors of this shape,
    one state's (l1, l2, a, b, g, l, j) or a chunk's (n, l1, l2, ...), and derivative
    tensors dket; else return the bytes that its rings are charged against NETWORK_BUDGET
    (see `_check_ring`)."""
    _check_sweep(shape, dket)
    shape = tuple(map(operator.index, shape))
    shape = (1, *shape) if len(shape) == 7 else shape
    _check_rows(shape, math.prod(shape) * 16)
    _, l1, l2, D = shape[:4]
    n, d = min(l1, l2), shape[-1]
    # a sweep also holds 2 n + 1 ket columns' worth for a column's rebuilt rows (see
    # `_check_ring`)
    n_kets = max(l1, l2) + 4 + (0 if dket is None else 2 * n + 1)
    # the ring's transfer matrices are float64, half the bytes of the complex128 ket
    return _check_ring(shape, D ** (4 * n) * 8, n_kets * (D * D * d) ** n * 16, dket is not None)


def bra_ket(ket, dket=None, site=None, op=None, fold=None):
    """<psi|psi>, or <psi| op at site |psi>, of the (l1, l2, a, b, g, l, j) site tensors ket.

    site is two integers (x, y) inside the lattice and op, which needs a site,
    an exactly Hermitian d x d matrix (op == op^dagger entry by entry), else
    ValueError before anything is built. The value is a float. With dket, the
    derivative tensors of every site, returns (value, sweep): sweep[x, y] is the
    value with the ket-layer tensor of site (x, y) replaced by dket[x, y].

    Without dket, ket may be a chunk of n states, (n, l1, l2, a, b, g, l, j); the
    value is then an array of one value per sample, each equal to the value of
    that sample's site tensors alone.

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
    if ket.ndim not in (7, 8):
        raise ValueError(f"site tensors have 7 axes, or 8 for a chunk, got shape {ket.shape}")
    one = ket.ndim == 7
    if not one and dket is not None:
        raise ValueError(f"a sweep takes one state's site tensors, got shape {ket.shape}")
    (l1, l2), d = ket.shape[-7:-5], ket.shape[-1]
    c = 0
    if site is not None:
        if not (isinstance(site, (tuple, list, np.ndarray)) and len(site) == 2
                and all(is_integer(i) for i in site)
                and 0 <= site[0] < l1 and 0 <= site[1] < l2):
            raise ValueError(f"site {site} is not a site of the {l1} x {l2} lattice")
        if np.shape(op) != (d, d):
            raise ValueError(f"op must be {d} x {d}, got shape {np.shape(op)}")
        op = np.asarray(op, dtype=complex)
        if not np.array_equal(op, op.conj().T):
            raise ValueError("op must be exactly Hermitian: op == op^dagger entry by entry")
        c, row = site if _transposed((l1, l2)) else site[::-1]
    check_bra_ket(ket.shape, dket)
    if one:
        ket, dket = ket[None], None if dket is None else dket[None]
    kets = [_ket_column(col) for col in _orient(ket)]
    bras = list(kets)
    if site is not None:
        # <psi| op = (op |psi>)^dagger: op joins the bra column that holds its site
        bras[c] = _on_row(op, kets[c], row)
    # the ring's one float64 block: its products, then its transfer matrices and, with fold,
    # the op column's plain one; each `_double_column` temporary goes over the first two
    # product slots, as no product is formed before the columns are built
    k, (n, nl) = len(kets), kets[0].shape[:2]
    n_products = _n_products(k, dket is not None)
    work = np.empty((n_products + k + (fold is not None), n, nl * nl, nl * nl))
    products, slots, temp = work[:n_products], work[n_products:], work[:2]
    replace_first = None
    if fold is not None:
        plain = _double_column(kets[c], kets[c], slots[k], temp)

        def replace_first(t_op, env, scratch):
            # z and N from the op column's environment; T_op and the op's own bra then
            # become those of the op a op + b 1, in place
            a, b = fold(*(float(replace_value(t, env, scratch)[0].real) for t in (plain, t_op)))
            if np.imag(a) or np.imag(b):
                raise ValueError(f"fold must return real (a, b), got ({a}, {b})")
            a, b = float(np.real(a)), float(np.real(b))
            bras[c] *= a
            bras[c] += b * kets[c]
            t_op *= a
            t_op += np.multiply(plain, b, out=plain)
            return t_op
    transfers = [_double_column(kt, br, t, temp) for kt, br, t in zip(kets, bras, slots)]
    out = _ring(transfers, products, ket, dket, bras, c, replace_first)
    # a real ring's value has an imaginary part of exactly 0
    if dket is not None:
        return float(out[0][0].real), out[1]
    return float(out[0].real) if one else out.real


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
    _check_sweep(ket.shape, dket)
    dgrid = None if dket is None else site_single_tensor(dket, phi)
    return contract(site_single_tensor(ket, phi), dgrid)
