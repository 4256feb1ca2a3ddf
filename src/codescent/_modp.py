"""Exact linear algebra over the prime field F_p on numpy integer arrays.

All matrices are ``numpy.int64`` arrays with entries in ``[0, p)``
(:func:`normalize` takes integer entries only).  A ``(m, n)`` matrix is a
linear map ``F_p^n -> F_p^m`` on column vectors.  Everything is exact.

Products (:func:`matmul`) may run in floating point, as in Dumas, Giorgi
and Pernet, "Dense linear algebra over word-size prime fields: the FFLAS
and FFPACK packages" (ACM TOMS 35(3), 2008): with entries in ``[0, p)``
each term of an inner product is an integer at most ``(p-1)^2``, so a sum
of ``s`` terms is exact in a float type as long as ``s * (p-1)^2`` stays
below its mantissa bound (``2^24`` for float32, ``2^53`` for float64),
whatever order the BLAS sums in.  Longer inner dimensions are summed in
blocks reduced mod p one by one.  This needs ``(p-1)^2 < 2^53``, so the
package supports primes up to :data:`MAX_P` (the largest such prime is
94,906,249); :func:`matmul` raises ``ValueError`` for a larger p.

:func:`rank` eliminates by row panels, after the same paper: a panel A1 of
:data:`PANEL` rows over the rest A2 is reduced by :func:`rref` to E with
pivot columns ``piv``, and A2 becomes S = A2 - A2[:, piv] E by one
:func:`matmul`.  Since E[:, piv] = I and S[:, piv] = 0, rank(A) =
rank(E) + rank(S), and S is reduced the same way.  So the rank is exact
because the product is.

Below a size the same paper switches to a base case, and so do
:func:`rref` and :func:`rank`: a matrix of at most :data:`SMALL` entries
(panels of :func:`rank` included, through :func:`rref`) is reduced on
lists of Python ints by :func:`_small_rref`.  That route is exact because
Python ints do not overflow, and its result is the numpy route's, since
the reduced form of a row space is unique.  On tiny matrices the numpy
loop pays about ten numpy calls per pivot, which costs more than the
arithmetic.  SMALL was set from ``rref`` timings of random matrices on
both routes (2 vCPU x86-64, numpy 2.4, minimum of 5 runs): over F_3 the
routes cost the same near 200 entries on dense matrices (dense 16 x 16:
numpy 216 us, Python 288 us), and at 30% nonzeros near 400 (16 x 16: 188
against 166 us; at 10% nonzeros 102 against 48 us).  Dense matrices at p
= 94906249 cross over lower, near 64 entries, but differentials are
sparse.  The ``rank`` calls of one pass of the ``campaign_small``
benchmark, replayed at SMALL from 192 to 512, took the same time, 41-42
ms (112 ms on the numpy route alone).

Reductions mod p cost more per entry than the arithmetic, so large ones
go through :func:`reduce`, ``x - (x // p) * p`` on int64: numpy divides an
array by a scalar with a multiplication and shifts, where ``np.mod`` issues
a hardware division per entry.  Float products are cast to int64 (exact:
they are integers below the mantissa bound) and reduced the same way, not
by ``np.fmod``, which calls libm once per entry.  :func:`normalize` keeps
``np.mod``: uint64 entries above 2^63 must be reduced before the cast.
"""

from __future__ import annotations

import math

import numpy as np

# Every integer of absolute value at most these is exact in float32 / float64.
F32_EXACT = 2 ** 24 - 1
F64_EXACT = 2 ** 53 - 1
# Largest p with (p-1)^2 <= F64_EXACT, the bound for exact products.
MAX_P = math.isqrt(F64_EXACT) + 1
# Rows per panel of :func:`rank`: one ``rref`` and one Schur product each.
PANEL = 64
# Entries up to which :func:`rref` and :func:`rank` reduce on Python ints
# (:func:`_small_rref`); the module docstring gives the measurements.
SMALL = 256
# Entries from which :func:`reduce` pays for its two extra ufunc calls: both
# routes cost the same near 1536 int64 entries (x86-64, numpy 2.4).
REDUCE_MIN = 1536
# Entries per block of a large :func:`reduce` (256 KiB of int64).
REDUCE_BLOCK = 32768


def normalize(a, p: int) -> np.ndarray:
    """An int64 matrix with entries reduced mod p; entries that are not
    integers (floats, booleans, strings, objects) raise ``TypeError``."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d matrix, got ndim=%d" % arr.ndim)
    if arr.size and arr.dtype.kind not in "iu":
        raise TypeError("expected integer entries, got dtype %s" % arr.dtype)
    return np.mod(arr, int(p)).astype(np.int64, copy=False)


def reduce(x: np.ndarray, p: int, out=None) -> np.ndarray:
    """``np.mod(x, p, out=out)`` for an int64 array ``x``, computed as
    ``x - (x // p) * p`` from :data:`REDUCE_MIN` entries on, where that is
    faster (half the time or less on large arrays).  Past
    :data:`REDUCE_BLOCK` entries it runs over blocks of leading rows, so its
    buffer for ``(x // p) * p`` holds one block (or one row), never a second
    copy of a large ``x``.  A step may wrap in int64, but the result lies in
    ``[0, p)``, so it is exact."""
    if x.size < REDUCE_MIN:
        return np.mod(x, p, out=out)
    rows = max(1, REDUCE_BLOCK * len(x) // x.size)
    if rows < len(x):
        if out is None:
            out = np.empty_like(x)
        for lo in range(0, len(x), rows):
            reduce(x[lo:lo + rows], p, out=out[lo:lo + rows])
        return out
    q = np.floor_divide(x, p)
    q *= p
    return np.subtract(x, q, out=q if out is None else out)


def zeros(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``a @ b`` mod p for entries in ``[0, p)``, exact for every p <= MAX_P.

    The arithmetic is picked from p and the shapes: small products stay in
    int64 (exact since n <= 1024 and (p-1)^2 < 2^53 give n * (p-1)^2 <
    2^63); the rest run as float32 BLAS when n * (p-1)^2 fits its mantissa
    and as blocked float64 BLAS otherwise.
    """
    m, n = a.shape
    k = b.shape[1]
    if n != b.shape[0]:
        raise ValueError("shape mismatch %s x %s" % (a.shape, b.shape))
    if p > MAX_P:
        raise ValueError("p=%d is above %d, the bound for exact products" % (p, MAX_P))
    # On small products the float route costs more than it saves.
    if n <= 1024 and m * n * k <= 16384:
        c = a @ b
        return reduce(c, p, out=c)
    q = (int(p) - 1) ** 2
    # float32 halves the float copies: float64 alone measured 11% more peak
    # RSS and 22% more wall time on funnel_deep (BENCH_2.json).
    if n * q <= F32_EXACT:
        return _float_product(a, b, p, np.float32, n)
    return _float_product(a, b, p, np.float64, F64_EXACT // q)


def _float_product(a: np.ndarray, b: np.ndarray, p: int, dtype, step: int) -> np.ndarray:
    """``a @ b`` mod p in ``dtype``, summing the inner dimension in blocks of
    ``step``; exact when ``step * (p-1)^2`` is an exact integer of ``dtype``.
    Each block is cast to int64 and reduced; their sum stays below n * p."""
    af, bf = a.astype(dtype), b.astype(dtype)
    n = a.shape[1]
    if n <= step:
        c = (af @ bf).astype(np.int64)
    else:
        c = zeros(a.shape[0], b.shape[1])
        for lo in range(0, n, step):
            c += reduce((af[:, lo:lo + step] @ bf[lo:lo + step]).astype(np.int64), p)
    return reduce(c, p, out=c)


def rref(a: np.ndarray, p: int):
    """Reduced row echelon form.

    Returns ``(r, pivots)`` where ``r`` is the reduced matrix and
    ``pivots`` the list of pivot column indices.  Entry dtype stays int64;
    pivots are normalized to 1.  The entries are reduced once on entry by
    ``np.mod``, which makes a copy of ``a`` anyway.  A matrix of at most
    :data:`SMALL` entries is reduced on Python ints by :func:`_small_rref`.
    Otherwise each pivot clears its column in one vectorised step over the
    rows with a nonzero there, on the columns from the pivot on (the
    columns before it are zero in the pivot row), and the updated block is
    reduced by :func:`reduce`.  Both routes give the same matrix: the
    reduced form of a row space is unique.
    """
    m = np.mod(np.asarray(a, dtype=np.int64), p)
    if m.size <= SMALL:
        rows, pivots = _small_rref(m.tolist(), p)
        return np.array(rows, dtype=np.int64).reshape(m.shape), pivots
    nrows, ncols = m.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = m[row:, col].nonzero()[0]
        if not nz.size:
            continue
        if nz[0]:
            m[[row, row + nz[0]]] = m[[row + nz[0], row]]
        pivot = m[row, col:]
        if pivot[0] != 1:
            pivot *= pow(int(pivot[0]), -1, p)
            pivot %= p
        m[row, col] = 0  # leaves the pivot row out of the hits
        hits = m[:, col].nonzero()[0]
        m[row, col] = 1
        if hits.size:
            block = m[hits, col:]
            block -= block[:, :1] * pivot
            m[hits, col:] = reduce(block, p, out=block)
        pivots.append(col)
        row += 1
    return m, pivots


def _small_rref(rows: list[list[int]], p: int):
    """:func:`rref` of a list of rows of Python ints in ``[0, p)``, reduced
    in place; returns ``(rows, pivots)``.  Each pivot row is scaled to a
    leading 1, and every other row with a nonzero in the pivot column
    subtracts a multiple of it, on the columns from the pivot on."""
    pivots: list[int] = []
    ncols = len(rows[0]) if rows else 0
    row = 0
    for col in range(ncols):
        if row == len(rows):
            break
        for i in range(row, len(rows)):
            if rows[i][col]:
                break
        else:
            continue
        rows[row], rows[i] = rows[i], rows[row]
        head = rows[row]
        inv = pow(head[col], -1, p)
        if inv != 1:
            head[col:] = [v * inv % p for v in head[col:]]
        tail = head[col:]
        for other in rows:
            f = other[col]
            if f and other is not head:
                other[col:] = [(v - f * t) % p for v, t in zip(other[col:], tail)]
        pivots.append(col)
        row += 1
    return rows, pivots


def rank(a: np.ndarray, p: int) -> int:
    """Rank of ``a`` over F_p, by row panels of :data:`PANEL` rows.

    Write ``a`` as a panel A1 over the rows A2 below it.  ``rref`` reduces
    A1 to E with pivot columns ``piv``, and one :func:`matmul` turns A2
    into the Schur complement S = A2 - A2[:, piv] E.  The rows of E and S
    span the row space of ``a``, and E[:, piv] = I while S[:, piv] = 0, so
    the two row spaces meet only in 0 and rank(a) = rank(E) + rank(S); S is
    reduced the same way.  The result is exact because ``matmul`` is.  A
    matrix of at most :data:`SMALL` entries has the rank
    :func:`_small_rref` counts, without a panel: exact, because Python ints
    do not overflow.  A larger matrix without a nonzero entry has rank 0
    without any elimination.
    """
    a = np.asarray(a, dtype=np.int64)
    if a.size <= SMALL:
        return len(_small_rref(np.mod(a, p).tolist(), p)[1])
    if not a.any():
        return 0
    return _panel_rank(a, p, PANEL)


def _panel_rank(a: np.ndarray, p: int, height: int) -> int:
    """The panel loop of :func:`rank`, with panels of ``height`` rows.

    Each panel is reduced on its nonzero columns only, and the Schur
    update touches only the rows below with a nonzero in a pivot column.
    ``a`` itself is never written.
    """
    total = 0
    work = a
    while work.shape[0]:
        panel, work = work[:height], work[height:]
        live = panel.any(axis=0).nonzero()[0]
        if live.size < panel.shape[1]:
            panel = panel[:, live]
        e, piv = rref(panel, p)
        total += len(piv)
        if piv and work.shape[0]:
            work = _schur_update(a, work, e[:len(piv)], live, live[piv], p)
    return total


def _schur_update(a, work, e, live, cols, p):
    """``work - work[:, cols] @ e`` mod p, where ``e`` holds the reduced
    panel's nonzero rows on the columns ``live`` and ``cols`` its pivot
    columns.  Rows without a nonzero in ``cols`` are not touched."""
    x = work[:, cols]
    reduce(x, p, out=x)
    hit = x.any(axis=1).nonzero()[0]
    if not hit.size:
        return work
    e_full = zeros(len(cols), work.shape[1])
    e_full[:, live] = e
    if hit.size == work.shape[0]:
        # Every row changes: the product's buffer becomes the new work,
        # without the pivot columns (zero from here on).  The subtraction
        # runs over slices of ``work``, one per run of kept columns, so no
        # copy of ``work`` is made.
        keep = np.ones(work.shape[1], dtype=bool)
        keep[cols] = False
        s = matmul(x, e_full[:, keep], p)
        edges = np.diff(keep, prepend=False, append=False).nonzero()[0]
        at = 0
        for lo, hi in zip(edges[::2], edges[1::2]):
            seg = s[:, at:at + hi - lo]
            np.subtract(work[:, lo:hi], seg, out=seg)
            at += hi - lo
        return reduce(s, p, out=s)
    if np.may_share_memory(work, a):
        work = reduce(work, p)
    s = matmul(x[hit], e_full, p)
    work[hit] = reduce(np.subtract(work[hit], s, out=s), p, out=s)
    return work


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of ker(a); shape (ncols, nullity)."""
    nrows, ncols = a.shape
    if ncols == 0:
        return zeros(0, 0)
    if nrows == 0:
        return eye(ncols)
    red, pivots = rref(a, p)
    return _kernel_rows(red, pivots, ncols, p)[0].T.copy()


def _kernel_rows(r, pivots: list[int], n: int, p: int):
    """``(k, free)`` for a reduced matrix ``r`` with ``n`` columns and pivot
    columns ``pivots``: ``free`` lists the other columns F, and row j of
    ``k`` is the unit vector at F[j] minus ``r[:, F[j]]`` on the pivot
    coordinates, so the rows of ``k`` are a basis of ker(r)."""
    piv = set(pivots)
    free = [c for c in range(n) if c not in piv]
    k = zeros(len(free), n)
    k[range(len(free)), free] = 1
    if pivots:
        k[:, pivots] = np.mod(-r[: len(pivots), free].T, p)
    return k, free


def solve(a: np.ndarray, b: np.ndarray, p: int):
    """One solution X of a @ X = b (b may have several columns), or None."""
    nrows, ncols = a.shape
    b = np.asarray(b, dtype=np.int64)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if b.shape[0] != nrows:
        raise ValueError("rhs has %d rows, expected %d" % (b.shape[0], nrows))
    if nrows == 0:
        return zeros(ncols, b.shape[1])
    aug = np.hstack([np.mod(a, p), np.mod(b, p)])
    red, pivots = rref(aug, p)
    x = zeros(ncols, b.shape[1])
    for r, pc in enumerate(pivots):
        if pc >= ncols:
            return None  # pivot inside the rhs block: inconsistent system
        x[pc] = red[r, ncols:]
    return x


def inverse(a: np.ndarray, p: int):
    """Inverse matrix, or None if singular."""
    n, m = a.shape
    if n != m:
        return None
    if n == 0:
        return zeros(0, 0)
    aug = np.hstack([np.mod(a, p), eye(n)])
    red, pivots = rref(aug, p)
    if pivots != list(range(n)):
        return None
    return red[:, n:].copy()


def is_invertible(a: np.ndarray, p: int) -> bool:
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]


def column_space_basis(a: np.ndarray, p: int) -> np.ndarray:
    """Matrix whose columns are a basis of col(a) (pivot columns of a)."""
    if a.size == 0:
        return zeros(a.shape[0], 0)
    _, pivots = rref(a, p)
    return a[:, pivots].copy() if pivots else zeros(a.shape[0], 0)


def quotient_presentation(w: np.ndarray, p: int):
    """Present F_p^N / col(w) by a projection and a section.

    Returns ``(proj, section)`` with ``proj`` of shape (q, N) and
    ``section`` of shape (N, q), where q = N - rank(w),
    ``proj @ section = I_q`` and ``ker(proj) = col(w)``.

    One :func:`rref` of w^T gives R, whose nonzero rows span col(w) with
    R[:, P] = I on the pivot coordinates P.  The section is the unit
    vectors at the free coordinates F, and proj = E_F - R[:, F]^T E_P
    (E_S picks the coordinates S): it is the identity on the section and
    kills every row of R; its rows are the basis of ker(R) that
    :func:`nullspace` gives as columns.  A projection is fixed by its kernel and a
    section, and the reduced form of a row space is unique, so the result
    depends on col(w) alone.  w = 0 (no columns, say) needs no elimination.
    """
    n = w.shape[0]
    r, pivots = rref(w.T, p) if w.any() else (None, [])
    proj, free = _kernel_rows(r, pivots, n, p)
    section = zeros(n, len(free))
    section[free, range(len(free))] = 1
    return proj, section


def random_invertible(rng, n: int, p: int) -> np.ndarray:
    """Uniform-ish random invertible n x n matrix via rejection."""
    if n == 0:
        return zeros(0, 0)
    while True:
        m = np.asarray(rng.integers(0, p, size=(n, n)), dtype=np.int64)
        if is_invertible(m, p):
            return m


def kron(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Kronecker product mod p (used to flatten matrix equations)."""
    return np.mod(np.kron(a, b), p)
