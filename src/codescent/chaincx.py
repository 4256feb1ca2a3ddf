"""Bounded chain complexes of finite dimensional F_p vector spaces.

Complexes are homological (the differential lowers degree) and bounded:
only finitely many degrees carry a nonzero space.  Because the base ring
is a field, every complex is both cofibrant and fibrant for the projective
structure used throughout the package, weak equivalences are the
quasi-isomorphisms, and fibrations are the degreewise surjections.

The zero complex is simultaneously the initial and the terminal object;
empty colimits and empty limits therefore both evaluate to it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math

import numpy as np

from . import _modp


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class ChainError(Exception):
    """Base class for chain-level validation failures."""


class NotAComplex(ChainError):
    def __init__(self, degree: int, message: str = ""):
        self.degree = degree
        super().__init__(message or "d o d != 0 entering degree %d" % degree)


class ShapeMismatch(ChainError):
    pass


class PrimeMismatch(ChainError):
    pass


class NonCommutingSquare(ChainError):
    def __init__(self, degree: int | None = None, message: str = ""):
        self.degree = degree
        super().__init__(message or "square fails to commute at degree %s" % degree)


@functools.cache
def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def _check_prime(p: int) -> int:
    if p > _modp.MAX_P:
        raise PrimeMismatch("p=%r is above %d, the bound for exact products"
                            % (p, _modp.MAX_P))
    if not _is_prime(p):
        raise PrimeMismatch("%r is not a prime" % (p,))
    return p


# ---------------------------------------------------------------------------
# Complexes
# ---------------------------------------------------------------------------

class ChainComplex:
    """A bounded complex: ``dims[n]`` and matrices ``diff[n] : C_n -> C_{n-1}``.

    Instances are immutable by convention.  Data from outside the package
    goes through :func:`make_complex`, which validates d o d = 0 and
    normalizes; the plain constructor is for the package's own
    constructions, which must pass that normal form directly: no
    zero-dimensional degrees, no all-zero differentials, entries reduced
    mod p.  The test suite re-validates those constructions.
    """

    __slots__ = ("prime", "dims", "diff")

    def __init__(self, prime: int, dims: dict[int, int], diff: dict[int, np.ndarray]):
        self.prime = prime
        self.dims = dims
        self.diff = diff

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def d(self, n: int) -> np.ndarray:
        m = self.diff.get(n)
        if m is None:
            return _modp.zeros(self.dim(n - 1), self.dim(n))
        return m

    @property
    def lo(self) -> int:
        return min(self.dims) if self.dims else 0

    @property
    def hi(self) -> int:
        return max(self.dims) if self.dims else 0

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def degrees(self) -> range:
        if not self.dims:
            return range(0, 0)
        return range(self.lo, self.hi + 1)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, ChainComplex):
            return NotImplemented
        if self.prime != other.prime or self.dims != other.dims:
            return False
        return all(np.array_equal(self.d(n), other.d(n)) for n in self.dims)

    def __repr__(self) -> str:
        body = ", ".join("%d:%d" % (n, self.dims[n]) for n in sorted(self.dims))
        return "ChainComplex(p=%d, {%s})" % (self.prime, body)


def make_complex(prime: int, dims: dict[int, int], diff: dict[int, np.ndarray] | None = None) -> ChainComplex:
    """Validate and normalize the data of a complex.

    Degrees with zero dimension are dropped; differentials (integer entries
    only) are reduced mod p, shape-checked and checked to square to zero.
    """
    _check_prime(prime)
    clean_dims = {}
    for n, k in dims.items():
        if not isinstance(n, int) or k < 0:
            raise ShapeMismatch("bad degree/dimension pair (%r, %r)" % (n, k))
        if k:
            clean_dims[int(n)] = int(k)
    clean_diff: dict[int, np.ndarray] = {}
    for n, m in (diff or {}).items():
        m = _modp.normalize(m, prime)
        want = (clean_dims.get(n - 1, 0), clean_dims.get(n, 0))
        if m.shape != want:
            raise ShapeMismatch("d_%d has shape %s, expected %s" % (n, m.shape, want))
        if m.any():
            clean_diff[int(n)] = m
    cx = ChainComplex(prime, clean_dims, clean_diff)
    for n in cx.dims:
        if cx.dim(n) and cx.dim(n - 2):
            square = _modp.matmul(cx.d(n - 1), cx.d(n), prime)
            if square.any():
                raise NotAComplex(n)
    return cx


def zero_complex(prime: int) -> ChainComplex:
    return make_complex(prime, {})


def sphere(prime: int, degree: int, copies: int = 1) -> ChainComplex:
    """Complex with ``copies`` copies of F_p concentrated in one degree."""
    return make_complex(prime, {degree: copies})


def disk(prime: int, degree: int, copies: int = 1) -> ChainComplex:
    """Acyclic complex: id : F_p^copies in ``degree`` -> ``degree - 1``."""
    return make_complex(
        prime,
        {degree: copies, degree - 1: copies},
        {degree: _modp.eye(copies)},
    )


# ---------------------------------------------------------------------------
# Chain maps
# ---------------------------------------------------------------------------

class ChainMap:
    """Components ``comps[n] : source_n -> target_n`` of a chain map.

    Data from outside the package goes through :func:`make_map`, which
    checks shapes and the chain condition; the plain constructor is for
    the package's own constructions, which the test suite re-validates.
    """

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: ChainComplex, target: ChainComplex, comps: dict[int, np.ndarray]):
        self.source = source
        self.target = target
        self.comps = comps

    @property
    def prime(self) -> int:
        return self.source.prime

    def component(self, n: int) -> np.ndarray:
        m = self.comps.get(n)
        if m is None:
            return _modp.zeros(self.target.dim(n), self.source.dim(n))
        return m

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainMap):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        degs = set(self.comps) | set(other.comps)
        return all(np.array_equal(self.component(n), other.component(n)) for n in degs)

    def __repr__(self) -> str:
        return "ChainMap(%r -> %r)" % (self.source, self.target)


def make_map(source: ChainComplex, target: ChainComplex, comps: dict[int, np.ndarray]) -> ChainMap:
    """Validate a chain map: primes agree, integer components (reduced mod
    p) have the right shapes, squares commute."""
    if source.prime != target.prime:
        raise PrimeMismatch("map between complexes over F_%d and F_%d" % (source.prime, target.prime))
    p = source.prime
    clean: dict[int, np.ndarray] = {}
    for n, m in comps.items():
        m = _modp.normalize(m, p)
        want = (target.dim(n), source.dim(n))
        if m.shape != want:
            raise ShapeMismatch("component %d has shape %s, expected %s" % (n, m.shape, want))
        if m.any():
            clean[int(n)] = m
    f = ChainMap(source, target, clean)
    degs = set(source.dims) | set(target.dims)
    for n in sorted(degs):
        lhs = _modp.matmul(target.d(n), f.component(n), p)
        rhs = _modp.matmul(f.component(n - 1), source.d(n), p)
        if not np.array_equal(lhs, rhs):
            raise NonCommutingSquare(n, "not a chain map at degree %d" % n)
    return f


def identity_map(cx: ChainComplex) -> ChainMap:
    return ChainMap(cx, cx, {n: _modp.eye(k) for n, k in sorted(cx.dims.items()) if k})


def zero_map(source: ChainComplex, target: ChainComplex) -> ChainMap:
    if source.prime != target.prime:
        raise PrimeMismatch("zero map between different primes")
    return ChainMap(source, target, {})


def compose(g: ChainMap, f: ChainMap) -> ChainMap:
    """g o f (apply f first)."""
    if f.target != g.source:
        raise ShapeMismatch("composition mismatch: %r then %r" % (f, g))
    p = f.prime
    comps = {}
    for n in set(f.comps) | set(g.comps):
        m = _modp.matmul(g.component(n), f.component(n), p)
        if m.any():
            comps[n] = m
    return ChainMap(f.source, g.target, comps)


def add_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    if f.source != g.source or f.target != g.target:
        raise ShapeMismatch("sum of maps with different ends")
    p = f.prime
    comps = {}
    for n in set(f.comps) | set(g.comps):
        m = np.mod(f.component(n) + g.component(n), p)
        if m.any():
            comps[n] = m
    return ChainMap(f.source, f.target, comps)


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------

def homology_dims(cx: ChainComplex) -> dict[int, int]:
    """Betti numbers {degree: dim H_n}, zero entries omitted."""
    p = cx.prime
    out = {}
    below = 0  # rank of d_n; d_lo maps into a zero space
    for n in sorted(cx.dims):
        if n - 1 not in cx.dims:
            below = 0
        above = _modp.rank(cx.d(n + 1), p)
        betti = cx.dim(n) - below - above
        if betti:
            out[n] = betti
        below = above
    return out


def _homology_basis(cx: ChainComplex, n: int):
    """(H, B): columns of H are cycles projecting to a basis of H_n(cx),
    columns of B span the boundaries inside C_n."""
    p = cx.prime
    cycles = _modp.nullspace(cx.d(n), p)
    bounds = _modp.column_space_basis(cx.d(n + 1), p)
    # extend the boundary basis by cycle columns through column reduction
    stacked = np.hstack([bounds, cycles])
    _, pivots = _modp.rref(stacked, p)
    keep = [j - bounds.shape[1] for j in pivots if j >= bounds.shape[1]]
    hbasis = cycles[:, keep] if keep else _modp.zeros(cx.dim(n), 0)
    return hbasis, bounds


def induced_homology_map(f: ChainMap, n: int) -> np.ndarray:
    """Matrix of H_n(f) in the deterministic homology bases."""
    p = f.prime
    sh, _ = _homology_basis(f.source, n)
    th, tb = _homology_basis(f.target, n)
    fz = _modp.matmul(f.component(n), sh, p)
    if th.shape[1] == 0:
        return _modp.zeros(0, sh.shape[1])
    frame = np.hstack([tb, th])
    coords = _modp.solve(frame, fz, p)
    if coords is None:
        raise ArithmeticError("image of a cycle is not a cycle; not a chain map?")
    return coords[tb.shape[1]:, :].copy()


def mapping_cone(f: ChainMap) -> ChainComplex:
    """cone(f)_n = target_n (+) source_{n-1}, d(y, x) = (dy + fx, -dx)."""
    src, tgt, p = f.source, f.target, f.prime
    degs = set(tgt.dims) | {n + 1 for n in src.dims}
    return make_complex(p, {n: tgt.dim(n) + src.dim(n - 1) for n in degs}, {n: np.block(
        [[tgt.d(n), f.component(n - 1)],
         [_modp.zeros(src.dim(n - 2), tgt.dim(n)), np.mod(-src.d(n - 1), p)]]) for n in degs})


def is_quasi_iso(f: ChainMap) -> bool:
    """Weak equivalence test: H_n(f) is an isomorphism in every degree."""
    return first_homology_failure(f) is None


def first_homology_failure(f: ChainMap, through: int | None = None):
    """Least degree where H_n(f) is not an isomorphism, with defect size.

    Returns ``(degree, dim ker + dim coker)`` of H_n(f), or None.  For
    f : A -> B, the image of H_n(f) is f(Z_n(A)) + im d^B_{n+1} over im
    d^B_{n+1}, so with the columns of K_n a basis of the cycles Z_n(A),
    H_n(f) has rank r = rank [d^B_{n+1} | f_n K_n] - rank d^B_{n+1}, and
    the defect is (b_n(A) - r) + (b_n(B) - r).  Scanning up, each d^A_{n+1}
    is reduced once by :func:`_modp.rref`: that gives its rank, and its
    reduced rows R with pivots P give f_n K_n = f_n[:, F] - f_n[:, P] R[:,
    F] one degree up (F the free columns; K is :func:`_modp._kernel_rows`).
    One :func:`_modp._pivot_columns` of [d^B_{n+1} | f_n K_n], B_n rows,
    gives the other ranks: its pivots below B_{n+1} count rank d^B_{n+1}.
    ``through`` only ends the scan early (truncated verdicts pass
    ``exact_through``).  Only degrees carrying a cell of A or B are
    visited: elsewhere H_n(f) is 0 -> 0.
    """
    src, tgt, p = f.source, f.target, f.prime
    degs = set(src.dims) | set(tgt.dims)
    if not degs:
        return None
    top = max(degs) if through is None else min(max(degs), through)
    for n in sorted(d for d in degs if d <= top):
        if n - 1 not in degs:
            red, piv, below = None, [], 0  # d_n maps into a zero space
        d = src.diff.get(n + 1)
        red_up, piv_up = _modp.rref(d, p) if d is not None else (None, [])
        free = sorted(set(range(src.dim(n))) - set(piv))
        fn = f.component(n)
        fk = fn[:, free] if piv else fn
        if piv and n in f.comps:
            fk = _modp.reduce(fk - _modp.matmul(fn[:, piv], red[:len(piv), free], p), p)
        pivots = _modp._pivot_columns(np.concatenate((tgt.d(n + 1), fk), axis=1), p)
        above = bisect.bisect_left(pivots, tgt.dim(n + 1))
        r = len(pivots) - above
        a, b = len(free) - len(piv_up) - r, tgt.dim(n) - below - above - r
        if a or b:
            return (n, a + b)
        red, piv, below = red_up, piv_up, above
    return None


# ---------------------------------------------------------------------------
# Sums and tensors
# ---------------------------------------------------------------------------

def _block_diagonal(blocks: list[np.ndarray]) -> np.ndarray:
    """The matrix with ``blocks`` down its diagonal, in order."""
    m = _modp.zeros(sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks))
    r = c = 0
    for b in blocks:
        m[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return m


def _sum_offsets(at, order) -> dict[int, tuple[dict, int]]:
    """Per degree carrying a cell of some at[a], ascending: where the cells
    of each at[a] start in (+)_{a in order} at[a], and how many cells the
    sum has.  ``at`` is a dict or a list (with ``order`` its indices)."""
    offs = {}
    for n in sorted(set().union(*(at[a].dims for a in order))):
        off = {}
        total = 0
        for a in order:
            off[a] = total
            total += at[a].dim(n)
        offs[n] = off, total
    return offs


def direct_sum(summands: list[ChainComplex]):
    """Direct sum with injections and projections.

    Returns ``(total, injections, projections)`` where the lists are
    indexed like ``summands``.
    """
    if not summands:
        raise ShapeMismatch("direct_sum of nothing: use zero_complex")
    p = summands[0].prime
    for s in summands:
        if s.prime != p:
            raise PrimeMismatch("mixed primes in direct sum")
    offs = _sum_offsets(summands, range(len(summands)))
    diff = {}
    for n in offs:
        m = _block_diagonal([s.d(n) for s in summands])
        if m.size:
            diff[n] = m
    total = make_complex(p, {n: k for n, (_, k) in offs.items()}, diff)
    injections = []
    projections = []
    for i, s in enumerate(summands):
        inj = {}
        proj = {}
        for n in s.dims:
            e = _modp.zeros(total.dim(n), s.dim(n))
            start = offs[n][0][i]
            e[start : start + s.dim(n), :] = _modp.eye(s.dim(n))
            inj[n] = e
            proj[n] = e.T.copy()
        injections.append(ChainMap(s, total, inj))
        projections.append(ChainMap(total, s, proj))
    return total, injections, projections


def direct_sum_maps(maps: list[ChainMap], source: ChainComplex, target: ChainComplex) -> ChainMap:
    """Block-diagonal sum of maps, against prebuilt sum complexes."""
    comps = {}
    for n in set(source.dims) | set(target.dims):
        m = _block_diagonal([f.component(n) for f in maps])
        if m.shape != (target.dim(n), source.dim(n)):
            raise ShapeMismatch("block sizes do not fill the sum at degree %d" % n)
        if m.any():
            comps[n] = m
    return ChainMap(source, target, comps)


def _tensor_layout(a: ChainComplex, b: ChainComplex):
    """Per total degree: ordered blocks (i, j, dim a_i * dim b_j)."""
    layout: dict[int, list[tuple[int, int, int]]] = {}
    for i in sorted(a.dims):
        for j in sorted(b.dims):
            layout.setdefault(i + j, []).append((i, j, a.dim(i) * b.dim(j)))
    return layout


def tensor(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """Tensor product over F_p with the Koszul sign (-1)^i on d_b."""
    if a.prime != b.prime:
        raise PrimeMismatch("tensor of complexes over different primes")
    p = a.prime
    layout = _tensor_layout(a, b)
    dims = {n: sum(k for _, _, k in blocks) for n, blocks in layout.items()}
    diff = {}
    for n, blocks in layout.items():
        tgt_blocks = layout.get(n - 1, [])
        rows = dims.get(n - 1, 0)
        cols = dims[n]
        if rows == 0 or cols == 0:
            continue
        tgt_off = dict(zip([(i, j) for i, j, _ in tgt_blocks],
                           itertools.accumulate([k for *_, k in tgt_blocks], initial=0)))
        m = _modp.zeros(rows, cols)
        coff = 0
        for (i, j, k) in blocks:
            # d_a (x) id
            if (i - 1, j) in tgt_off and a.dim(i - 1):
                blk = _modp.kron(a.d(i), _modp.eye(b.dim(j)), p)
                ro = tgt_off[(i - 1, j)]
                m[ro : ro + blk.shape[0], coff : coff + k] = blk
            # (-1)^i id (x) d_b
            if (i, j - 1) in tgt_off and b.dim(j - 1):
                sign = 1 if i % 2 == 0 else p - 1
                blk = np.mod(sign * _modp.kron(_modp.eye(a.dim(i)), b.d(j), p), p)
                ro = tgt_off[(i, j - 1)]
                m[ro : ro + blk.shape[0], coff : coff + k] = blk
            coff += k
        if m.any():
            diff[n] = m
    return make_complex(p, dims, diff)


def tensor_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    """f (x) g between prebuilt tensor complexes (degree-0 maps: no signs):
    f_i (x) g_j down the diagonal, over the sorted (i, j) of both layouts."""
    src = tensor(f.source, g.source)
    tgt = tensor(f.target, g.target)
    p = f.prime
    tgt_layout = _tensor_layout(f.target, g.target)
    comps = {}
    for n, blocks in _tensor_layout(f.source, g.source).items():
        pairs = sorted({(i, j) for (i, j, _) in blocks + tgt_layout.get(n, [])})
        m = _block_diagonal([_modp.kron(f.component(i), g.component(j), p) for (i, j) in pairs])
        if m.any():
            comps[n] = m
    return ChainMap(src, tgt, comps)


# ---------------------------------------------------------------------------
# Finite colimits of complex-valued functors on a finite shape
# ---------------------------------------------------------------------------
#
# ``shape`` is duck-typed: it must expose ``objects`` (ordered tuple of
# names), ``non_identity_morphisms()`` and ``source``/``target`` lookups.
# The colimit is computed degreewise as the cokernel of the usual
# difference map (+)_{f: a -> b} V_a -> (+)_a V_a, with a presentation
# good enough to produce induced maps, which is what the Kan extension
# layer builds on.  Limits are not built separately: over a field the
# limit of a diagram is the dual (:func:`_dual`) of the colimit of its
# duals on the opposite shape, matrix for matrix, as the kernel of the
# difference map is the transposed cokernel of its transpose.

class Colimit:
    __slots__ = ("complex", "injections", "_sect", "_order")

    def __init__(self, complex, injections, sect, order):
        self.complex = complex
        self.injections = injections
        self._sect = sect
        self._order = order

    def induced(self, legs: dict, target: ChainComplex) -> ChainMap:
        """Unique map out of the colimit through a cocone ``legs``."""
        p = self.complex.prime
        comps = {}
        for n in set(self.complex.dims) | set(target.dims):
            cols = []
            for a in self._order:
                block = legs[a].component(n)
                if block.shape[0] != target.dim(n):
                    raise ShapeMismatch("leg at %r has wrong target dim" % (a,))
                cols.append(block)
            stacked = np.hstack(cols) if cols else _modp.zeros(target.dim(n), 0)
            sect = self._sect.get(n)
            if sect is None or stacked.size == 0:
                continue
            m = _modp.matmul(stacked, sect, p)
            if m.any():
                comps[n] = m
        return ChainMap(self.complex, target, comps)


def finite_colimit(shape, at: dict, on: dict) -> Colimit:
    order = list(shape.objects)
    if not order:
        raise ShapeMismatch("colimit over the empty shape is the zero complex; "
                            "build it directly")
    p = at[order[0]].prime
    mors = sorted(shape.non_identity_morphisms())
    offs = _sum_offsets(at, order)

    proj: dict[int, np.ndarray] = {}
    sect: dict[int, np.ndarray] = {}
    dims: dict[int, int] = {}
    for n, (off, total) in offs.items():
        if total == 0:
            continue
        cols = []
        for m in mors:
            a, b = shape.source(m), shape.target(m)
            k = at[a].dim(n)
            if k == 0:
                continue
            col = _modp.zeros(total, k)
            col[off[b] : off[b] + at[b].dim(n), :] = on[m].component(n)
            col[off[a] : off[a] + k, :] = np.mod(col[off[a] : off[a] + k, :] - _modp.eye(k), p)
            cols.append(col)
        delta = np.hstack(cols) if cols else _modp.zeros(total, 0)
        pr, se = _modp.quotient_presentation(delta, p)
        if pr.shape[0]:
            proj[n], sect[n] = pr, se
            dims[n] = pr.shape[0]

    diff = {}
    for n in dims:
        if dims.get(n - 1, 0) == 0:
            continue
        dplus = _block_diagonal([at[a].d(n) for a in order])
        m = _modp.matmul(_modp.matmul(proj[n - 1], dplus, p), sect[n], p)
        if m.any():
            diff[n] = m
    cx = ChainComplex(p, dims, diff)

    injections = {}
    for a in order:
        comps = {}
        for n in sorted(at[a].dims):
            if n not in proj:
                continue
            off = offs[n][0][a]
            comps[n] = proj[n][:, off : off + at[a].dim(n)].copy()
        injections[a] = ChainMap(at[a], cx, comps)
    return Colimit(cx, injections, sect, order)


def _dual(cx: ChainComplex) -> ChainComplex:
    """The dual complex: (C_n)* in degree -n, with differential d^T and no
    sign.  Degrees stay in increasing order."""
    return ChainComplex(cx.prime, {-n: cx.dims[n] for n in sorted(cx.dims, reverse=True)},
                        {1 - n: cx.diff[n].T.copy() for n in sorted(cx.diff, reverse=True)})


def _dual_map(f: ChainMap, source: ChainComplex, target: ChainComplex) -> ChainMap:
    """f^T : source -> target, where ``source`` and ``target`` are the
    duals of f's target and source."""
    return ChainMap(source, target, {-n: m.T.copy() for n, m in f.comps.items() if m.any()})


# ---------------------------------------------------------------------------
# Random instances with known homology
# ---------------------------------------------------------------------------

def _as_rng(rng):
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def random_complex(rng, lo: int, hi: int, max_dim: int, prime: int):
    """Random bounded complex with certified homology.

    Built as a direct sum of spheres and disks in the window [lo, hi],
    then conjugated degreewise by random invertible matrices so the
    sphere/disk decomposition is hidden.  Returns ``(complex, betti)``
    where ``betti`` records the planted homology dimensions.
    """
    rng = _as_rng(rng)
    if hi < lo:
        raise ShapeMismatch("empty degree window")
    cap = max(1, max_dim // 3)
    spheres = {n: int(rng.integers(0, cap + 1)) for n in range(lo, hi + 1)}
    disks = {n: int(rng.integers(0, cap + 1)) for n in range(lo + 1, hi + 1)}
    if not any(spheres.values()) and not any(disks.values()):
        spheres[lo] = 1
    dims = {}
    for n in range(lo, hi + 1):
        dims[n] = spheres.get(n, 0) + disks.get(n, 0) + disks.get(n + 1, 0)
    diff = {}
    for n in range(lo + 1, hi + 1):
        k = disks.get(n, 0)
        if k == 0 or dims.get(n, 0) == 0 or dims.get(n - 1, 0) == 0:
            continue
        m = _modp.zeros(dims[n - 1], dims[n])
        # layout per degree: [spheres | disk tops at n | disk bottoms from n+1]
        row0 = spheres.get(n - 1, 0) + disks.get(n - 1, 0)
        col0 = spheres.get(n, 0)
        m[row0 : row0 + k, col0 : col0 + k] = _modp.eye(k)
        diff[n] = m
    basis = {n: _modp.random_invertible(rng, dims.get(n, 0), prime)
             for n in range(lo - 1, hi + 1)}
    conj_diff = {}
    for n, m in diff.items():
        u_inv = _modp.inverse(basis[n], prime)
        conj = _modp.matmul(_modp.matmul(basis[n - 1], m, prime), u_inv, prime)
        if conj.any():
            conj_diff[n] = conj
    cx = make_complex(prime, dims, conj_diff)
    betti = {n: k for n, k in spheres.items() if k}
    return cx, betti


def random_chain_map(rng, source: ChainComplex, target: ChainComplex) -> ChainMap:
    """Uniformly random chain map source -> target.

    The space of chain maps is the kernel of the exact linear system
    d_target o f - f o d_source = 0; a random coordinate vector against a
    kernel basis gives a uniform sample.
    """
    rng = _as_rng(rng)
    p = source.prime
    if target.prime != p:
        raise PrimeMismatch("random map between different primes")
    degs = sorted(set(source.dims) | set(target.dims))
    var_deg = [n for n in degs if source.dim(n) * target.dim(n) > 0]
    if not var_deg:
        return zero_map(source, target)
    sizes = {n: target.dim(n) * source.dim(n) for n in var_deg}
    offset = dict(zip(var_deg, itertools.accumulate(sizes.values(), initial=0)))
    total = sum(sizes.values())
    rows = []
    for n in range(min(degs), max(degs) + 2):
        out_rows = target.dim(n - 1) * source.dim(n)
        if out_rows == 0 or (n not in offset and n - 1 not in offset):
            continue
        block = _modp.zeros(out_rows, total)
        if n in offset:
            block[:, offset[n] : offset[n] + sizes[n]] = _modp.kron(
                target.d(n), _modp.eye(source.dim(n)), p)
        if n - 1 in offset:
            block[:, offset[n - 1] : offset[n - 1] + sizes[n - 1]] = np.mod(
                -_modp.kron(_modp.eye(target.dim(n - 1)), source.d(n).T, p), p)
        rows.append(block)
    kernel = _modp.nullspace(np.vstack(rows), p) if rows else _modp.eye(total)
    coeffs = np.asarray(rng.integers(0, p, size=(kernel.shape[1], 1)), dtype=np.int64)
    flat = _modp.matmul(kernel, coeffs, p).reshape(-1) if kernel.shape[1] else np.zeros(total, dtype=np.int64)
    comps = {}
    for n in var_deg:
        m = flat[offset[n] : offset[n] + sizes[n]].reshape(target.dim(n), source.dim(n))
        if m.any():
            comps[n] = m
    return make_map(source, target, comps)
