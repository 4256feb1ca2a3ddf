"""Codescent verdicts for diagrams of chain complexes.

A pair (C, D) of a finite category and an object subset carries a notion
of *codescent at an object c*: the canonical resolution of the diagram by
values on D must map to the value at c by a quasi-isomorphism.  On D
itself this holds automatically; the interesting objects are the others.

Two strategies compute the resolution:

* ``bar``: a normalized two-sided bar construction whose columns are
  indexed by composable strings of non-identity morphisms inside the full
  subcategory on D, capped by an arbitrary morphism into the object under
  test.  When the full subcategory on D is *directed* (no non-identity
  endomorphisms, no cycles) the strings terminate on their own and every
  verdict is exact.  Otherwise columns are truncated at a cutoff N and
  homology is only trustworthy through degree N + lo - 1 (lo = least
  degree carrying a value anywhere in the diagram): chains in the
  truncated complex agree with the untruncated one through N + lo, so
  homology classes and their comparisons are faithful strictly below the
  last agreeing chain degree.  A verdict at c builds only QX(c) and the
  comparison xi_c, through degree exact_through + 1 (the last one the
  rank scan reads); ``bar_approximation`` builds the whole diagram.

* ``ind-base``: resolve the restriction to D first (identity when the
  full subcategory on D is discrete - over a field every single complex
  is already resolvent - otherwise the bar construction over (D, D)),
  then extend along the inclusion by objectwise colimits
  (``ind_base_approximation`` builds the whole left Kan extension).  For
  the bar base the colimit over (D | c) is the bar complex QX(c) cell for
  cell: it identifies (string, lam, beta) with (string, beta o lam), by
  co-Yoneda (Mac Lane, CWM X.4); for the identity base both are the sum
  of X(d) over the morphisms d -> c.  So a verdict at c scans the bar
  QX(c) and xi_c, built through exact_through + 1, for either strategy.
  Ind-base takes the cutoff and exact_through from its inner resolution
  over (D, D): the default cutoff and the lo in N + lo - 1 are those of X
  restricted to D.

Verdicts: ``holds`` and ``fails`` are only emitted from exact data (a
directed pair, or a failure witnessed inside the trustworthy degree
range); anything else is ``holds_up_to`` a stated degree bound.  A
failure records the least homology degree where the comparison map is
not an isomorphism and the defect dimension there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _modp
from .chaincx import (
    ChainComplex, ChainMap, add_maps, compose, direct_sum,
    first_homology_failure, identity_map, is_quasi_iso, make_map,
    mapping_cone, zero_complex, zero_map,
)
from .fincat import (
    BadShapeParams, CatPair, FinCat, UnknownObject, full_subcategory,
    inclusion_functor, is_full_subcategory,
)
from .diagrams import (
    Diagram, NatTrans, left_kan, left_mate, make_diagram, make_nat,
    restrict_along, solve_nat_lifting_zero,
)


class DNotFull(Exception):
    pass


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodescentVerdict:
    """Outcome at one object.

    status "holds": exact positive answer.  "fails": exact negative
    answer; ``degree`` is the least homology degree where the comparison
    fails and ``defect`` the dimension lost there (kernel + cokernel of
    the induced map).  "holds_up_to": no failure found in degrees up to
    ``bound``, nothing asserted beyond.
    """

    status: str
    degree: int | None = None
    defect: int | None = None
    bound: int | None = None

    @property
    def exit_code(self) -> int:
        return {"holds": 0, "fails": 1, "holds_up_to": 2}[self.status]

    def as_dict(self) -> dict:
        out = {"status": self.status}
        if self.degree is not None:
            out["degree"] = self.degree
        if self.defect is not None:
            out["defect"] = self.defect
        if self.bound is not None:
            out["bound"] = self.bound
        return out

    def __str__(self) -> str:
        if self.status == "holds":
            return "Holds"
        if self.status == "fails":
            return "Fails(degree=%d, defect=%d)" % (self.degree, self.defect)
        return "HoldsUpTo(%d)" % self.bound


HOLDS = CodescentVerdict("holds")


def _verdict_from_failure(failure, exact_through):
    if failure is not None:
        return CodescentVerdict("fails", degree=failure[0], defect=failure[1])
    if exact_through is math.inf:
        return HOLDS
    return CodescentVerdict("holds_up_to", bound=int(exact_through))


# ---------------------------------------------------------------------------
# Directedness and cutoffs
# ---------------------------------------------------------------------------

def is_directed_pair(pair: CatPair) -> bool:
    """No non-identity endomorphisms and no cycles inside full(D)."""
    cat = pair.cat
    edges: dict[str, set[str]] = {a: set() for a in pair.d_objects}
    for m in cat.non_identity_morphisms():
        s, t = cat.mor[m]
        if s in pair.dset and t in pair.dset:
            if s == t:
                return False
            edges[s].add(t)
    seen: dict[str, int] = {}

    def dfs(v: str) -> bool:
        seen[v] = 1
        for w in edges[v]:
            state = seen.get(w, 0)
            if state == 1:
                return False
            if state == 0 and not dfs(w):
                return False
        seen[v] = 2
        return True

    return all(dfs(v) for v in pair.d_objects if seen.get(v, 0) == 0)


def default_cutoff(x: Diagram, pair: CatPair) -> int:
    """|D| + (top degree - bottom degree of the diagram) + 4."""
    return len(pair.dset) + (x.hi() - x.lo()) + 4


# ---------------------------------------------------------------------------
# Bar approximation
# ---------------------------------------------------------------------------

@dataclass
class Approximation:
    """A resolution QX with its comparison map xi : QX -> X.

    ``exact_through`` is math.inf for exact computations, else the last
    homology degree the truncation certifies.
    """

    diagram: Diagram
    xi: NatTrans
    pair: CatPair
    strategy: str
    directed: bool
    cutoff: int | None
    exact_through: float
    base: str | None = None
    column_sizes: dict[str, list[int]] = field(default_factory=dict)


def _paths_in(sub: FinCat, max_len: int):
    """Composable strings of non-identity morphisms, by length.

    Entry format: (start object, tuple of morphism names, end object).
    Strings stop on their own when the subcategory is directed.
    """
    outgoing: dict[str, list[str]] = {d: [] for d in sub.objects}
    for m in sub.non_identity_morphisms():
        outgoing[sub.source(m)].append(m)
    levels = [[(d, (), d) for d in sub.objects]]
    while len(levels) <= max_len:
        nxt = []
        for (d0, fs, dn) in levels[-1]:
            for f in outgoing[dn]:
                nxt.append((d0, fs + (f,), sub.target(f)))
        if not nxt:
            break
        levels.append(nxt)
    return levels


class _BarLayout:
    """The layout pass of the bar resolution of X along a pair.

    It holds what every object shares: full(D), directedness, the cutoff
    and ``exact_through``, the strings by length and the cell degrees of
    the values on D.  Blocks, their positions and per-degree offsets are
    laid out one object at a time, on first use (:meth:`at`).

    With ``strategy="ind-base"`` the cutoff and ``exact_through`` are
    those of the ind-base inner resolution over (D, D): the bar bounds of
    X|D (its default cutoff and its lo read X's values on D only), and
    exact when full(D) is discrete (the identity base).  The layout is the
    same bar layout, which an ind-base verdict scans (:func:`_verdicts`).
    """

    def __init__(self, x: Diagram, pair: CatPair, cutoff: int | None = None,
                 strategy: str = "bar"):
        if x.cat != pair.cat:
            raise UnknownObject("diagram and pair live on different categories")
        self.x, self.cat, self.strategy = x, pair.cat, strategy
        self.sub = full_subcategory(pair.cat, pair.d_objects)
        self.directed = is_directed_pair(pair)
        natural = max(len(self.sub.objects) - 1, 0)
        bounds = x
        if strategy == "ind-base":
            # X|D's values are all the bounds read; the maps play no part
            bounds = Diagram(self.sub, {d: x.at[d] for d in self.sub.objects}, {})
            if not self.sub.non_identity_morphisms():
                cutoff = None
        if self.directed and (cutoff is None or int(cutoff) >= natural):
            max_len, self.cutoff, self.exact_through = natural, None, math.inf
        else:
            self.cutoff = default_cutoff(bounds, pair) if cutoff is None else int(cutoff)
            if self.cutoff < 0:
                raise BadShapeParams("cutoff must be >= 0")
            max_len, self.exact_through = self.cutoff, self.cutoff + bounds.lo() - 1
        # the last degree a verdict reads: it scans through exact_through
        self.top = None if self.exact_through is math.inf else int(self.exact_through) + 1
        self.levels = _paths_in(self.sub, max_len)
        self.cells = set().union(*(x.at[d].dims for d in pair.dset))
        self._objects: dict[str, tuple] = {}

    def at(self, c: str):
        """(blocks, pos, offsets) at c.

        ``blocks[n]`` lists the strings (d0, (f_1, ..., f_n), lam) of length
        n, ``pos[n]`` maps (fs, lam) to its index there, and ``offsets[t]``
        maps (n, index) to the (start, size) of the block at total degree t.
        """
        if c not in self._objects:
            blocks = [[(d0, fs, lam) for (d0, fs, dn) in level for lam in self.cat.hom(dn, c)]
                      for level in self.levels]
            pos = [{(fs, lam): b for b, (_, fs, lam) in enumerate(col)} for col in blocks]
            offsets = {}
            # only total degrees that carry a block: a degree gap costs nothing
            for t in sorted({j + n for j in self.cells for n in range(len(blocks))}):
                where, off = {}, 0
                for n, col in enumerate(blocks):
                    if t - n not in self.cells:
                        continue
                    for b, (d0, _, _) in enumerate(col):
                        k = self.x.at[d0].dim(t - n)
                        if k:
                            where[n, b] = (off, k)
                            off += k
                if where:
                    offsets[t] = where
            self._objects[c] = blocks, pos, offsets
        return self._objects[c]


def _bar_complex(lay: _BarLayout, c: str, top: int | None = None) -> ChainComplex:
    """QX(c) through total degree ``top`` (all of it when None).

    The differential of a block (d0, f_1, ..., f_n, lam) combines the
    internal differential (sign (-1)^n), X(f_1) on the coefficient (face
    0), the inner faces f_{i+1} o f_i (sign (-1)^i, dropped when the
    composite is an identity: that is the normalization) and the last face
    lam o f_n (sign (-1)^n).  Faces 1..n are +-identity blocks, written as
    diagonals by one accumulating ``np.add.at`` per differential (so
    coinciding faces add up); one ``np.mod`` reduces the whole matrix."""
    x, cat, sub, p = lay.x, lay.cat, lay.sub, lay.x.prime
    blocks, pos, offsets = lay.at(c)
    dims = {t: sum(k for _, k in where.values())
            for t, where in offsets.items() if top is None or t <= top}
    diff = {}
    for t in dims:
        tgt = offsets.get(t - 1)
        if not tgt:
            continue
        m = _modp.zeros(dims[t - 1], dims[t])
        rows, cols, signs = [], [], []  # the diagonals of the +-identity blocks
        for (n, b), (off, k) in offsets[t].items():
            d0, fs, lam = blocks[n][b]
            j = t - n
            dense = [((n, b), x.at[d0].d(j) * (1 if n % 2 == 0 else -1))]
            faces = []
            if n:
                dense.append(((n - 1, pos[n - 1].get((fs[1:], lam))), x.on[fs[0]].component(j)))
                # an identity composite names no string, so its face drops out
                faces = [(fs[: i - 1] + (sub.compose(fs[i], fs[i - 1]),) + fs[i + 1 :], lam)
                         for i in range(1, n)] + [(fs[: n - 1], cat.compose(lam, fs[n - 1]))]
            for key, blk in dense:
                if key in tgt:
                    r = tgt[key][0]
                    m[r : r + blk.shape[0], off : off + k] += blk
            for i, face in enumerate(faces, 1):
                key = (n - 1, pos[n - 1].get(face))
                if key in tgt:
                    r = tgt[key][0]
                    rows.extend(range(r, r + k))
                    cols.extend(range(off, off + k))
                    signs.extend([1 if i % 2 == 0 else -1] * k)
        np.add.at(m, (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)), signs)
        np.mod(m, p, out=m)
        if m.any():
            diff[t] = m
    return ChainComplex(p, dims, diff)


def _bar_comparison(lay: _BarLayout, c: str, qx_c: ChainComplex) -> ChainMap:
    """xi_c : QX(c) -> X(c), X(lam) on the string-free column."""
    x = lay.x
    blocks, _, offsets = lay.at(c)
    comps = {}
    for t in qx_c.dims:
        if x.at[c].dim(t) == 0:
            continue
        m = _modp.zeros(x.at[c].dim(t), qx_c.dim(t))
        for (n, b), (off, k) in offsets[t].items():
            if n == 0:
                m[:, off : off + k] = x.on[blocks[0][b][2]].component(t)
        if m.any():
            comps[t] = m
    return ChainMap(qx_c, x.at[c], comps)


def _bar_diagram(lay: _BarLayout) -> tuple[Diagram, NatTrans]:
    """QX and xi : QX -> X."""
    cat = lay.cat
    at = {c: _bar_complex(lay, c) for c in cat.objects}
    on: dict[str, ChainMap] = {}
    for g, (c1, c2) in cat.mor.items():
        blocks, _, offsets = lay.at(c1)
        _, pos2, offsets2 = lay.at(c2)
        comps = {}
        for t in sorted(at[c1].dims):
            if at[c2].dim(t) == 0:
                continue
            rows, cols = [], []
            for (n, b), (off, k) in offsets[t].items():
                _, fs, lam = blocks[n][b]
                r = offsets2[t][n, pos2[n][fs, cat.compose(g, lam)]][0]
                rows.extend(range(r, r + k))
                cols.extend(range(off, off + k))
            comps[t] = _modp.zeros(at[c2].dim(t), at[c1].dim(t))
            comps[t][rows, cols] = 1
        on[g] = ChainMap(at[c1], at[c2], comps)
    qx = Diagram(cat, at, on)
    return qx, NatTrans(qx, lay.x, {c: _bar_comparison(lay, c, at[c]) for c in cat.objects})


def bar_approximation(x: Diagram, pair: CatPair, cutoff: int | None = None) -> Approximation:
    """Normalized bar resolution of a diagram along a pair, everywhere.

    The value at an object c totals blocks indexed by strings
    (f_1, ..., f_n, lam): the f_i composable non-identity morphisms in the
    full subcategory on D, lam any morphism from their end to c; the block
    carries the value complex at the string's start, shifted up by n (see
    :func:`_bar_complex` for the differential).  A morphism g acts by
    lam -> g o lam, a permutation of identity blocks; the comparison map
    applies lam on the string-free column.  Columns are cut at ``cutoff``
    when the full subcategory on D is not directed (and on a directed pair
    too, when an explicit cutoff undercuts the natural string-length
    bound); see the module docstring for the degree range a truncation
    certifies.

    Verdicts build only QX(c) and xi_c (:func:`_verdicts`); this full
    build serves :func:`approximate`, and so
    :func:`verify_cofibrant_approx`.
    """
    lay = _BarLayout(x, pair, cutoff)
    qx, xi = _bar_diagram(lay)
    sizes = {c: [len(col) for col in lay.at(c)[0]] for c in lay.cat.objects}
    return Approximation(qx, xi, pair, "bar", lay.directed, lay.cutoff,
                         lay.exact_through, column_sizes=sizes)


# ---------------------------------------------------------------------------
# Induced-base approximation
# ---------------------------------------------------------------------------

class _IndBase:
    """The layout pass of the full ind-base build: the inclusion of
    full(D) into C, and the cutoff and exact_through of the inner bar
    resolution over (D, D), unless full(D) is discrete (the exact identity
    base).  :meth:`inner` builds the inner diagram and zeta : inner -> X|D.
    Verdicts take the same bounds from ``_BarLayout(..., "ind-base")``."""

    strategy = "ind-base"

    def __init__(self, x: Diagram, pair: CatPair, base: str = "auto",
                 cutoff: int | None = None, sub: FinCat | None = None):
        if x.cat != pair.cat:
            raise UnknownObject("diagram and pair live on different categories")
        if sub is None:
            sub = full_subcategory(pair.cat, pair.d_objects)
        elif tuple(sub.objects) != pair.d_objects or not is_full_subcategory(sub, pair.cat):
            raise DNotFull("the base subcategory must be the full one on the subset")
        discrete = not sub.non_identity_morphisms()
        # over nothing every base resolves to zero
        if base == "auto" or not sub.objects:
            base = "identity" if discrete else "bar"
        if base == "identity" and not discrete:
            raise BadShapeParams(
                "identity base is only valid when the full subcategory on the "
                "subset is discrete; use base='bar'")
        if base not in ("identity", "bar"):
            raise BadShapeParams("base must be auto, identity or bar")
        self.sub, self.base = sub, base
        self.incl = inclusion_functor(sub, pair.cat)
        self.res_x = restrict_along(self.incl, x)
        self.lay = lay = None if base == "identity" else _BarLayout(
            self.res_x, CatPair(sub, frozenset(sub.objects)), cutoff)
        self.directed, self.cutoff, self.exact_through = (
            (True, None, math.inf) if lay is None
            else (lay.directed, lay.cutoff, lay.exact_through))

    def inner(self):
        """The inner diagram and the components of zeta."""
        if self.lay is None:
            return self.res_x, {d: identity_map(self.res_x.at[d]) for d in self.sub.objects}
        qx, zeta = _bar_diagram(self.lay)
        return qx, zeta.comps


def ind_base_approximation(x: Diagram, pair: CatPair, base: str = "auto",
                           cutoff: int | None = None,
                           sub: FinCat | None = None) -> Approximation:
    """Resolve on D first, then extend along the inclusion by colimits.

    ``base="identity"`` keeps the restricted diagram as its own resolution
    and is only sound when the full subcategory on D is discrete (single
    complexes are always resolvent over a field, but diagrams with real
    arrows are not); ``base="bar"`` resolves the restriction with the bar
    construction over (D, D); ``base="auto"`` picks identity exactly in
    the discrete case.  A non-full ``sub`` is rejected: the construction
    extends along a full inclusion.

    The value at c is the bar complex QX(c) up to the colimit's choice of
    basis (see the module docstring), so verdicts scan that complex, cut
    at exact_through + 1, with this strategy's cutoff and exact_through
    (:func:`_verdicts`).  This full build, the whole left Kan extension
    with its structure maps, serves :func:`approximate`, and the tests
    compare verdicts against it.
    """
    res = _IndBase(x, pair, base, cutoff, sub)
    cat = pair.cat
    if not res.sub.objects:
        # colimit over nothing: the resolution is zero everywhere
        p = x.prime
        at = {a: zero_complex(p) for a in cat.objects}
        on = {m: zero_map(at[s], at[t]) for m, (s, t) in cat.mor.items()}
        qx = Diagram(cat, at, on)
        xi = NatTrans(qx, x, {a: zero_map(qx.at[a], x.at[a]) for a in cat.objects})
        return Approximation(qx, xi, pair, "ind-base", True, None, math.inf,
                             base="identity")
    inner, zeta = res.inner()
    lk = left_kan(res.incl, inner)
    xi = NatTrans(lk.diagram, x, left_mate(lk, x, zeta))
    return Approximation(lk.diagram, xi, pair, "ind-base", res.directed, res.cutoff,
                         res.exact_through, base=res.base)


def approximate(x: Diagram, pair: CatPair, strategy: str = "bar",
                cutoff: int | None = None) -> Approximation:
    if strategy == "bar":
        return bar_approximation(x, pair, cutoff=cutoff)
    if strategy == "ind-base":
        return ind_base_approximation(x, pair, base="auto", cutoff=cutoff)
    raise BadShapeParams("strategy must be 'bar' or 'ind-base'")


# ---------------------------------------------------------------------------
# Verdicts at objects, and the locus
# ---------------------------------------------------------------------------

def _verdict_for_map(f: ChainMap, exact_through) -> CodescentVerdict:
    through = None if exact_through is math.inf else int(exact_through)
    return _verdict_from_failure(first_homology_failure(f, through), exact_through)


def _verdicts(x: Diagram, pair: CatPair, objects, strategy: str, cutoff: int | None):
    """The layout pass, and the verdicts at ``objects`` outside D.  Each
    verdict builds only xi_c : QX(c) -> X(c), through degree exact_through
    + 1 (the scan reads d_{through + 1} and nothing higher), and scans it
    at once.

    Both strategies scan the bar complex QX(c): the ind-base colimit at c
    of the inner bar resolution is that complex cell for cell, since the
    colimit over (D | c) identifies (string, lam, beta) with (string,
    beta o lam) (co-Yoneda).  Ind-base takes the cutoff, and so the
    string lengths, from its inner resolution over X|D, and ``top`` and
    ``exact_through`` too: those read lo of X|D, not of X.  One layout
    pass serves either strategy (:class:`_BarLayout`)."""
    if strategy not in ("bar", "ind-base"):
        raise BadShapeParams("strategy must be 'bar' or 'ind-base'")
    lay = _BarLayout(x, pair, cutoff, strategy)
    return lay, {c: _verdict_for_map(_bar_comparison(lay, c, _bar_complex(lay, c, lay.top)),
                                     lay.exact_through) for c in objects}


def codescent_at(x: Diagram, pair: CatPair, c: str, strategy: str = "bar",
                 cutoff: int | None = None) -> CodescentVerdict:
    """Verdict at one object.  On the distinguished subset the answer is
    always Holds (the comparison map is a weak equivalence there by
    construction)."""
    if c not in set(pair.cat.objects):
        raise UnknownObject("no object %r" % c)
    if c in pair.dset:
        return HOLDS
    return _verdicts(x, pair, [c], strategy, cutoff)[1][c]


@dataclass
class CodescentReport:
    pair: CatPair
    strategy: str
    cutoff: int | None
    directed: bool
    exact_through: float
    verdicts: dict[str, CodescentVerdict]
    reductions: tuple[str, ...] = ()

    @property
    def locus(self) -> tuple[str, ...]:
        return tuple(a for a in self.pair.cat.objects
                     if self.verdicts[a].status in ("holds", "holds_up_to"))

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(a for a in self.pair.cat.objects
                     if self.verdicts[a].status == "fails")

    @property
    def inconclusive(self) -> tuple[str, ...]:
        return tuple(a for a in self.pair.cat.objects
                     if self.verdicts[a].status == "holds_up_to")

    @property
    def exit_code(self) -> int:
        if self.failures:
            return 1
        if self.inconclusive:
            return 2
        return 0

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "cutoff": self.cutoff,
            "directed": self.directed,
            "exact_through": (None if self.exact_through is math.inf
                              else int(self.exact_through)),
            "verdicts": {a: v.as_dict() for a, v in sorted(self.verdicts.items())},
            "locus": list(self.locus),
            "failures": list(self.failures),
            "inconclusive": list(self.inconclusive),
            "reductions": list(self.reductions),
        }


def codescent_locus(x: Diagram, pair: CatPair, strategy: str = "bar",
                    cutoff: int | None = None) -> CodescentReport:
    res, found = _verdicts(x, pair, pair.complement, strategy, cutoff)
    verdicts = {c: found.get(c, HOLDS) for c in pair.cat.objects}
    return CodescentReport(pair, res.strategy, res.cutoff, res.directed,
                           res.exact_through, verdicts)


# ---------------------------------------------------------------------------
# Closed-form criteria (independent of the bar machinery)
# ---------------------------------------------------------------------------

def _block_row_map(summands: list[ChainComplex], maps: list[ChainMap],
                   target: ChainComplex) -> ChainMap:
    total = direct_sum(summands)[0]
    p = target.prime
    comps = {}
    for n in set(total.dims) | set(target.dims):
        rows = target.dim(n)
        if rows == 0 or total.dim(n) == 0:
            continue
        m = np.hstack([f.component(n) for f in maps])
        if m.any():
            comps[n] = np.mod(m, p)
    return make_map(total, target, comps)


def _square_comparison(x: Diagram) -> ChainMap:
    """[beta1 beta2 0] : cone(alpha1, -alpha2) -> X(c).

    The cone of (alpha1, -alpha2) : E -> D1 (+) D2 is the homotopy pushout
    of D1 <- E -> D2, laid out per degree as D1_n (+) D2_n (+) E_{n-1}.
    The block row is a chain map because beta1 alpha1 = beta2 alpha2,
    which holds in any functor on the square.
    """
    a1, a2 = x.on["alpha1"], x.on["alpha2"]
    e, p = a1.source, x.prime
    _, inj, _ = direct_sum([a1.target, a2.target])
    minus_a2 = ChainMap(e, a2.target, {n: np.mod(-m, p) for n, m in a2.comps.items()})
    cone = mapping_cone(add_maps(compose(inj[0], a1), compose(inj[1], minus_a2)))
    comps = {}
    for n in cone.dims:
        m = np.hstack([x.on["beta1"].component(n), x.on["beta2"].component(n),
                       _modp.zeros(x.at["c"].dim(n), e.dim(n - 1))])
        if m.any():
            comps[n] = m
    return ChainMap(cone, x.at["c"], comps)


def oracle_criterion(x: Diagram, example: str) -> CodescentVerdict:
    """Exact verdicts for the catalogued shapes, no resolution involved.

    * "arrow": the single structure map must be a quasi-isomorphism.
    * "multi_arrow": the fold of all structure maps out of the sum of
      copies of the source value must be one.
    * "commutative_square": the value at the tip must receive a
      quasi-isomorphism from the homotopy pushout of the two wings.
    * "free_square": both wing maps and the fold of the two composites
      must be quasi-isomorphisms (no single comparison map: a failing
      verdict carries no degree here).
    * "terminal_extension": over a discrete base, the fold of the maps to
      the terminal object from the sum of the base values.
    """
    cat = x.cat
    if example == "arrow":
        return _verdict_from_failure(first_homology_failure(x.on["alpha"]), math.inf)
    if example == "multi_arrow":
        arrows = sorted(m for m in cat.mor if m.startswith("a") and m[1:].isdigit())
        if not arrows:
            raise BadShapeParams("no arrows a0, a1, ... found")
        f = _block_row_map([x.at["d"]] * len(arrows),
                           [x.on[a] for a in arrows], x.at["c"])
        return _verdict_from_failure(first_homology_failure(f), math.inf)
    if example == "commutative_square":
        return _verdict_from_failure(first_homology_failure(_square_comparison(x)),
                                     math.inf)
    if example == "free_square":
        ok = (is_quasi_iso(x.on["alpha1"]) and is_quasi_iso(x.on["alpha2"]))
        if ok:
            fold = _block_row_map([x.at["e"], x.at["e"]],
                                  [x.on["gamma1"], x.on["gamma2"]], x.at["c"])
            ok = is_quasi_iso(fold)
        return HOLDS if ok else CodescentVerdict("fails")
    if example == "terminal_extension":
        base = [a for a in cat.objects if a != "c_inf"]
        for a in base:
            for m in cat.non_identity_morphisms():
                if cat.source(m) in base and cat.target(m) in base:
                    raise BadShapeParams("terminal criterion needs a discrete base")
        f = _block_row_map([x.at[a] for a in base],
                           [x.on["t_%s" % a] for a in base], x.at["c_inf"])
        return _verdict_from_failure(first_homology_failure(f), math.inf)
    raise BadShapeParams("unknown example %r" % example)


# ---------------------------------------------------------------------------
# Diagnostics for a claimed resolution
# ---------------------------------------------------------------------------

def _collapse_contexts(pair: CatPair, max_contexts: int = 3):
    """Objects c outside the subset where some lam0 : d0 -> c induces a
    bijection between morphisms into d0 and non-identity morphisms into c
    (and nothing leaves c).  At such a context the diagram that replaces
    the value at c by the value at d0 is functorial and maps onto the
    original by a trivial fibration over the subset."""
    cat = pair.cat
    out = []
    for c in pair.complement:
        if any(not cat.is_identity(m) for m in cat.endomorphisms(c)):
            continue
        if any(cat.source(m) == c and cat.target(m) != c
               for m in cat.non_identity_morphisms()):
            continue
        found = None
        for d0 in sorted(pair.dset):
            for lam0 in cat.hom(d0, c):
                ok = True
                for a in cat.objects:
                    into_c = [m for m in cat.hom(a, c) if not cat.is_identity(m)]
                    factors = {}
                    for mp in cat.hom(a, d0):
                        m = cat.compose(lam0, mp)
                        factors[m] = factors.get(m, 0) + 1
                    if sorted(factors) != sorted(into_c) or any(v != 1 for v in factors.values()):
                        ok = False
                        break
                if ok:
                    found = (c, d0, lam0)
                    break
            if found:
                break
        if found:
            out.append(found)
        if len(out) >= max_contexts:
            break
    return out


def verify_cofibrant_approx(x: Diagram, approx: Approximation,
                            max_lift_checks: int = 3) -> dict:
    """Diagnostics for a resolution: comparison on the subset, liftings.

    Checks (1) that the comparison map is a quasi-isomorphism at every
    distinguished object (within the certified range when truncated), and
    (2) where the category offers a collapse context (see
    :func:`_collapse_contexts`), that the resolution lifts against the
    collapse trivial fibration - the classical discriminating test that
    rejects non-resolvent diagrams posing as resolutions.
    """
    pair = approx.pair
    per_object = {}
    for d in pair.d_objects:
        v = _verdict_for_map(approx.xi.comps[d], approx.exact_through)
        per_object[d] = v.status != "fails"
    report = {"d_weq": all(per_object.values()), "per_object": per_object,
              "lifting_checks": []}

    for (c, d0, lam0) in _collapse_contexts(pair, max_lift_checks):
        at = {a: x.at[a] for a in x.cat.objects}
        at[c] = x.at[d0]
        on = {}
        for m, (s, t) in x.cat.mor.items():
            if x.cat.is_identity(m):
                continue
            if t != c:
                on[m] = x.on[m]
            else:
                mp = next(mm for mm in x.cat.hom(s, d0)
                          if x.cat.compose(lam0, mm) == m)
                on[m] = x.on[mp]
        try:
            y = make_diagram(x.cat, at, on)
            p_comps = {a: identity_map(x.at[a]) for a in x.cat.objects}
            p_comps[c] = x.on[lam0]
            p_nat = make_nat(y, x, p_comps)
        except Exception as exc:  # context turned out not to collapse
            report["lifting_checks"].append(
                {"focus": c, "via": (d0, lam0), "lift_found": None,
                 "note": "context rejected: %s" % exc})
            continue
        lift = solve_nat_lifting_zero(p_nat, approx.xi)
        report["lifting_checks"].append(
            {"focus": c, "via": (d0, lam0), "lift_found": lift is not None})
    report["ok"] = report["d_weq"] and all(
        rec["lift_found"] in (True, None) for rec in report["lifting_checks"])
    return report
