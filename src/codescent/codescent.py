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
  last agreeing chain degree.

* ``ind-base``: resolve the restriction to D first (identity when the
  full subcategory on D is discrete - over a field every single complex
  is already resolvent - otherwise the bar construction over (D, D)),
  then extend along the inclusion by objectwise colimits.

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
    Diagram, NatTrans, left_kan, make_diagram, make_nat, restrict_along,
    restrict_to_subset, solve_nat_lifting_zero,
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


def _exactness_bound(x: Diagram, cutoff: int) -> int:
    return cutoff + x.lo() - 1


def bar_approximation(x: Diagram, pair: CatPair, cutoff: int | None = None) -> Approximation:
    """Normalized bar resolution of a diagram along a pair.

    The value at an object c totals blocks indexed by strings
    (f_1, ..., f_n, lam): the f_i composable non-identity morphisms in the
    full subcategory on D, lam any morphism from their end to c; the block
    carries the value complex at the string's start, shifted up by n.  The
    differential combines the internal differential (sign (-1)^n), the
    application of f_1 to the coefficient, the pairwise compositions
    inside the string (terms whose composite is an identity are dropped -
    that is the normalization) and absorption of f_n into lam.

    The comparison map applies lam on the string-free column.  Columns are
    cut at ``cutoff`` when the full subcategory on D is not directed (and
    on a directed pair too, when an explicit cutoff undercuts the natural
    string-length bound); see the module docstring for the degree range a
    truncation certifies.
    """
    if x.cat != pair.cat:
        raise UnknownObject("diagram and pair live on different categories")
    cat = pair.cat
    sub = full_subcategory(cat, pair.d_objects)
    directed = is_directed_pair(pair)
    p = x.prime

    natural = max(len(sub.objects) - 1, 0)
    if directed and (cutoff is None or int(cutoff) >= natural):
        max_len = natural
        used_cutoff = None
        exact_through = math.inf
    else:
        used_cutoff = default_cutoff(x, pair) if cutoff is None else int(cutoff)
        if used_cutoff < 0:
            raise BadShapeParams("cutoff must be >= 0")
        max_len = used_cutoff
        exact_through = _exactness_bound(x, used_cutoff)

    levels = _paths_in(sub, max_len)

    # Per object: ordered blocks and their positions.
    blocks: dict[str, list[list[tuple]]] = {}
    pos: dict[str, list[dict]] = {}
    for c in cat.objects:
        cols = []
        idx = []
        for n, level in enumerate(levels):
            col = []
            where = {}
            for (d0, fs, dn) in level:
                for lam in cat.hom(dn, c):
                    where[(fs, lam)] = len(col)
                    col.append((d0, fs, dn, lam))
            cols.append(col)
            idx.append(where)
        blocks[c] = cols
        pos[c] = idx

    lo = x.lo()
    hi = x.hi()

    def block_dims(c: str, t: int):
        """Ordered (n, block, start offset, size) at total degree t."""
        out = []
        off = 0
        for n, col in enumerate(blocks[c]):
            j = t - n
            if j < lo or j > hi:
                continue
            for b, (d0, fs, dn, lam) in enumerate(col):
                k = x.at[d0].dim(j)
                if k:
                    out.append((n, b, off, k))
                    off += k
        return out, off

    cells = set().union(*(x.at[d].dims for d in pair.dset))
    at: dict[str, ChainComplex] = {}
    offsets: dict[str, dict[int, dict]] = {}
    for c in cat.objects:
        dims = {}
        offsets[c] = {}
        # only total degrees that carry a block: a degree gap costs nothing
        for t in sorted({j + n for j in cells for n in range(len(blocks[c]))}):
            layout, total = block_dims(c, t)
            offsets[c][t] = {(n, b): (off, k) for (n, b, off, k) in layout}
            if total:
                dims[t] = total
        diff = {}
        for t in dims:
            rows = sum(k for _, k in offsets[c].get(t - 1, {}).values())
            if rows == 0:
                continue
            m = _modp.zeros(rows, dims[t])
            tgt_off = offsets[c][t - 1]
            for (n, b), (off, k) in offsets[c][t].items():
                d0, fs, dn, lam = blocks[c][n][b]
                j = t - n
                # internal differential, sign (-1)^n
                key = (n, b)
                if key in tgt_off:
                    sign = 1 if n % 2 == 0 else p - 1
                    blk = np.mod(sign * x.at[d0].d(j), p)
                    ro = tgt_off[key][0]
                    m[ro : ro + blk.shape[0], off : off + k] = np.mod(
                        m[ro : ro + blk.shape[0], off : off + k] + blk, p)
                if n == 0:
                    continue
                # face 0: apply X(f_1) to the coefficient
                f1 = fs[0]
                b2 = pos[c][n - 1].get((fs[1:], lam))
                if b2 is not None:
                    key2 = (n - 1, b2)
                    if key2 in tgt_off:
                        blk = x.on[f1].component(j)
                        ro = tgt_off[key2][0]
                        m[ro : ro + blk.shape[0], off : off + k] = np.mod(
                            m[ro : ro + blk.shape[0], off : off + k] + blk, p)
                # inner faces: compose f_{i+1} o f_i, dropped if identity
                for i in range(1, n):
                    comp_i = sub.compose(fs[i], fs[i - 1])
                    if sub.is_identity(comp_i):
                        continue
                    new_fs = fs[: i - 1] + (comp_i,) + fs[i + 1 :]
                    b2 = pos[c][n - 1].get((new_fs, lam))
                    if b2 is None:
                        continue
                    key2 = (n - 1, b2)
                    if key2 in tgt_off:
                        sign = 1 if i % 2 == 0 else p - 1
                        ro = tgt_off[key2][0]
                        blk = np.mod(sign * _modp.eye(k), p)
                        m[ro : ro + k, off : off + k] = np.mod(
                            m[ro : ro + k, off : off + k] + blk, p)
                # last face: absorb f_n into lam
                new_lam = cat.compose(lam, fs[n - 1])
                b2 = pos[c][n - 1].get((fs[: n - 1], new_lam))
                if b2 is not None:
                    key2 = (n - 1, b2)
                    if key2 in tgt_off:
                        sign = 1 if n % 2 == 0 else p - 1
                        ro = tgt_off[key2][0]
                        blk = np.mod(sign * _modp.eye(k), p)
                        m[ro : ro + k, off : off + k] = np.mod(
                            m[ro : ro + k, off : off + k] + blk, p)
            if m.any():
                diff[t] = m
        at[c] = ChainComplex(p, dims, diff)

    on: dict[str, ChainMap] = {}
    for g, (c1, c2) in cat.mor.items():
        comps = {}
        for t in sorted(at[c1].dims):
            if at[c2].dim(t) == 0:
                continue
            m = _modp.zeros(at[c2].dim(t), at[c1].dim(t))
            for (n, b), (off, k) in offsets[c1][t].items():
                d0, fs, dn, lam = blocks[c1][n][b]
                b2 = pos[c2][n][(fs, cat.compose(g, lam))]
                off2, k2 = offsets[c2][t][(n, b2)]
                m[off2 : off2 + k, off : off + k] = _modp.eye(k)
            if m.any():
                comps[t] = m
        on[g] = ChainMap(at[c1], at[c2], comps)
    qx = Diagram(cat, at, on)

    xi_comps = {}
    for c in cat.objects:
        comps = {}
        for t in sorted(qx.at[c].dims):
            rows = x.at[c].dim(t)
            if rows == 0:
                continue
            m = _modp.zeros(rows, qx.at[c].dim(t))
            for (n, b), (off, k) in offsets[c][t].items():
                if n != 0:
                    continue
                d0, fs, dn, lam = blocks[c][0][b]
                blk = x.on[lam].component(t)
                m[:, off : off + k] = blk
            if m.any():
                comps[t] = m
        xi_comps[c] = ChainMap(qx.at[c], x.at[c], comps)
    xi = NatTrans(qx, x, xi_comps)

    sizes = {c: [len(col) for col in blocks[c]] for c in cat.objects}
    return Approximation(qx, xi, pair, "bar", directed, used_cutoff,
                         exact_through, column_sizes=sizes)


# ---------------------------------------------------------------------------
# Induced-base approximation
# ---------------------------------------------------------------------------

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
    """
    if x.cat != pair.cat:
        raise UnknownObject("diagram and pair live on different categories")
    cat = pair.cat
    if sub is None:
        sub = full_subcategory(cat, pair.d_objects)
    else:
        if tuple(sub.objects) != pair.d_objects or not is_full_subcategory(sub, cat):
            raise DNotFull("the base subcategory must be the full one on the subset")
    if not sub.objects:
        # colimit over nothing: the resolution is zero everywhere
        p = x.prime
        at = {a: zero_complex(p) for a in cat.objects}
        on = {m: zero_map(at[s], at[t]) for m, (s, t) in cat.mor.items()}
        qx = Diagram(cat, at, on)
        xi = NatTrans(qx, x, {a: zero_map(qx.at[a], x.at[a]) for a in cat.objects})
        return Approximation(qx, xi, pair, "ind-base", True, None, math.inf,
                             base="identity")
    discrete = not sub.non_identity_morphisms()

    if base == "auto":
        base = "identity" if discrete else "bar"
    if base == "identity" and not discrete:
        raise BadShapeParams(
            "identity base is only valid when the full subcategory on the "
            "subset is discrete; use base='bar'")
    if base not in ("identity", "bar"):
        raise BadShapeParams("base must be auto, identity or bar")

    incl = inclusion_functor(sub, cat)
    res_x = restrict_along(incl, x)

    if base == "identity":
        inner = res_x
        zeta = {d: identity_map(res_x.at[d]) for d in sub.objects}
        directed = True
        used_cutoff = None
        exact_through = math.inf
    else:
        inner_pair = CatPair(sub, frozenset(sub.objects))
        inner_approx = bar_approximation(res_x, inner_pair, cutoff=cutoff)
        inner = inner_approx.diagram
        zeta = inner_approx.xi.comps
        directed = inner_approx.directed
        used_cutoff = inner_approx.cutoff
        exact_through = inner_approx.exact_through

    lk = left_kan(incl, inner)
    qx = lk.diagram
    xi_comps = {}
    for c in cat.objects:
        if c in lk.colimits:
            legs = {o: compose(x.on[beta], zeta[a])
                    for o, (a, beta) in lk.commas[c].obj_data.items()}
            xi_comps[c] = lk.colimits[c].induced(legs, x.at[c])
        else:
            xi_comps[c] = zero_map(qx.at[c], x.at[c])
    xi = NatTrans(qx, x, xi_comps)
    return Approximation(qx, xi, pair, "ind-base", directed, used_cutoff,
                         exact_through, base=base)


def approximate(x: Diagram, pair: CatPair, strategy: str = "bar",
                cutoff: int | None = None) -> Approximation:
    if strategy == "bar":
        return bar_approximation(x, pair, cutoff=cutoff)
    if strategy in ("ind-base", "ind_base"):
        return ind_base_approximation(x, pair, base="auto", cutoff=cutoff)
    raise BadShapeParams("strategy must be 'bar' or 'ind-base'")


# ---------------------------------------------------------------------------
# Verdicts at objects, and the locus
# ---------------------------------------------------------------------------

def _verdict_for_map(f: ChainMap, exact_through) -> CodescentVerdict:
    through = None if exact_through is math.inf else int(exact_through)
    return _verdict_from_failure(first_homology_failure(f, through), exact_through)


def codescent_at(x: Diagram, pair: CatPair, c: str, strategy: str = "bar",
                 cutoff: int | None = None,
                 approx: Approximation | None = None) -> CodescentVerdict:
    """Verdict at one object.  On the distinguished subset the answer is
    always Holds (the comparison map is a weak equivalence there by
    construction)."""
    if c not in set(pair.cat.objects):
        raise UnknownObject("no object %r" % c)
    if c in pair.dset:
        return HOLDS
    if approx is None:
        approx = approximate(x, pair, strategy, cutoff)
    return _verdict_for_map(approx.xi.comps[c], approx.exact_through)


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
    approx = approximate(x, pair, strategy, cutoff)
    verdicts = {}
    for c in pair.cat.objects:
        if c in pair.dset:
            verdicts[c] = HOLDS
        else:
            verdicts[c] = _verdict_for_map(approx.xi.comps[c], approx.exact_through)
    return CodescentReport(pair, approx.strategy, approx.cutoff,
                           approx.directed, approx.exact_through, verdicts)


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
