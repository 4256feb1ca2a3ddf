"""Diagrams of chain complexes over a finite category, and Kan extensions.

A diagram assigns a bounded complex to every object and a chain map to
every morphism, functorially.  Restriction, left and right Kan extension
along a functor, their unit/counit transformations and adjoint transposes
are all computed through the exact finite colimits of
:mod:`codescent.chaincx`; each right-hand construction is the left-hand
one along Phi^op with the values dualised.  Every construction here is
deterministic, so repeating a construction yields identical matrices
(several round-trip laws in the test suite rely on this).

Input is checked once, where it enters: :func:`make_diagram` and
:func:`make_nat` validate data from outside the package (the functor and
naturality laws; each component is a :class:`ChainMap` that
:func:`~codescent.chaincx.make_map` validated when it was built).  The
package's own constructions (Kan extensions, restrictions, resolutions)
hold by construction and use the plain :class:`Diagram` and
:class:`NatTrans` constructors; the test suite re-validates them.

Convention worth stating once: the value category has a zero object which
is both initial and terminal, so colimits over an empty index category
and limits over an empty index category are both the zero complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _modp
from .chaincx import (
    ChainComplex, ChainMap, Colimit,
    PrimeMismatch, ShapeMismatch, NonCommutingSquare, _dual, _dual_map,
    compose, direct_sum, finite_colimit, identity_map,
    tensor, tensor_maps, zero_complex, zero_map,
)
from .fincat import (
    CommaCat, FinCat, FunctorData, NotAFunctor, UnknownObject,
    BadShapeParams, _comma_object, _opposite, _opposite_functor,
    comma, full_subcategory, inclusion_functor,
)


class NotNatural(Exception):
    pass


class InvalidWitness(Exception):
    pass


# ---------------------------------------------------------------------------
# Diagrams and natural transformations
# ---------------------------------------------------------------------------

class Diagram:
    __slots__ = ("cat", "at", "on")

    def __init__(self, cat: FinCat, at: dict[str, ChainComplex], on: dict[str, ChainMap]):
        self.cat = cat
        self.at = dict(at)
        self.on = dict(on)

    @property
    def prime(self) -> int:
        if not self.at:
            raise ShapeMismatch("empty diagram has no prime")
        return next(iter(self.at.values())).prime

    def lo(self) -> int:
        degs = [cx.lo for cx in self.at.values() if cx.dims]
        return min(degs) if degs else 0

    def hi(self) -> int:
        degs = [cx.hi for cx in self.at.values() if cx.dims]
        return max(degs) if degs else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.cat == other.cat and self.at == other.at and self.on == other.on

    def __repr__(self) -> str:
        return "Diagram(%r)" % (self.cat,)


def make_diagram(cat: FinCat, at: dict, on: dict) -> Diagram:
    """Validate diagram data from outside the package into a functor.

    Identity morphisms may be omitted from ``on`` (identity maps are
    filled in); everything else must be present and must satisfy the
    functor laws: identities go to identity maps, and composites are
    checked on every composable pair of non-identity morphisms (a pair
    with an identity follows from the identity check, since
    ``FinCat.compose(g, id)`` is g).  The maps are taken as chain maps,
    which :func:`~codescent.chaincx.make_map` checked when it built them.
    The package's own constructions use :class:`Diagram` directly.
    """
    missing = set(cat.objects) - set(at)
    if missing:
        raise UnknownObject("no value at objects %r" % sorted(missing))
    primes = {cx.prime for cx in at.values()}
    if len(primes) > 1:
        raise PrimeMismatch("values over several primes: %r" % sorted(primes))
    full_on = dict(on)
    for a in cat.objects:
        i = cat.identity[a]
        if i not in full_on:
            full_on[i] = identity_map(at[a])
    for m in cat.mor:
        if m not in full_on:
            raise NotAFunctor("no map along morphism %r" % m)
        f = full_on[m]
        s, t = cat.mor[m]
        if f.source != at[s] or f.target != at[t]:
            raise NotAFunctor("map along %r has wrong endpoints" % m)
    for a in cat.objects:
        i = cat.identity[a]
        if full_on[i] != identity_map(at[a]):
            raise NotAFunctor("identity of %r is not sent to the identity map" % a)
    plain = [(m, s, t) for m, (s, t) in cat.mor.items() if not cat.is_identity(m)]
    for f, fs, ft in plain:
        for g, gs, gt in plain:
            if gs != ft:
                continue
            h = cat.compose(g, f)
            if compose(full_on[g], full_on[f]) != full_on[h]:
                raise NotAFunctor("composition fails on (%s, %s)" % (g, f))
    return Diagram(cat, at, full_on)


class NatTrans:
    __slots__ = ("source", "target", "comps")

    def __init__(self, source: Diagram, target: Diagram, comps: dict[str, ChainMap]):
        self.source = source
        self.target = target
        self.comps = dict(comps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NatTrans):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.comps == other.comps)

    def __repr__(self) -> str:
        return "NatTrans(on %r)" % (self.source.cat,)


def make_nat(source: Diagram, target: Diagram, comps: dict) -> NatTrans:
    """Validate the components of a transformation from outside the package.

    Every object needs a component with the right endpoints, and every
    naturality square along a non-identity morphism must commute (along
    an identity it commutes, both diagrams sending identities to identity
    maps).  Components are taken as chain maps,
    checked by :func:`~codescent.chaincx.make_map` when built.  The
    package's own constructions use :class:`NatTrans` directly.
    """
    if source.cat != target.cat:
        raise NotNatural("transformation between diagrams on different categories")
    for a in source.cat.objects:
        f = comps.get(a)
        if f is None:
            raise NotNatural("no component at %r" % a)
        if f.source != source.at[a] or f.target != target.at[a]:
            raise NotNatural("component at %r has wrong endpoints" % a)
    for m, (s, t) in source.cat.mor.items():
        if source.cat.is_identity(m):
            continue
        lhs = compose(target.on[m], comps[s])
        rhs = compose(comps[t], source.on[m])
        if lhs != rhs:
            raise NotNatural("naturality fails along %r" % m)
    return NatTrans(source, target, comps)


def identity_nat(x: Diagram) -> NatTrans:
    return NatTrans(x, x, {a: identity_map(x.at[a]) for a in x.cat.objects})


def compose_nat(eta2: NatTrans, eta1: NatTrans) -> NatTrans:
    if eta1.target != eta2.source:
        raise NotNatural("non-composable transformations")
    comps = {a: compose(eta2.comps[a], eta1.comps[a]) for a in eta1.source.cat.objects}
    return NatTrans(eta1.source, eta2.target, comps)


def _dual_diagram(x: Diagram) -> Diagram:
    """X* on the opposite category: X(a)* at a and X(m)^T along m."""
    at = {a: _dual(cx) for a, cx in x.at.items()}
    on = {m: _dual_map(f, at[x.cat.target(m)], at[x.cat.source(m)]) for m, f in x.on.items()}
    return Diagram(_opposite(x.cat), at, on)


def _dual_nat(eta: NatTrans) -> NatTrans:
    """eta* : target* -> source*, componentwise transposed."""
    source, target = _dual_diagram(eta.target), _dual_diagram(eta.source)
    return NatTrans(source, target, {a: _dual_map(f, source.at[a], target.at[a])
                                     for a, f in eta.comps.items()})


# ---------------------------------------------------------------------------
# Restriction
# ---------------------------------------------------------------------------

def restrict_along(phi: FunctorData, x: Diagram) -> Diagram:
    """Precompose a diagram on the target with a functor (strictly)."""
    if x.cat != phi.target:
        raise NotAFunctor("diagram does not live on the functor's target")
    at = {a: x.at[phi.on_obj(a)] for a in phi.source.objects}
    on = {m: x.on[phi.on_mor(m)] for m in phi.source.mor}
    return Diagram(phi.source, at, on)


def restrict_nat_along(phi: FunctorData, eta: NatTrans) -> NatTrans:
    return NatTrans(restrict_along(phi, eta.source),
                    restrict_along(phi, eta.target),
                    {a: eta.comps[phi.on_obj(a)] for a in phi.source.objects})


def restrict_to_subset(x: Diagram, objs) -> tuple[Diagram, FunctorData]:
    """Restrict to the full subcategory on ``objs``; also return the inclusion."""
    sub = full_subcategory(x.cat, objs)
    incl = inclusion_functor(sub, x.cat)
    return restrict_along(incl, x), incl


# ---------------------------------------------------------------------------
# Kan extensions
# ---------------------------------------------------------------------------

@dataclass
class LeftKan:
    """Left Kan extension: objectwise colimit over the comma categories
    (a, beta : Phi(a) -> c).  ``unit`` : Y -> restrict(extension)."""

    diagram: Diagram
    unit: NatTrans
    commas: dict[str, CommaCat]
    colimits: dict[str, Colimit]


@dataclass
class RightKan:
    """Right Kan extension: objectwise limit over the comma categories
    (a, beta : c -> Phi(a)).  ``counit`` : restrict(extension) -> Y."""

    diagram: Diagram
    counit: NatTrans


def _comma_values(cm: CommaCat, y: Diagram):
    at = {o: y.at[a] for o, (a, _) in cm.obj_data.items()}
    on = {m: y.on[alpha] for m, alpha in cm.mor_data.items()}
    return at, on


def left_mate(lk: LeftKan, x: Diagram, eta: dict) -> dict[str, ChainMap]:
    """The components of the mate extension(Y) -> X of eta : Y -> restrict(X)
    across (left extension, restriction), induced by the legs X(beta) o eta_a."""
    def at(c):
        legs = {o: compose(x.on[beta], eta[a]) for o, (a, beta) in lk.commas[c].obj_data.items()}
        return lk.colimits[c].induced(legs, x.at[c])
    return {c: at(c) if c in lk.colimits else zero_map(lk.diagram.at[c], x.at[c])
            for c in lk.diagram.cat.objects}


def left_kan(phi: FunctorData, y: Diagram, prime: int | None = None) -> LeftKan:
    """Objectwise colimits over the commas (a, beta : Phi(a) -> c), zero
    where a comma is empty.  Y on an empty category has no prime to give
    those zeros (reading it raises ShapeMismatch): pass it as ``prime``."""
    if y.cat != phi.source:
        raise NotAFunctor("diagram does not live on the functor's source")
    p = prime if prime is not None and not y.at else y.prime
    commas: dict[str, CommaCat] = {}
    colimits: dict[str, Colimit] = {}
    at: dict[str, ChainComplex] = {}
    for c in phi.target.objects:
        cm = commas[c] = comma(phi, c)
        if cm.cat.objects:
            colimits[c] = finite_colimit(cm.cat, *_comma_values(cm, y))
            at[c] = colimits[c].complex
        else:
            at[c] = zero_complex(p)

    on: dict[str, ChainMap] = {}
    for g, (c1, c2) in phi.target.mor.items():
        if not commas[c1].cat.objects:
            on[g] = zero_map(at[c1], at[c2])
            continue
        legs = {}
        for o, (a, beta) in commas[c1].obj_data.items():
            beta2 = phi.target.compose(g, beta)
            o2 = _comma_object(a, beta2)
            legs[o] = colimits[c2].injections[o2]  # (a, beta2) lies in the comma at c2
        on[g] = colimits[c1].induced(legs, at[c2])
    lk = Diagram(phi.target, at, on)

    unit_comps = {}
    res_lk = restrict_along(phi, lk)
    for a in phi.source.objects:
        fa = phi.on_obj(a)
        o = _comma_object(a, phi.target.identity[fa])
        unit_comps[a] = colimits[fa].injections[o]
    unit = NatTrans(y, res_lk, unit_comps)
    return LeftKan(lk, unit, commas, colimits)


def right_kan(phi: FunctorData, y: Diagram, prime: int | None = None) -> RightKan:
    """Objectwise limits over the commas (a, beta : c -> Phi(a)), zero
    where a comma is empty; ``prime`` as for :func:`left_kan`.

    Over a field this is (Lan_{Phi^op} Y*)*, matrix for matrix: the kernel
    of a limit's difference map is the transposed cokernel of its
    transpose, both read off one row reduction, and the counit is the
    dual of that unit.
    """
    lk = left_kan(_opposite_functor(phi), _dual_diagram(y), prime)
    return RightKan(_dual_diagram(lk.diagram), _dual_nat(lk.unit))


# ---------------------------------------------------------------------------
# Adjoint transposes
# ---------------------------------------------------------------------------

def adjoint_transpose(direction: str, phi: FunctorData, eta: NatTrans,
                      against: Diagram, to: str) -> NatTrans:
    """Mate of a transformation across an extension/restriction adjunction.

    ``direction="left"`` is the adjunction (left extension, restriction):
      * ``to="target"``: eta : Y -> restrict(X) becomes  extension(Y) -> X,
        with ``against = X``;
      * ``to="source"``: eta : extension(Y) -> X becomes Y -> restrict(X),
        with ``against = Y``.

    ``direction="right"`` is (restriction, right extension):
      * ``to="target"``: eta : restrict(X) -> Y becomes X -> extension(Y),
        with ``against = X``;
      * ``to="source"``: eta : X -> extension(Y) becomes restrict(X) -> Y,
        with ``against = Y``.

    The right transposes are the left ones along Phi^op, dualised.  Both
    constructions are deterministic, so transposing twice returns a
    transformation equal (matrix by matrix) to the input.
    """
    if direction not in ("left", "right") or to not in ("source", "target"):
        raise BadShapeParams("direction in {left, right}, to in {source, target}")
    right = direction == "right"
    if right:
        phi, eta, against = _opposite_functor(phi), _dual_nat(eta), _dual_diagram(against)
    if to == "target":
        x, y = against, eta.source
        if eta.target != restrict_along(phi, x):
            raise NotNatural("transformation does not %s the restriction"
                             % ("start at" if right else "land in"))
        lk = left_kan(phi, y, x.prime)
        out = make_nat(lk.diagram, x, left_mate(lk, x, eta.comps))
    else:
        y, x = against, eta.target
        lk = left_kan(phi, y, x.prime)
        if eta.source != lk.diagram:
            raise NotNatural("transformation does not %s the extension"
                             % ("land in" if right else "start at"))
        out = compose_nat(restrict_nat_along(phi, eta), lk.unit)
    return _dual_nat(out) if right else out


# ---------------------------------------------------------------------------
# Glossy decomposition formulas
# ---------------------------------------------------------------------------

def glossy_formula_check(side: str, phi: FunctorData, witnesses: dict, y: Diagram):
    """Check the witness decomposition of a restricted extension.

    Right witnesses at b make the canonical map (+)_j Y(b_j) ->
    restrict(left extension of Y)(b) invertible in every degree; left
    witnesses dually make restrict(right extension of Y)(b) ->
    (+)_i Y(b_i) invertible (the witness comma objects are initial in
    their components).  The left check is the right one along Phi^op on
    Y*: its matrices are the transposes, and a matrix is invertible
    exactly when its transpose is.  Returns ``(ok, detail)`` per
    witnessed object.
    """
    p = y.prime
    if side not in ("left", "right"):
        raise BadShapeParams("side must be 'left' or 'right'")
    for b, wit in witnesses.items():
        for a in [b] + [bi for bi, _ in wit]:
            if a not in phi.source.objects:
                raise InvalidWitness("witness object %r is not in the functor's source" % (a,))
    if side == "left":
        return glossy_formula_check("right", _opposite_functor(phi), witnesses, _dual_diagram(y))
    lk = left_kan(phi, y)
    detail = {}
    for b, wit in witnesses.items():
        fb = phi.on_obj(b)
        for bi, beta in wit:
            if _comma_object(bi, beta) not in lk.commas[fb].obj_data:
                raise InvalidWitness("witness (%s, %s) is not a comma object" % (bi, beta))
        value = lk.diagram.at[fb]
        summands = [y.at[bi] for bi, _ in wit]
        total = direct_sum(summands)[0] if summands else zero_complex(p)
        ok = total.dims == value.dims
        for n in value.degrees() if ok else ():
            legs = lk.colimits[fb].injections
            blocks = []
            for bi, beta in wit:
                blocks.append(legs[_comma_object(bi, beta)].component(n))
            if not _modp.is_invertible(np.hstack(blocks), p):
                ok = False
                break
        detail[b] = ok
    return all(detail.values()), detail


# ---------------------------------------------------------------------------
# Value functors and diagram-level lifting
# ---------------------------------------------------------------------------

def apply_value_functor(x: Diagram, functor) -> Diagram:
    """Apply an exact functor of the value category objectwise.

    ``functor`` is ("identity",) or ("tensor", P) for a bounded complex P;
    tensoring with a fixed complex is exact over a field, so it preserves
    weak equivalences, which is what the invariance tests exercise.
    """
    if functor[0] == "identity":
        return x
    if functor[0] == "tensor":
        pcx = functor[1]
        at = {a: tensor(cx, pcx) for a, cx in x.at.items()}
        on = {m: tensor_maps(f, identity_map(pcx)) for m, f in x.on.items()}
        return Diagram(x.cat, at, on)
    raise BadShapeParams("unknown value functor %r" % (functor[0],))


# The one-object category: a single complex is a diagram on it.
_POINT = FinCat(("*",), {"id": ("*", "*")}, {"*": "id"}, {})


def _on_point(f: ChainMap) -> NatTrans:
    ends = [Diagram(_POINT, {"*": cx}, {"id": identity_map(cx)}) for cx in (f.source, f.target)]
    return NatTrans(ends[0], ends[1], {"*": f})


def _lifting_filler(i: NatTrans, p_nat: NatTrans, top: NatTrans, bottom: NatTrans):
    """Components of a natural filler h : B -> X with h o i = top and
    p o h = bottom, or None.

    i : A -> B, top : A -> X, p_nat : X -> Y, bottom : B -> Y live over one
    category.  The chain condition, naturality and both triangles go into
    one exact linear system, flattened with Kronecker products (each
    h(a)_n row by row); there is no iteration and no approximation.
    """
    cat = i.source.cat
    a_dg, b_dg, x_dg = i.source, i.target, p_nat.source
    p = b_dg.prime
    offset = {}
    total = 0
    for a in cat.objects:
        for n in sorted(b_dg.at[a].dims):
            if x_dg.at[a].dim(n):
                offset[(a, n)] = total
                total += x_dg.at[a].dim(n) * b_dg.at[a].dim(n)

    rows = []
    rhs = []

    def emit(nrows, parts, rhs_vec):
        if nrows == 0:
            return
        row = _modp.zeros(nrows, total)
        hit = False
        for key, mat in parts:
            if key in offset:
                o = offset[key]
                row[:, o : o + mat.shape[1]] = np.mod(row[:, o : o + mat.shape[1]] + mat, p)
                hit = True
        if hit or rhs_vec.any():
            rows.append(row)
            rhs.append(np.mod(rhs_vec, p))

    for a in cat.objects:
        aa, ba, xa, ya = a_dg.at[a], b_dg.at[a], x_dg.at[a], p_nat.target.at[a]
        for n in sorted(aa.dims):
            # h(a)_n i(a)_n = top(a)_n
            emit(xa.dim(n) * aa.dim(n),
                 [((a, n), _modp.kron(_modp.eye(xa.dim(n)), i.comps[a].component(n).T, p))],
                 top.comps[a].component(n).reshape(-1))
        for n in sorted(ba.dims):
            # p(a)_n h(a)_n = bottom(a)_n
            emit(ya.dim(n) * ba.dim(n),
                 [((a, n), _modp.kron(p_nat.comps[a].component(n), _modp.eye(ba.dim(n)), p))],
                 bottom.comps[a].component(n).reshape(-1))
            # d_X h(a)_n - h(a)_{n-1} d_B = 0
            nrows = xa.dim(n - 1) * ba.dim(n)
            emit(nrows, [((a, n), _modp.kron(xa.d(n), _modp.eye(ba.dim(n)), p)),
                         ((a, n - 1), _modp.kron(-_modp.eye(xa.dim(n - 1)), ba.d(n).T, p))],
                 np.zeros(nrows, dtype=np.int64))
    for m in cat.non_identity_morphisms():
        a, b = cat.mor[m]
        ba, xb = b_dg.at[a], x_dg.at[b]
        for n in sorted(ba.dims):
            # h(b) B(m) - X(m) h(a) = 0
            nrows = xb.dim(n) * ba.dim(n)
            emit(nrows, [((b, n), _modp.kron(_modp.eye(xb.dim(n)), b_dg.on[m].component(n).T, p)),
                         ((a, n), _modp.kron(-x_dg.on[m].component(n), _modp.eye(ba.dim(n)), p))],
                 np.zeros(nrows, dtype=np.int64))

    flat = _modp.zeros(total, 1)
    if rows:
        flat = _modp.solve(np.vstack(rows), np.concatenate(rhs).reshape(-1, 1), p)
        if flat is None:
            return None
    comps = {a: {} for a in cat.objects}
    for (a, n), o in offset.items():
        r, c = x_dg.at[a].dim(n), b_dg.at[a].dim(n)
        mat = flat[o : o + r * c, 0].reshape(r, c)
        if mat.any():
            comps[a][n] = mat
    return {a: ChainMap(b_dg.at[a], x_dg.at[a], comps[a]) for a in cat.objects}


def solve_lifting(i: ChainMap, p_map: ChainMap, top: ChainMap, bottom: ChainMap):
    """Diagonal filler h with h o i = top and p_map o h = bottom, or None.

    i : A -> B, top : A -> X, p_map : X -> Y, bottom : B -> Y; the square
    p_map o top = bottom o i must commute.  The lifting axiom of the
    model structure, solved exactly as the one-object case of
    :func:`_lifting_filler`.
    """
    if top.source != i.source or top.target != p_map.source:
        raise ShapeMismatch("top map has wrong endpoints")
    if bottom.source != i.target or bottom.target != p_map.target:
        raise ShapeMismatch("bottom map has wrong endpoints")
    if compose(p_map, top) != compose(bottom, i):
        raise NonCommutingSquare(None, "lifting square does not commute")
    comps = _lifting_filler(*(_on_point(f) for f in (i, p_map, top, bottom)))
    return None if comps is None else comps["*"]


def solve_nat_lifting_zero(p_nat: NatTrans, bottom: NatTrans):
    """Natural filler h with p o h = bottom (and no source constraint).

    Searches for a natural transformation ``h : Q -> Y`` with
    ``p_nat o h = bottom`` where ``p_nat : Y -> X`` and ``bottom : Q -> X``
    live over the same category: the lifting problem of
    :func:`_lifting_filler` with i out of the zero diagram.  Returns the
    filler or None.
    """
    if p_nat.target != bottom.target or p_nat.source.cat != bottom.source.cat:
        raise NotNatural("ill-posed lifting problem")
    q, y = bottom.source, p_nat.source
    zero = zero_complex(q.prime)
    z = Diagram(q.cat, {a: zero for a in q.cat.objects},
                {m: zero_map(zero, zero) for m in q.cat.mor})
    i = NatTrans(z, q, {a: zero_map(zero, q.at[a]) for a in q.cat.objects})
    top = NatTrans(z, y, {a: zero_map(zero, y.at[a]) for a in q.cat.objects})
    comps = _lifting_filler(i, p_nat, top, bottom)
    return None if comps is None else NatTrans(q, y, comps)
