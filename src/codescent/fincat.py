"""Finite presented categories, subsets, comma categories and glossiness.

A category is given by explicit data: object names, morphism names with
source/target, a chosen identity per object, and a complete composition
table.  Nothing is inferred beyond the identity laws (these are
desk-scale categories; there is no word-problem solving here).

Input is checked once, where it enters: :func:`make_category` checks the
axioms exhaustively and :func:`make_functor` the functor laws, for data
from outside the package.  The package's own constructions (full
subcategories, opposites, funnels, source restrictions, comma categories,
the shape catalogue, inclusion functors) hold by construction and use the
plain :class:`FinCat` and :class:`FunctorData` constructors; the test
suite re-validates them.

A *pair* is a category together with a distinguished subset of objects.
All the decision procedures downstream (codescent verdicts, surgery
moves) are phrased in terms of pairs.

Right glossiness of Phi is decided as left glossiness of Phi^op, with the
same answer item for item (see :func:`glossy`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class CategoryError(Exception):
    """Base class for category validation failures."""


class MissingComposite(CategoryError):
    pass


class NonAssociative(CategoryError):
    pass


class BadIdentity(CategoryError):
    pass


class UnknownObject(CategoryError):
    pass


class BadShapeParams(CategoryError):
    pass


class NotAFunctor(CategoryError):
    pass


# ---------------------------------------------------------------------------
# Categories
# ---------------------------------------------------------------------------

class FinCat:
    """Finite category; treat instances as immutable.

    The constructor fills in the identity-law composites (m o id = m,
    id o m = m) missing from ``comp``; everything else is taken as given.
    Data from outside the package goes through :func:`make_category`.
    ``_facts`` keeps what callers derive once (sorted tables, directedness
    per subset, the opposite), which stays true as nothing edits an instance."""

    __slots__ = ("objects", "mor", "identity", "comp", "_hom", "_ident_names", "_facts")

    def __init__(self, objects, mor, identity, comp):
        self.objects = tuple(objects)
        self.mor = dict(mor)            # name -> (src, tgt)
        self.identity = dict(identity)  # object -> identity morphism name
        self.comp = dict(comp)          # (g, f) -> g o f, totality per axioms
        for m, (s, t) in self.mor.items():
            self.comp.setdefault((m, self.identity[s]), m)
            self.comp.setdefault((self.identity[t], m), m)
        self._ident_names = frozenset(self.identity.values())
        hom: dict[tuple[str, str], list[str]] = {}
        for name in sorted(self.mor):
            s, t = self.mor[name]
            hom.setdefault((s, t), []).append(name)
        self._hom = hom
        self._facts: dict = {}

    # -- lookups ------------------------------------------------------------

    def source(self, m: str) -> str:
        return self.mor[m][0]

    def target(self, m: str) -> str:
        return self.mor[m][1]

    def is_identity(self, m: str) -> bool:
        return m in self._ident_names

    def hom(self, a: str, b: str) -> list[str]:
        return list(self._hom.get((a, b), []))

    def non_identity_morphisms(self) -> list[str]:
        return [m for m in sorted(self.mor) if m not in self._ident_names]

    def compose(self, g: str, f: str) -> str:
        """g o f (f first).  Raises MissingComposite when undeclared."""
        if self.target(f) != self.source(g):
            raise MissingComposite("non-composable pair (%s, %s)" % (g, f))
        if self.is_identity(f):
            return g
        if self.is_identity(g):
            return f
        try:
            return self.comp[(g, f)]
        except KeyError:
            raise MissingComposite("no composite recorded for (%s, %s)" % (g, f)) from None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FinCat):
            return NotImplemented
        return (self.objects == other.objects and self.mor == other.mor
                and self.identity == other.identity and self.comp == other.comp)

    def __repr__(self) -> str:
        return "FinCat(%d objects, %d morphisms)" % (len(self.objects), len(self.mor))


def make_category(objects, morphisms, identities, composition) -> FinCat:
    """Validate raw data into a :class:`FinCat`.

    ``morphisms`` maps name -> (src, tgt); ``identities`` maps object ->
    morphism name; ``composition`` maps (g, f) -> composite name for every
    composable pair of non-identity morphisms.  Identity-law composites
    are cross-checked if supplied; :class:`FinCat` fills in the others.
    """
    objects = tuple(objects)
    if len(set(objects)) != len(objects):
        raise UnknownObject("duplicate object names")
    obj_set = set(objects)
    mor = {}
    for name, (s, t) in dict(morphisms).items():
        if s not in obj_set or t not in obj_set:
            raise UnknownObject("morphism %r has endpoint outside the category" % name)
        mor[name] = (s, t)
    identity = dict(identities)
    for a in objects:
        if a not in identity:
            raise BadIdentity("object %r has no identity morphism" % a)
        i = identity[a]
        if i not in mor or mor[i] != (a, a):
            raise BadIdentity("identity of %r must be an endomorphism of it" % a)
    ident_names = set(identity.values())
    if len(ident_names) != len(objects):
        raise BadIdentity("identity morphisms must be pairwise distinct")

    comp = {}
    for (g, f), h in dict(composition).items():
        if g not in mor or f not in mor or h not in mor:
            raise MissingComposite("composition entry (%s, %s) -> %s uses unknown names" % (g, f, h))
        if mor[f][1] != mor[g][0]:
            raise MissingComposite("entry (%s, %s) is not composable" % (g, f))
        if (mor[h][0], mor[h][1]) != (mor[f][0], mor[g][1]):
            raise MissingComposite("composite of (%s, %s) has wrong endpoints" % (g, f))
        comp[(g, f)] = h
    # identity laws: cross-check supplied entries (FinCat fills in the rest)
    for m, (s, t) in mor.items():
        for key in ((m, identity[s]), (identity[t], m)):
            if comp.get(key, m) != m:
                raise BadIdentity("identity law violated at %r" % (key,))
    # totality over non-identity composable pairs
    plain = [(m, s, t) for m, (s, t) in mor.items() if m not in ident_names]
    for f, fs, ft in plain:
        for g, gs, gt in plain:
            if gs == ft and (g, f) not in comp:
                raise MissingComposite("no composite recorded for (%s, %s)" % (g, f))
    cat = FinCat(objects, mor, identity, comp)
    # associativity, exhaustively on non-identity triples: a triple with an
    # identity holds by the identity laws checked above
    for f, fs, ft in plain:
        for g, gs, gt in plain:
            if gs != ft:
                continue
            gf = cat.compose(g, f)
            for h, hs, ht in plain:
                if hs != gt:
                    continue
                left = cat.compose(h, gf)
                right = cat.compose(cat.compose(h, g), f)
                if left != right:
                    raise NonAssociative("(%s o %s) o %s != %s o (%s o %s)" % (h, g, f, h, g, f))
    return cat


@dataclass(frozen=True)
class CatPair:
    """A category with a distinguished subset of objects."""

    cat: FinCat
    dset: frozenset[str]

    def __post_init__(self):
        extra = set(self.dset) - set(self.cat.objects)
        if extra:
            raise UnknownObject("distinguished subset leaves the category: %r" % sorted(extra))
        object.__setattr__(self, "dset", frozenset(self.dset))

    @property
    def d_objects(self) -> tuple[str, ...]:
        return tuple(a for a in self.cat.objects if a in self.dset)

    @property
    def complement(self) -> tuple[str, ...]:
        return tuple(a for a in self.cat.objects if a not in self.dset)


# ---------------------------------------------------------------------------
# Functors
# ---------------------------------------------------------------------------

class FunctorData:
    __slots__ = ("source", "target", "obj_map", "mor_map")

    def __init__(self, source: FinCat, target: FinCat, obj_map: dict, mor_map: dict):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)

    def on_obj(self, a: str) -> str:
        return self.obj_map[a]

    def on_mor(self, m: str) -> str:
        return self.mor_map[m]

    def __repr__(self) -> str:
        return "FunctorData(%r -> %r)" % (self.source, self.target)


def make_functor(source: FinCat, target: FinCat, obj_map: dict, mor_map: dict) -> FunctorData:
    """Validate functor data (totality, endpoints, identities, composites)."""
    for a in source.objects:
        if obj_map.get(a) not in set(target.objects):
            raise NotAFunctor("object %r not mapped into the target" % a)
    for m, (s, t) in source.mor.items():
        fm = mor_map.get(m)
        if fm not in target.mor:
            raise NotAFunctor("morphism %r not mapped" % m)
        if target.mor[fm] != (obj_map[s], obj_map[t]):
            raise NotAFunctor("image of %r has wrong endpoints" % m)
    for a in source.objects:
        if mor_map[source.identity[a]] != target.identity[obj_map[a]]:
            raise NotAFunctor("identity of %r not preserved" % a)
    for f in source.mor:
        for g in source.mor:
            if source.mor[g][0] != source.mor[f][1]:
                continue
            lhs = mor_map[source.compose(g, f)]
            rhs = target.compose(mor_map[g], mor_map[f])
            if lhs != rhs:
                raise NotAFunctor("composition not preserved on (%s, %s)" % (g, f))
    return FunctorData(source, target, obj_map, mor_map)


def full_subcategory(cat: FinCat, objs) -> FinCat:
    keep = [a for a in cat.objects if a in set(objs)]
    missing = set(objs) - set(cat.objects)
    if missing:
        raise UnknownObject("not objects of the category: %r" % sorted(missing))
    keep_set = set(keep)
    return _subcategory(cat, keep, {m: st for m, st in cat.mor.items()
                                    if st[0] in keep_set and st[1] in keep_set})


def _subcategory(cat: FinCat, keep, mor: dict) -> FinCat:
    """The subcategory on objects ``keep`` and morphisms ``mor``, which
    must hold their identities and be closed under composition."""
    comp = {(g, f): h for (g, f), h in cat.comp.items()
            if g in mor and f in mor and h in mor}
    return FinCat(keep, mor, {a: cat.identity[a] for a in keep}, comp)


def inclusion_functor(sub: FinCat, amb: FinCat) -> FunctorData:
    """Inclusion of a subcategory whose names are shared with the ambient."""
    return FunctorData(sub, amb, {a: a for a in sub.objects}, {m: m for m in sub.mor})


def _opposite(cat: FinCat) -> FinCat:
    """The opposite category, on the same names: m : a -> b becomes
    m : b -> a and g o f becomes f o g.  Kept in both categories' facts,
    so the opposite of the opposite is ``cat`` itself."""
    op = cat._facts.get("op")
    if op is None:
        op = FinCat(cat.objects, {m: (t, s) for m, (s, t) in cat.mor.items()}, cat.identity,
                    {(f, g): h for (g, f), h in cat.comp.items()})
        cat._facts["op"], op._facts["op"] = op, cat
    return op


def _opposite_functor(phi: FunctorData) -> FunctorData:
    """Phi^op : source^op -> target^op, on the same names."""
    return FunctorData(_opposite(phi.source), _opposite(phi.target), phi.obj_map, phi.mor_map)


# ---------------------------------------------------------------------------
# Comma categories
# ---------------------------------------------------------------------------

class CommaCat:
    """Comma category of a functor against a base object: the pairs
    (a, beta : Phi(a) -> b), named by :func:`_comma_object`.  The pairs
    (a, beta : b -> Phi(a)) are the comma of Phi^op
    (:func:`_opposite_functor`).  The result carries the underlying
    :class:`FinCat` plus labels mapping its objects and morphisms back to
    the inputs.
    """

    __slots__ = ("cat", "base", "obj_data", "mor_data", "phi")

    def __init__(self, cat, base, obj_data, mor_data, phi):
        self.cat = cat
        self.base = base
        self.obj_data = obj_data  # comma object name -> (a, beta)
        self.mor_data = mor_data  # comma morphism name -> alpha in the source
        self.phi = phi

    @property
    def objects(self):
        return self.cat.objects

    def __repr__(self) -> str:
        return "CommaCat(base=%r, %d objects)" % (self.base, len(self.cat.objects))


def _comma_object(a: str, beta: str) -> str:
    """The name of the comma object (a, beta)."""
    return "(%s|%s)" % (a, beta)


def comma(phi: FunctorData, b: str) -> CommaCat:
    if b not in set(phi.target.objects):
        raise UnknownObject("comma base %r is not in the target category" % b)
    amb = phi.target
    src = phi.source

    obj_data = {}
    names = []
    for a in src.objects:
        fa = phi.on_obj(a)
        for beta in amb.hom(fa, b):
            name = _comma_object(a, beta)
            obj_data[name] = (a, beta)
            names.append(name)

    mor = {}
    mor_data = {}
    identity = {}
    for o1 in names:
        a1, b1 = obj_data[o1]
        for o2 in names:
            a2, b2 = obj_data[o2]
            for alpha in src.hom(a1, a2):
                fal = phi.on_mor(alpha)
                if amb.compose(b2, fal) != b1:
                    continue
                if o1 == o2 and src.is_identity(alpha):
                    mname = "id%s" % o1
                    identity[o1] = mname
                else:
                    mname = "%s@%s>%s" % (alpha, o1, o2)
                mor[mname] = (o1, o2)
                mor_data[mname] = alpha

    comp = {}
    by_key = {}
    for mname, (o1, o2) in mor.items():
        by_key[(o1, mor_data[mname], o2)] = mname
    for f, (o1, o2) in mor.items():
        for g, (o2b, o3) in mor.items():
            if o2b != o2:
                continue
            alpha = src.compose(mor_data[g], mor_data[f])
            comp[(g, f)] = by_key[(o1, alpha, o3)]
    return CommaCat(FinCat(names, mor, identity, comp), b, obj_data, mor_data, phi)


# ---------------------------------------------------------------------------
# Shape builders
# ---------------------------------------------------------------------------

def _cyclic_monoid(index: int, period: int):
    """Powers of t in the monoid <t | t^(index+period) = t^index>.

    index = 0 with period k gives the cyclic group Z/k.
    """
    if index < 0 or period < 1:
        raise BadShapeParams("need index >= 0 and period >= 1")
    size = index + period

    def norm(e: int) -> int:
        return e if e < size else index + ((e - index) % period)

    return size, norm


def _funnel(monoid_size, norm, arrows, act):
    """Category d -> c: endomorphism monoid on d, right action on arrows."""
    objects = ("d", "c")
    mor = {"id_c": ("c", "c")}
    identity = {"d": "m0", "c": "id_c"}
    for j in range(monoid_size):
        mor["m%d" % j] = ("d", "d")
    for i in range(arrows):
        mor["a%d" % i] = ("d", "c")
    comp = {}
    for j in range(monoid_size):
        for l in range(monoid_size):
            if j == 0 or l == 0:
                continue
            comp[("m%d" % j, "m%d" % l)] = "m%d" % norm(j + l)
    for i in range(arrows):
        for j in range(1, monoid_size):
            comp[("a%d" % i, "m%d" % j)] = "a%d" % act(i, j)
    return FinCat(objects, mor, identity, comp)


def funnel_monoid(k: int | None = None, index: int | None = None, period: int | None = None,
                  arrows: int = 1, action: str = "trivial") -> CatPair:
    """Funnel d -> c: a monoid of endomorphisms on d, a right action on the
    set of arrows d -> c, and only the identity on c.

    Either ``k`` (cyclic group Z/k) or ``index``/``period`` (cyclic monoid
    with a tail) selects the endomorphism monoid.  ``action`` is one of
    "trivial" (any number of arrows), "regular" (arrow per monoid element)
    or "cyclic" (group of order k acting on Z/arrows by rotation; requires
    arrows | k).
    """
    if k is not None:
        if k < 1 or index is not None or period is not None:
            raise BadShapeParams("give either k >= 1 or index/period, not both")
        size, norm = _cyclic_monoid(0, k)
    else:
        if index is None or period is None:
            raise BadShapeParams("give either k or both index and period")
        size, norm = _cyclic_monoid(index, period)

    if action == "trivial":
        if arrows < 0:
            raise BadShapeParams("arrows must be >= 0")
        act = lambda i, j: i
        n_arrows = arrows
    elif action == "regular":
        act = lambda i, j: norm(i + j)
        n_arrows = size
    elif action == "cyclic":
        if k is None:
            raise BadShapeParams("cyclic action needs the group case")
        if arrows < 1 or k % arrows != 0:
            raise BadShapeParams("cyclic action needs arrows | k")
        act = lambda i, j: (i + j) % arrows
        n_arrows = arrows
    else:
        raise BadShapeParams("unknown action %r" % action)

    cat = _funnel(size, norm, n_arrows, act)
    return CatPair(cat, frozenset({"d"}))


def build_shape(name: str, **params) -> CatPair:
    """Catalogue of standard pairs used by tests, docs and the CLI."""
    if name == "arrow":
        cat = FinCat(
            ("d", "c"),
            {"id_d": ("d", "d"), "id_c": ("c", "c"), "alpha": ("d", "c")},
            {"d": "id_d", "c": "id_c"},
            {},
        )
        return CatPair(cat, frozenset({"d"}))

    if name == "multi_arrow":
        n = params.get("n", 2)
        if not isinstance(n, int) or n < 1:
            raise BadShapeParams("multi_arrow needs n >= 1")
        mor = {"id_d": ("d", "d"), "id_c": ("c", "c")}
        for i in range(n):
            mor["a%d" % i] = ("d", "c")
        cat = FinCat(("d", "c"), mor, {"d": "id_d", "c": "id_c"}, {})
        return CatPair(cat, frozenset({"d"}))

    if name == "commutative_square":
        mor = {
            "id_e": ("e", "e"), "id_d1": ("d1", "d1"), "id_d2": ("d2", "d2"), "id_c": ("c", "c"),
            "alpha1": ("e", "d1"), "alpha2": ("e", "d2"),
            "beta1": ("d1", "c"), "beta2": ("d2", "c"), "gamma": ("e", "c"),
        }
        comp = {("beta1", "alpha1"): "gamma", ("beta2", "alpha2"): "gamma"}
        cat = FinCat(("e", "d1", "d2", "c"), mor,
                     {"e": "id_e", "d1": "id_d1", "d2": "id_d2", "c": "id_c"}, comp)
        return CatPair(cat, frozenset({"e", "d1", "d2"}))

    if name == "free_square":
        mor = {
            "id_e": ("e", "e"), "id_d1": ("d1", "d1"), "id_d2": ("d2", "d2"), "id_c": ("c", "c"),
            "alpha1": ("e", "d1"), "alpha2": ("e", "d2"),
            "beta1": ("d1", "c"), "beta2": ("d2", "c"),
            "gamma1": ("e", "c"), "gamma2": ("e", "c"),
        }
        comp = {("beta1", "alpha1"): "gamma1", ("beta2", "alpha2"): "gamma2"}
        cat = FinCat(("e", "d1", "d2", "c"), mor,
                     {"e": "id_e", "d1": "id_d1", "d2": "id_d2", "c": "id_c"}, comp)
        return CatPair(cat, frozenset({"e"}))

    if name == "discrete":
        n = params.get("n", 2)
        if not isinstance(n, int) or n < 0:
            raise BadShapeParams("discrete needs n >= 0")
        objects = tuple("x%d" % i for i in range(n))
        mor = {"id_x%d" % i: ("x%d" % i, "x%d" % i) for i in range(n)}
        identity = {"x%d" % i: "id_x%d" % i for i in range(n)}
        cat = FinCat(objects, mor, identity, {})
        default = frozenset({"x0"}) if n else frozenset()
        dset = frozenset(params.get("dset", default))
        return CatPair(cat, dset)

    if name == "iso_pair":
        # d1 ~ d2 by u and v = u^-1, and a2 = a1 o v into c
        mor = {"id_d1": ("d1", "d1"), "id_d2": ("d2", "d2"), "id_c": ("c", "c"),
               "u": ("d1", "d2"), "v": ("d2", "d1"), "a1": ("d1", "c"), "a2": ("d2", "c")}
        comp = {("v", "u"): "id_d1", ("u", "v"): "id_d2", ("a1", "v"): "a2", ("a2", "u"): "a1"}
        cat = FinCat(("d1", "d2", "c"), mor, {"d1": "id_d1", "d2": "id_d2", "c": "id_c"}, comp)
        return CatPair(cat, frozenset({"d1", "d2"}))

    if name == "retract_pair":
        # d1 is a retract of d2: r o s = id_d1, and s o r = e is idempotent;
        # a leaves d2 for c, with ae = a o e and as = a o s
        mor = {"id_d1": ("d1", "d1"), "id_d2": ("d2", "d2"), "id_c": ("c", "c"),
               "s": ("d1", "d2"), "r": ("d2", "d1"), "e": ("d2", "d2"),
               "a": ("d2", "c"), "ae": ("d2", "c"), "as": ("d1", "c")}
        comp = {("r", "s"): "id_d1", ("s", "r"): "e", ("e", "e"): "e", ("e", "s"): "s",
                ("r", "e"): "r", ("a", "s"): "as", ("ae", "s"): "as", ("as", "r"): "ae",
                ("a", "e"): "ae", ("ae", "e"): "ae"}
        cat = FinCat(("d1", "d2", "c"), mor, {"d1": "id_d1", "d2": "id_d2", "c": "id_c"}, comp)
        return CatPair(cat, frozenset({"d1", "d2"}))

    if name == "funnel_monoid":
        return funnel_monoid(**params)

    if name == "terminal_extension":
        base = params.get("base")
        if base is None:
            n = params.get("n", 2)
            if not isinstance(n, int) or n < 1:
                raise BadShapeParams("terminal_extension needs n >= 1 or a base category")
            base = build_shape("discrete", n=n).cat
        if "c_inf" in base.objects:
            raise BadShapeParams("base already has an object named c_inf")
        objects = tuple(base.objects) + ("c_inf",)
        mor = dict(base.mor)
        mor["id_c_inf"] = ("c_inf", "c_inf")
        identity = dict(base.identity)
        identity["c_inf"] = "id_c_inf"
        bang = {a: "t_%s" % a for a in base.objects}
        for a, t in bang.items():
            mor[t] = (a, "c_inf")
        comp = dict(base.comp)
        for f, (s, t) in base.mor.items():
            if base.is_identity(f):
                continue
            comp[(bang[t], f)] = bang[s]
        cat = FinCat(objects, mor, identity, comp)
        return CatPair(cat, frozenset(base.objects))

    raise BadShapeParams("unknown shape %r" % name)


# ---------------------------------------------------------------------------
# Object-subset predicates
# ---------------------------------------------------------------------------

def is_retract(cat: FinCat, a: str, b: str) -> bool:
    """True when a is a retract of b: some a -> b -> a composing to id."""
    for alpha in cat.hom(a, b):
        for beta in cat.hom(b, a):
            if cat.compose(beta, alpha) == cat.identity[a]:
                return True
    return False


def is_isomorphic(cat: FinCat, a: str, b: str) -> bool:
    for alpha in cat.hom(a, b):
        for beta in cat.hom(b, a):
            if (cat.compose(beta, alpha) == cat.identity[a]
                    and cat.compose(alpha, beta) == cat.identity[b]):
                return True
    return False


def subset_predicate(cat: FinCat, kind: str, objs, other=None) -> bool:
    """Decide structural conditions on object subsets.

    Kinds: "left_absorbant" (everything mapping into ``objs`` lies in it),
    "retract_closed" (retracts of members are members),
    "retract_equivalent" / "essentially_equivalent" (mutual domination of
    ``objs`` and ``other`` by retracts / isomorphisms).
    """
    objs = set(objs)
    unknown = objs - set(cat.objects)
    if unknown:
        raise UnknownObject("not objects of the category: %r" % sorted(unknown))
    if kind == "left_absorbant":
        for m, (s, t) in cat.mor.items():
            if t in objs and s not in objs:
                return False
        return True
    if kind == "retract_closed":
        for a in cat.objects:
            if a in objs:
                continue
            if any(is_retract(cat, a, b) for b in objs):
                return False
        return True
    if kind in ("retract_equivalent", "essentially_equivalent"):
        if other is None:
            raise BadShapeParams("%s needs a second subset" % kind)
        other = set(other)
        rel = is_retract if kind == "retract_equivalent" else is_isomorphic
        fwd = all(any(rel(cat, a, b) for b in other) for a in objs)
        bwd = all(any(rel(cat, b, a) for a in objs) for b in other)
        return fwd and bwd
    raise BadShapeParams("unknown predicate %r" % kind)


# ---------------------------------------------------------------------------
# Funnels and source restriction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunnelData:
    """Everything the funnel reductions need at a focus object.

    ``d_c``: the distinguished objects with at least one morphism to the
    focus.  ``funnel_pair``: the full subcategory on dset + focus with the
    same dset.  ``strict_pair``: the category on d_c + focus where the
    focus keeps only its identity and its incoming morphisms from d_c
    (only defined when the focus is outside the dset).
    """

    focus: str
    d_c: frozenset[str]
    funnel_pair: CatPair
    strict_pair: CatPair | None


def strict_funnel_category(cat: FinCat, eset, c: str) -> FinCat:
    """Objects eset + {c}; ambient homs except hom(c, -) is cut to id_c."""
    eset = set(eset)
    if c in eset:
        raise BadShapeParams("focus %r must lie outside the retained subset" % c)
    keep = [a for a in cat.objects if a in eset or a == c]
    keep_set = set(keep)
    mor = {}
    for m, (s, t) in cat.mor.items():
        if s not in keep_set or t not in keep_set:
            continue
        if s == c and not (t == c and cat.is_identity(m)):
            continue
        mor[m] = (s, t)
    return _subcategory(cat, keep, mor)


def funnel_objects(pair: CatPair, c: str) -> FunnelData:
    if c not in set(pair.cat.objects):
        raise UnknownObject("focus %r is not an object" % c)
    cat = pair.cat
    d_c = frozenset(d for d in pair.dset if cat.hom(d, c))
    funnel_cat = full_subcategory(cat, list(pair.d_objects) + ([c] if c not in pair.dset else []))
    funnel_pair = CatPair(funnel_cat, pair.dset)
    if c in pair.dset:
        strict_pair = None
    else:
        strict_cat = strict_funnel_category(cat, d_c, c)
        strict_pair = CatPair(strict_cat, d_c)
    return FunnelData(c, d_c, funnel_pair, strict_pair)


def restrict_sources(pair: CatPair) -> FinCat:
    """Keep every object; keep a non-identity morphism only if its source
    is distinguished.  The distinguished subset is left absorbant in the
    result."""
    cat = pair.cat
    return _subcategory(cat, cat.objects, {m: st for m, st in cat.mor.items()
                                           if cat.is_identity(m) or st[0] in pair.dset})


# ---------------------------------------------------------------------------
# Glossiness
# ---------------------------------------------------------------------------

@dataclass
class GlossyResult:
    holds: bool
    witnesses: dict[str, list[tuple[str, str]]] | None
    failures: dict[str, str] = field(default_factory=dict)


def _glossy_tests(phi: FunctorData, b: str):
    """All (a, alpha : Phi(b) -> Phi(a)) the factorization must cover."""
    amb = phi.target
    fb = phi.on_obj(b)
    tests = []
    for a in phi.source.objects:
        for alpha in amb.hom(fb, phi.on_obj(a)):
            tests.append((a, alpha))
    return tests


def _glossy_cover(phi: FunctorData, cand: tuple[str, str], tests):
    """How often a candidate witness factors each test morphism as
    alpha = Phi(gamma) o beta."""
    amb = phi.target
    src = phi.source
    bi, beta = cand
    counts = []
    for (a, alpha) in tests:
        n = 0
        for gamma in src.hom(bi, a):
            if amb.compose(phi.on_mor(gamma), beta) == alpha:
                n += 1
        counts.append(n)
    return counts


def _exact_cover(n_tests: int, covers: list[list[int]]):
    """Pick a subset of rows of ``covers`` summing to the all-ones vector.

    Straightforward exact-cover search with most-constrained-first
    branching; fine at desk scale, exponential in the worst case.
    """
    usable = [i for i, row in enumerate(covers) if all(x <= 1 for x in row)]
    by_test = [[i for i in usable if covers[i][t] == 1] for t in range(n_tests)]

    chosen: list[int] = []
    covered = [0] * n_tests

    def rec() -> bool:
        open_tests = [t for t in range(n_tests) if covered[t] == 0]
        if not open_tests:
            return True
        t = min(open_tests, key=lambda t: len(by_test[t]))
        for i in by_test[t]:
            row = covers[i]
            if any(covered[s] and row[s] for s in range(n_tests)):
                continue
            chosen.append(i)
            for s in range(n_tests):
                covered[s] += row[s]
            if rec():
                return True
            chosen.pop()
            for s in range(n_tests):
                covered[s] -= row[s]
        return False

    if rec():
        return chosen
    return None


def glossy(side: str, phi: FunctorData, bset, witnesses=None) -> GlossyResult:
    """Decide (or verify) glossiness of a functor along a subset.

    ``side="left"``: for each b in bset we need morphisms
    beta_i : Phi(b) -> Phi(b_i) (b_i in bset) through which every
    alpha : Phi(b) -> Phi(a) factors uniquely as Phi(gamma) o beta_i.
    ``side="right"`` is the dual with beta_j : Phi(b_j) -> Phi(b) and
    factorizations beta_j o Phi(gamma): it is the left side of Phi^op, and
    is decided as such.  The answer is the same item for item (tests,
    candidates, covers, witnesses and messages), as :func:`_opposite`
    keeps every name, ``hom`` lists names sorted on both categories, and
    g o f in the opposite is f o g in the category.

    When ``witnesses`` is supplied (b -> list of (b_i, beta name)), it is
    verified exactly; otherwise an exhaustive search runs per object.
    """
    if side not in ("left", "right"):
        raise BadShapeParams("side must be 'left' or 'right'")
    if side == "right":
        return glossy("left", _opposite_functor(phi), bset, witnesses)
    bset = [b for b in phi.source.objects if b in set(bset)]
    amb = phi.target
    found: dict[str, list[tuple[str, str]]] = {}
    failures: dict[str, str] = {}

    for b in bset:
        tests = _glossy_tests(phi, b)
        fb = phi.on_obj(b)
        candidates = []
        for bi in bset:
            for beta in amb.hom(fb, phi.on_obj(bi)):
                candidates.append((bi, beta))
        if witnesses is not None:
            cand = [(bi, beta) for (bi, beta) in witnesses.get(b, [])]
            bad = [c for c in cand if c not in candidates]
            if bad:
                failures[b] = "witnesses %r are not morphisms of the right shape" % bad
                continue
            total = [0] * len(tests)
            for c in cand:
                for t, n in enumerate(_glossy_cover(phi, c, tests)):
                    total[t] += n
            misses = [tests[t] for t in range(len(tests)) if total[t] != 1]
            if misses:
                failures[b] = "factorization not unique/existent for %r" % misses[:3]
            else:
                found[b] = cand
        else:
            covers = [_glossy_cover(phi, c, tests) for c in candidates]
            sol = _exact_cover(len(tests), covers)
            if sol is None:
                failures[b] = "no witness set among %d candidates" % len(candidates)
            else:
                found[b] = [candidates[i] for i in sol]

    holds = not failures
    return GlossyResult(holds, found if holds else None, failures)


# ---------------------------------------------------------------------------
# Glossy example builders (subgroup/coset funnels)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairMorphism:
    """A functor between funnels together with its glossy witnesses."""

    phi: FunctorData
    witnesses: dict[str, list[tuple[str, str]]]


def _subgroup_funnel(k: int, m: int, ambient: CatPair) -> PairMorphism:
    """Inclusion into ``ambient`` of the funnel of the subgroup of index m
    of Z/k, acting trivially on one arrow a0.  Witnesses at d: the coset
    representatives t^0, ..., t^{m-1}."""
    sub = funnel_monoid(k=k // m, arrows=1, action="trivial")
    obj_map = {"d": "d", "c": "c"}
    mor_map = {"id_c": "id_c", "a0": "a0"}
    for j in range(k // m):
        mor_map["m%d" % j] = "m%d" % ((j * m) % k)
    phi = FunctorData(sub.cat, ambient.cat, obj_map, mor_map)
    return PairMorphism(phi, {"d": [("d", "m%d" % l) for l in range(m)]})


def stabilizer_inclusion(k: int, arrows: int) -> PairMorphism:
    """Left-glossy inclusion of a stabilizer funnel.

    Ambient: the cyclic group Z/k acting on arrows Z/m by rotation
    (m = ``arrows`` must divide k).  Source: the stabilizer of arrow 0,
    the subgroup of order k/m, acting trivially on that single arrow.
    Witnesses at d: the orbit representatives t^0, ..., t^{m-1}.
    """
    if k < 1 or arrows < 1 or k % arrows != 0:
        raise BadShapeParams("need arrows | k")
    return _subgroup_funnel(k, arrows, funnel_monoid(k=k, arrows=arrows, action="cyclic"))


def coset_inclusion(k: int, subgroup_index: int) -> PairMorphism:
    """Right-glossy inclusion of a subgroup funnel.

    Ambient: endomorphisms Z/k on the funnel source d, one arrow to c.
    Source: the subgroup of index ``subgroup_index``, same single arrow.
    Witnesses at d: the coset representatives t^0, ..., t^{index-1}.
    """
    if k < 1 or subgroup_index < 1 or k % subgroup_index != 0:
        raise BadShapeParams("need subgroup_index | k")
    return _subgroup_funnel(k, subgroup_index, funnel_monoid(k=k, arrows=1, action="trivial"))
