"""Instance reductions that preserve the codescent verdict at a focus.

Each reduction replaces (diagram, pair) by a smaller instance whose
resolution at the focus object is *literally the same complex with the
same comparison map*: strings contributing at the focus only traverse
distinguished objects that already map to it, so removing everything
else changes nothing at the focus.  The functions return a
:class:`Reduction` record carrying the new instance plus a machine tag
so pipelines can log what was applied.

* ``prune-objects``: shrink the distinguished subset to the objects with
  at least one morphism into the focus.
* ``prune-morphisms``: drop every non-identity morphism whose source is
  not distinguished (the subset becomes left absorbant).
* ``funnel``: pass to the full subcategory on the distinguished subset
  plus the focus.
* ``strict-funnel``: additionally forget the focus's own endomorphisms
  and everything leaving it; requires the focus outside the subset.
* ``cover-split``: split the ambient category along a cover by full
  subcategories that each contain the distinguished subset; the locus is
  the union of the members' loci.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import Diagram
from .fincat import (
    CatPair, CategoryError, FinCat, UnknownObject, full_subcategory,
    funnel_objects, restrict_sources,
)


class FocusInD(CategoryError):
    pass


class NotACover(CategoryError):
    pass


@dataclass(frozen=True)
class Reduction:
    tag: str
    focus: str | None
    pair: CatPair
    diagram: Diagram
    note: str = ""


def _restrict_diagram(x: Diagram, newcat: FinCat) -> Diagram:
    return Diagram(newcat, {a: x.at[a] for a in newcat.objects},
                   {m: x.on[m] for m in newcat.mor})


def _check_focus(x: Diagram, pair: CatPair, c: str) -> None:
    if x.cat != pair.cat:
        raise UnknownObject("diagram and pair live on different categories")
    if c not in set(pair.cat.objects):
        raise UnknownObject("no object %r" % c)


def reduce_prune_objects(x: Diagram, pair: CatPair, c: str) -> Reduction:
    """Same category, distinguished subset cut down to the objects that
    actually map to the focus."""
    _check_focus(x, pair, c)
    d_c = funnel_objects(pair, c).d_c
    return Reduction("prune-objects", c, CatPair(pair.cat, d_c), x,
                     note="kept %d of %d distinguished objects"
                     % (len(d_c), len(pair.dset)))


def reduce_prune_morphisms(x: Diagram, pair: CatPair, c: str | None = None) -> Reduction:
    """Same objects; non-identity morphisms survive only with a
    distinguished source."""
    if x.cat != pair.cat:
        raise UnknownObject("diagram and pair live on different categories")
    if c is not None and c not in set(pair.cat.objects):
        raise UnknownObject("no object %r" % c)
    newcat = restrict_sources(pair)
    dropped = len(pair.cat.non_identity_morphisms()) - len(newcat.non_identity_morphisms())
    return Reduction("prune-morphisms", c, CatPair(newcat, pair.dset),
                     _restrict_diagram(x, newcat),
                     note="dropped %d morphisms" % dropped)


def reduce_funnel(x: Diagram, pair: CatPair, c: str) -> Reduction:
    """Full subcategory on the distinguished subset plus the focus."""
    _check_focus(x, pair, c)
    fd = funnel_objects(pair, c)
    return Reduction("funnel", c, fd.funnel_pair,
                     _restrict_diagram(x, fd.funnel_pair.cat),
                     note="%d objects retained" % len(fd.funnel_pair.cat.objects))


def reduce_strict_funnel(x: Diagram, pair: CatPair, c: str) -> Reduction:
    """Funnel that also forgets the focus's endomorphisms and exits.

    Only the distinguished objects mapping to the focus are kept as the
    new subset, so this composes prune-objects with the strict cut."""
    _check_focus(x, pair, c)
    if c in pair.dset:
        raise FocusInD("focus %r is distinguished; nothing to test there" % c)
    fd = funnel_objects(pair, c)
    strict_pair = fd.strict_pair
    return Reduction("strict-funnel", c, strict_pair,
                     _restrict_diagram(x, strict_pair.cat),
                     note="subset cut to %d objects, focus stripped to its "
                          "incoming morphisms" % len(fd.d_c))


def cover_split(x: Diagram, pair: CatPair, members) -> list[Reduction]:
    """One reduction per cover member (a full subcategory containing the
    distinguished subset); together the members must cover all objects."""
    if x.cat != pair.cat:
        raise UnknownObject("diagram and pair live on different categories")
    objs = set(pair.cat.objects)
    members = [tuple(sorted(set(m))) for m in members]
    if not members:
        raise NotACover("empty cover")
    covered = set()
    for m in members:
        unknown = set(m) - objs
        if unknown:
            raise NotACover("unknown objects in member: %s" % sorted(unknown))
        if not set(pair.dset) <= set(m):
            raise NotACover("member %s misses part of the distinguished subset" % (m,))
        covered |= set(m)
    if covered != objs:
        raise NotACover("members miss objects: %s" % sorted(objs - covered))
    out = []
    for m in members:
        sub = full_subcategory(pair.cat, m)
        out.append(Reduction("cover-split", None, CatPair(sub, pair.dset),
                             _restrict_diagram(x, sub), note="member %s" % (m,)))
    return out
