"""Fixtures, and re-validation of the package's own constructions.

The package checks data once, where it enters (``make_complex``,
``make_map``, ``make_diagram``, ``make_nat``, ``make_category``,
``make_functor``), and builds its own resolutions, Kan extensions,
colimits, duals, surgery restrictions, subcategories, opposite categories
and functors, comma categories, shapes, inclusion functors and lifting
fillers with the plain constructors.  Here every such builder is wrapped
once, at import, and its result goes back through the public validators,
so every internal construction the suite makes stays checked:

* every complex is valid and already in the normal form of
  ``make_complex`` (no zero-dimensional degree, no all-zero differential),
  the P (x)_D X a verdict scans included;
* every structure map, unit, counit, comparison (a verdict's xi_c
  included) and colimit leg is a chain map (``make_map``);
* every resolution of hom(-, c) on D a verdict reads, and every bar
  resolution a full build tensors with X, is one, checked by the row
  reduction of ``oracles.py``: onto hom(-, c), exact through its length,
  and injective at its end where it stopped early or must stop;
* functor and naturality laws hold (``make_diagram``, ``make_nat``), the
  dual diagrams and transformations that right Kan extensions and right
  transposes are built from included, and colimit injections are natural
  along every morphism of the shape, the colimits of a left Kan extension
  included;
* every category round-trips through ``make_category`` unchanged (the
  axioms hold and the composition table is complete, identity laws
  included), a source restriction leaves the subset left absorbant, and
  every functor passes ``make_functor`` (for a comma category, also its
  projection to the functor's source);
* every lifting filler is a chain map (or natural) and closes both
  triangles of its square.

The wrapper is bound under every name in ``codescent.*`` that holds the
original, the way ``perfbench/tracer.py`` installs its spans, because
modules import the builders by name.
"""

import functools
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import codescent.cli  # noqa: F401  (loads every module that binds a builder)
from codescent.chaincx import NonCommutingSquare, compose, make_complex, make_map
from codescent.codescent import is_directed_pair
from codescent.diagrams import compose_nat, make_diagram, make_nat
from codescent.fincat import make_category, make_functor, subset_predicate

import oracles

SEED = 20260825


def check_complex(cx):
    clean = make_complex(cx.prime, cx.dims, cx.diff)
    if clean != cx or clean.diff.keys() != cx.diff.keys():
        raise AssertionError("%r is not in the normal form of make_complex" % (cx,))


def check_map(f):
    make_map(f.source, f.target, f.comps)


def check_diagram(x, *args, **kwargs):
    for cx in x.at.values():
        check_complex(cx)
    for f in x.on.values():
        check_map(f)
    make_diagram(x.cat, x.at, x.on)


def check_nat(eta, *args, **kwargs):
    for f in eta.comps.values():
        check_map(f)
    make_nat(eta.source, eta.target, eta.comps)


def check_category(cat, *args, **kwargs):
    # FinCat equality compares the composition tables, keys included
    if make_category(cat.objects, cat.mor, cat.identity, cat.comp) != cat:
        raise AssertionError("%r does not round-trip through make_category" % (cat,))


def check_functor(phi, *args, **kwargs):
    make_functor(phi.source, phi.target, phi.obj_map, phi.mor_map)


def _check_pair(pair, *args, **kwargs):
    check_category(pair.cat)


def _check_restricted_sources(cat, pair):
    check_category(cat)
    if not subset_predicate(cat, "left_absorbant", pair.dset):
        raise AssertionError("the subset is not left absorbant after restriction")


def _check_comma(cm, *args, **kwargs):
    check_category(cm.cat)
    make_functor(cm.cat, cm.phi.source,
                 {o: a for o, (a, _) in cm.obj_data.items()}, cm.mor_data)


def _check_pair_morphism(pm, *args, **kwargs):
    check_functor(pm.phi)


def _check_lifting(h, i, p_map, top, bottom):
    if h is not None:
        check_map(h)
        if compose(h, i) != top or compose(p_map, h) != bottom:
            raise AssertionError("filler misses a triangle of its lifting square")


def _check_nat_lifting(h, p_nat, bottom):
    if h is not None:
        check_nat(h)
        if compose_nat(p_nat, h) != bottom:
            raise AssertionError("filler misses the triangle of its lifting square")


def _check_resolution(res, pair, c, p, length):
    """At every object e of D, the maps P_0(e) -> F_p[hom(e, c)] and
    P_n(e) -> P_{n-1}(e), rebuilt from the generators' images, form an
    exact sequence: onto hom(e, c), each map composed with the next is
    zero, ranks add up to the dimension between them, and the last map is
    injective where P stopped before ``length``, or must stop there (a
    directed D and length |D| - 1: every exact verdict reads that one)."""
    cat = pair.cat
    must_end = is_directed_pair(pair) and length == max(len(pair.dset) - 1, 0)
    if len(res) > length + 1:
        raise AssertionError("a resolution longer than %d" % length)
    for e in pair.d_objects:
        bases = [[(0, g) for g in cat.hom(e, c)]]
        bases += [[(i, h) for i, (gen, _) in enumerate(level) for h in cat.hom(e, gen)]
                  for level in res]
        maps = []
        for n, level in enumerate(res):
            rows = {b: r for r, b in enumerate(bases[n])}
            m = oracles.mat_zero(len(bases[n]), len(bases[n + 1]))
            for col, (i, h) in enumerate(bases[n + 1]):
                for j, g, a in level[i][1]:
                    m[rows[j, cat.compose(g, h)]][col] += a
            maps.append(m)
        ranks = [oracles.rank_of(m, p) for m in maps]
        if maps and ranks[0] != len(bases[0]):
            raise AssertionError("P_0 -> hom(-, %s) is not onto at %s" % (c, e))
        for n in range(1, len(maps)):
            if any(v % p for row in oracles.mat_mul(maps[n - 1], maps[n], p) for v in row):
                raise AssertionError("d o d is not zero at P_%d(%s)" % (n, e))
            if ranks[n - 1] + ranks[n] != len(bases[n]):
                raise AssertionError("P is not exact at P_%d(%s)" % (n - 1, e))
        if maps and (must_end or len(res) <= length) and ranks[-1] != len(bases[-1]):
            raise AssertionError("the last map of P is not injective at %s" % e)


def _check_resolved_comparison(f, *args, **kwargs):
    check_complex(f.source)
    check_map(f)


def _check_bar_diagram(result, x, pair, length):
    qx, xi, resolutions = result
    check_diagram(qx)
    check_nat(xi)
    for c, res in resolutions.items():
        _check_resolution(res, pair, c, x.prime, length)


def _check_approximation(approx, *args, **kwargs):
    check_diagram(approx.diagram)
    check_nat(approx.xi)


def _check_left_kan(lk, *args, **kwargs):
    check_diagram(lk.diagram)
    check_nat(lk.unit)


def _check_right_kan(rk, *args, **kwargs):
    check_diagram(rk.diagram)
    check_nat(rk.counit)


def _check_colimit(colim, shape, at, on):
    check_complex(colim.complex)
    for f in colim.injections.values():
        check_map(f)
    for m in shape.non_identity_morphisms():
        a, b = shape.source(m), shape.target(m)
        if compose(colim.injections[b], on[m]) != colim.injections[a]:
            raise NonCommutingSquare(None, "colimit injections not natural along %r" % m)


CHECKS = {
    "codescent.codescent": {"bar_approximation": _check_approximation,
                            "ind_base_approximation": _check_approximation,
                            "_resolve": _check_resolution,
                            "_resolved_comparison": _check_resolved_comparison,
                            "_bar_diagram": _check_bar_diagram},
    "codescent.diagrams": {"left_kan": _check_left_kan,
                           "right_kan": _check_right_kan,
                           "_dual_diagram": check_diagram,
                           "_dual_nat": check_nat,
                           "solve_lifting": _check_lifting,
                           "solve_nat_lifting_zero": _check_nat_lifting},
    "codescent.chaincx": {"finite_colimit": _check_colimit},
    "codescent.surgery": {"_restrict_diagram": check_diagram},
    "codescent.fincat": {"full_subcategory": check_category,
                         "_opposite": check_category,
                         "_opposite_functor": check_functor,
                         "strict_funnel_category": check_category,
                         "restrict_sources": _check_restricted_sources,
                         "comma": _check_comma,
                         "funnel_monoid": _check_pair,
                         "build_shape": _check_pair,
                         "inclusion_functor": check_functor,
                         "stabilizer_inclusion": _check_pair_morphism,
                         "coset_inclusion": _check_pair_morphism},
}


def _revalidated(fn, check):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        check(result, *args, **kwargs)
        return result
    return wrapper


def _install() -> dict:
    package = [m for n, m in sys.modules.items()
               if n == "codescent" or n.startswith("codescent.")]
    wrappers = {}
    for module, checks in CHECKS.items():
        for name, check in checks.items():
            orig = getattr(sys.modules[module], name)
            wrapper = wrappers[name] = _revalidated(orig, check)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
    return wrappers


WRAPPERS = _install()


@pytest.fixture
def revalidation():
    """The installed wrappers and the checks, by builder name, and the
    category, functor and diagram validators."""
    checks = {name: check for by_name in CHECKS.values() for name, check in by_name.items()}
    return SimpleNamespace(wrappers=WRAPPERS, checks=checks, check_diagram=check_diagram,
                           check_category=check_category, check_functor=check_functor)


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def rng_factory():
    def make(offset: int = 0):
        return np.random.default_rng(SEED + offset)
    return make
