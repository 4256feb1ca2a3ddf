import contextlib
import itertools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import codescent.codescent as cmod
from codescent import chaincx, diagrams, fincat
from codescent import (
    BadShapeParams,
    CatPair,
    ChainComplex,
    ChainMap,
    CodescentVerdict,
    UnknownObject,
    approximate,
    bar_approximation,
    build_shape,
    codescent_at,
    codescent_locus,
    compose,
    default_cutoff,
    disk,
    funnel_monoid,
    homology_dims,
    identity_map,
    identity_nat,
    ind_base_approximation,
    is_directed_pair,
    is_quasi_iso,
    make_category,
    make_complex,
    make_diagram,
    make_map,
    oracle_criterion,
    sphere,
    subset_predicate,
    verify_cofibrant_approx,
    zero_complex,
    zero_map,
)
from codescent.codescent import HOLDS, _square_comparison, _verdict_for_map
from codescent.selftest import (
    EXPECT_MULTI_ARROW_IDENTITY,
    EXPECT_Z2_FUNNEL,
    constant_diagram,
    random_diagram,
    square_diagram,
)

import oracles


def z2_funnel_s0():
    pair = funnel_monoid(k=2)
    s = sphere(2, 0)
    x = make_diagram(pair.cat, {"d": s, "c": s},
                     {"m1": identity_map(s), "a0": identity_map(s)})
    return pair, x


def z2_funnel_acyclic_tail():
    """X(c) = S^0 (+) a disk in degrees -2, -1: lo(X) = -2 but lo(X|D) = 0."""
    pair = funnel_monoid(k=2)
    s = sphere(2, 0)
    one = np.ones((1, 1), dtype=np.int64)
    xc = make_complex(2, {-2: 1, -1: 1, 0: 1}, {-1: one})
    x = make_diagram(pair.cat, {"d": s, "c": xc},
                     {"m1": identity_map(s), "a0": make_map(s, xc, {0: one})})
    return pair, x


def z2_funnel_regular():
    pair = funnel_monoid(k=2)
    two = sphere(2, 0, 2)
    one = sphere(2, 0)
    swap = make_map(two, two, {0: np.array([[0, 1], [1, 0]])})
    fold = make_map(two, one, {0: np.array([[1, 1]])})
    x = make_diagram(pair.cat, {"d": two, "c": one},
                     {"m1": swap, "a0": fold})
    return pair, x


# ---------------------------------------------------------------------------
# directedness and cutoffs
# ---------------------------------------------------------------------------

def test_directedness_of_catalogue_shapes():
    assert is_directed_pair(build_shape("arrow"))
    assert is_directed_pair(build_shape("free_square"))
    assert is_directed_pair(build_shape("terminal_extension", n=3))
    assert not is_directed_pair(funnel_monoid(k=2))
    # the endomorphisms sit outside the subset here, so the pair is directed
    assert is_directed_pair(CatPair(funnel_monoid(k=2).cat, frozenset({"c"})))


def test_default_cutoff_formula(rng):
    pair = build_shape("commutative_square")
    x = random_diagram(rng, pair.cat, 2, lo=0, hi=2, cells=1)
    assert default_cutoff(x, pair) == 3 + (x.hi() - x.lo()) + 4


def test_bar_is_exact_on_directed_pairs(rng):
    pair = build_shape("commutative_square")
    x = random_diagram(rng, pair.cat, 3, hi=1, max_dim=2, cells=1)
    for build in (bar_approximation, ind_base_approximation):
        ap = build(x, pair)
        assert ap.directed and ap.cutoff is None
        assert ap.exact_through is math.inf
        assert set(ap.column_sizes) == set(pair.cat.objects)


def test_bar_honors_explicit_cutoff_even_when_directed(rng):
    # three distinguished objects allow strings up to length 2, so a
    # cutoff of 1 is a real truncation; at/above the natural bound the
    # computation is promoted back to exact
    pair = build_shape("commutative_square")
    x = random_diagram(rng, pair.cat, 2, hi=1, max_dim=2, cells=1)
    ap = bar_approximation(x, pair, cutoff=1)
    assert ap.cutoff == 1
    assert ap.exact_through == 1 + x.lo() - 1
    promoted = bar_approximation(x, pair, cutoff=50)
    assert promoted.cutoff is None
    assert promoted.exact_through is math.inf


def test_truncated_bar_agrees_with_exact_in_range(rng):
    pair = build_shape("commutative_square")
    x = random_diagram(rng, pair.cat, 2, hi=1, max_dim=2, cells=1)
    exact = bar_approximation(x, pair)
    tr = bar_approximation(x, pair, cutoff=1)
    hi = int(tr.exact_through)
    for c in pair.complement:
        full_h = homology_dims(exact.diagram.at[c])
        tr_h = homology_dims(tr.diagram.at[c])
        for n in range(x.lo(), hi + 1):
            assert full_h.get(n, 0) == tr_h.get(n, 0)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_holds_automatically_on_subset():
    pair, x = z2_funnel_s0()
    assert codescent_at(x, pair, "d") is HOLDS


def test_unknown_focus_rejected():
    pair, x = z2_funnel_s0()
    with pytest.raises(UnknownObject):
        codescent_at(x, pair, "zz")


def test_empty_subset_reduces_to_acyclicity():
    pair = build_shape("discrete", n=2, dset=[])
    x = make_diagram(pair.cat, {"x0": disk(3, 1), "x1": sphere(3, 0)}, {})
    v0 = codescent_at(x, pair, "x0")
    v1 = codescent_at(x, pair, "x1")
    assert v0 is HOLDS or v0.status == "holds"
    assert (v1.status, v1.degree, v1.defect) == ("fails", 0, 1)
    # both strategies agree on the degenerate case
    w1 = codescent_at(x, pair, "x1", strategy="ind-base")
    assert (w1.status, w1.degree, w1.defect) == ("fails", 0, 1)


def test_frozen_multi_arrow_failure():
    pair = build_shape("multi_arrow", n=2)
    s = sphere(2, 0)
    x = make_diagram(pair.cat, {"d": s, "c": s},
                     {"a0": identity_map(s), "a1": identity_map(s)})
    v = codescent_at(x, pair, "c")
    assert (v.status, v.degree, v.defect) == EXPECT_MULTI_ARROW_IDENTITY
    assert v.exit_code == 1


def test_frozen_z2_funnel_failure():
    pair, x = z2_funnel_s0()
    v = codescent_at(x, pair, "c", cutoff=5)
    assert (v.status, v.degree, v.defect) == EXPECT_Z2_FUNNEL


def test_bar_reproduces_cyclic_group_homology():
    # constant sphere over the Z/3 funnel: P (x)_D X at the tip computes
    # group homology of Z/3 over F_3, for the bar resolution (the full
    # build's value) and for the small one a verdict scans
    pair = funnel_monoid(k=3)
    s = sphere(3, 0)
    x = make_diagram(pair.cat, {"d": s, "c": s},
                     {"m1": identity_map(s), "m2": identity_map(s),
                      "a0": identity_map(s)})
    small = cmod._resolved_comparison(x, cmod._resolve(pair, "c", 3, 5), "c", None)
    want = oracles.cyclic_group_homology(3, 3, 4)
    for cx in (bar_approximation(x, pair, cutoff=5).diagram.at["c"], small.source):
        got = homology_dims(cx)
        for n in range(0, 5):  # certified through cutoff - 1
            assert got.get(n, 0) == want[n]


def test_free_module_value_gives_bounded_positive():
    pair, x = z2_funnel_regular()
    v = codescent_at(x, pair, "c", cutoff=4)
    assert v.status == "holds_up_to"
    assert v.bound == 3  # cutoff + lo - 1
    assert v.exit_code == 2


def test_verdict_str_and_dict_round_trip():
    v = CodescentVerdict("fails", degree=1, defect=2)
    assert "degree=1" in str(v)
    assert v.as_dict() == {"status": "fails", "degree": 1, "defect": 2}
    assert HOLDS.as_dict() == {"status": "holds"}
    assert str(HOLDS) == "Holds"


def test_locus_report_partitions_objects(rng):
    pair, x = square_diagram(rng, 2, free=True, plant="fails")
    rep = codescent_locus(x, pair)
    assert set(rep.verdicts) == set(pair.cat.objects)
    assert set(rep.locus) | set(rep.failures) | set(rep.inconclusive) \
        == set(pair.cat.objects)
    assert rep.exit_code == 1
    d = rep.as_dict()
    assert d["failures"] == list(rep.failures)
    assert d["exact_through"] is None  # directed: exact


# ---------------------------------------------------------------------------
# the verdict path against the full build
# ---------------------------------------------------------------------------

# what each strategy's full build calls; a verdict must call none of them,
# no piece of the bar build and no left Kan extension either
BAR_PIECES = (cmod._paths_in, cmod._bar_resolution, fincat.full_subcategory)
FULL_BUILDS = {"bar": (cmod.bar_approximation, cmod.approximate, cmod._bar_diagram)
               + BAR_PIECES,
               "ind-base": (cmod.ind_base_approximation, cmod.approximate,
                            cmod._bar_diagram, diagrams.left_kan) + BAR_PIECES}


def _forbid(stack, builders):
    """Make every binding of ``builders`` under ``codescent.*`` raise, since
    modules import the builders by name (see ``conftest.py``)."""
    for mod in [m for n, m in sys.modules.items() if n.startswith("codescent")]:
        for attr, value in list(vars(mod).items()):
            if any(value is b for b in builders):
                stack.enter_context(mock.patch.object(mod, attr, side_effect=AssertionError))


def _verdict_build(x, pair, c, cutoff, strategy="bar"):
    """codescent_at's verdict at c and the xi_c : P (x)_D X -> X(c) it
    scanned; neither the full resolution nor any piece of the bar build
    may be built on the way."""
    scanned, scan = [], cmod._verdict_for_map

    def record(f, exact_through):
        scanned.append(f)
        return scan(f, exact_through)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(cmod, "_verdict_for_map", record))
        _forbid(stack, FULL_BUILDS[strategy])
        v = codescent_at(x, pair, c, strategy, cutoff)
    (xi_c,) = scanned
    return v, xi_c


def _below(f, top):
    """f : A -> B with A cut above degree ``top``."""
    a = f.source
    cut = ChainComplex(a.prime, {t: k for t, k in a.dims.items() if t <= top},
                       {t: m for t, m in a.diff.items() if t <= top})
    return ChainMap(cut, f.target, {t: m for t, m in f.comps.items() if t <= top})


def _case_diagram(draw, pair):
    """A random diagram on ``pair`` over F_2, F_3 or F_5, with values
    spanning two or three degrees (hi > lo)."""
    p = draw(st.sampled_from((2, 3, 5)))
    lo = draw(st.integers(-1, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_diagram(rng, pair.cat, p, lo=lo, hi=lo + draw(st.integers(1, 2)),
                          max_dim=2, cells=draw(st.integers(1, 2)))


def _assert_verdicts_read_the_full_build(x, pair, cutoff, strategy, full):
    """At every c outside D the verdict path scans xi_c : P (x)_D X -> X(c)
    cut above exact_through + 1: the uncut map on the same resolution,
    cut there.  Through exact_through its source has the homology of the
    full build's QX(c), its verdict is the full build's and the locus's,
    and the locus reports the full build's cutoff and exact_through.
    Returns the locus report."""
    top, through = full.exact_through + 1, full.exact_through
    report = codescent_locus(x, pair, strategy, cutoff)
    assert (report.strategy, report.directed, report.cutoff, report.exact_through) \
        == (full.strategy, full.directed, full.cutoff, full.exact_through)
    bounds = cmod._bounds(x, pair, cutoff, strategy)
    for c in pair.complement:
        v, xi_c = _verdict_build(x, pair, c, cutoff, strategy)
        res = cmod._resolution(pair, cmod._shape_key(pair), c, x.prime, bounds.length)
        want = _below(cmod._resolved_comparison(x, res, c, None), top)
        assert xi_c.source == want.source
        assert xi_c.source.diff.keys() == want.source.diff.keys()
        assert xi_c == want
        assert {n: b for n, b in homology_dims(xi_c.source).items() if n <= through} \
            == {n: b for n, b in homology_dims(full.diagram.at[c]).items() if n <= through}
        assert v == report.verdicts[c] == _verdict_for_map(full.xi.comps[c],
                                                           full.exact_through)
    return report


@st.composite
def bar_cases(draw):
    """Directed shapes (arrow, multi-arrow, square) and non-directed Z/2,
    Z/3 funnels, on the square with cutoffs below the natural bound."""
    shape = draw(st.sampled_from(("arrow", "multi_arrow", "commutative_square",
                                  "funnel2", "funnel3")))
    if shape.startswith("funnel"):
        pair, cutoff = funnel_monoid(k=int(shape[-1])), draw(st.integers(1, 4))
    else:
        pair = build_shape(shape, **({"n": 2} if shape == "multi_arrow" else {}))
        cutoff = draw(st.sampled_from((None, 0, 1)))
    return pair, _case_diagram(draw, pair), cutoff


@st.composite
def ind_base_cases(draw):
    """Directed shapes (arrow, multi-arrow and terminal extension over a
    discrete D, the square over a directed one) and Z/2, Z/3 funnels
    (non-discrete full(D)), at cutoffs 0 to 4."""
    shape = draw(st.sampled_from(("arrow", "multi_arrow", "commutative_square",
                                  "terminal_extension", "funnel2", "funnel3")))
    if shape.startswith("funnel"):
        pair = funnel_monoid(k=int(shape[-1]))
    else:
        pair = build_shape(shape, **({} if shape in ("arrow", "commutative_square")
                                     else {"n": 2}))
    return pair, _case_diagram(draw, pair), draw(st.integers(0, 4))


@given(bar_cases())
@settings(max_examples=60, deadline=None)
def test_verdict_path_builds_the_full_build_through_exact_through_plus_one(case):
    pair, x, cutoff = case
    _assert_verdicts_read_the_full_build(x, pair, cutoff, "bar",
                                         bar_approximation(x, pair, cutoff=cutoff))


TERMINAL2 = build_shape("terminal_extension", n=2)


@given(ind_base_cases())
@example((*z2_funnel_acyclic_tail(), 3))  # the bounds read X|D, not X
@example((TERMINAL2, constant_diagram(TERMINAL2.cat, sphere(3, 0)), 0))  # discrete D: exact
@settings(max_examples=60, deadline=None)
def test_ind_base_verdict_path_builds_the_full_build_through_exact_through_plus_one(case):
    pair, x, cutoff = case
    full = ind_base_approximation(x, pair, cutoff=cutoff)
    report = _assert_verdicts_read_the_full_build(x, pair, cutoff, "ind-base", full)
    if is_directed_pair(pair) and full.exact_through is math.inf:
        assert report.verdicts == codescent_locus(x, pair, "bar").verdicts


def _lan_reference(x, pair, cutoff):
    """The ind-base resolution built the paper's way: resolve X|D over
    (D, D) (the identity when full(D) is discrete, else the bar
    construction), push it forward along the inclusion by the left Kan
    extension, and take xi as the left mate of zeta : inner -> X|D.
    Returns (directed, cutoff, exact_through) and the values of QX and xi
    by object."""
    sub = fincat.full_subcategory(pair.cat, pair.d_objects)
    incl = fincat.inclusion_functor(sub, pair.cat)
    res_x = diagrams.restrict_along(incl, x)
    if sub.non_identity_morphisms():
        inner_pair = CatPair(sub, frozenset(sub.objects))
        b = cmod._bounds(res_x, inner_pair, cutoff, "bar")
        inner, zeta, _ = cmod._bar_diagram(res_x, inner_pair, b.length)
        bounds, zeta = (b.directed, b.cutoff, b.exact_through), zeta.comps
    else:
        inner, zeta = res_x, {d: identity_map(res_x.at[d]) for d in sub.objects}
        bounds = True, None, math.inf
    lk = diagrams.left_kan(incl, inner, x.prime)  # an empty D has no prime of its own
    return bounds, lk.diagram.at, diagrams.left_mate(lk, x, zeta)


EMPTY_D = build_shape("discrete", n=2, dset=[])


@given(ind_base_cases())
@example((*z2_funnel_acyclic_tail(), 3))
@example((TERMINAL2, constant_diagram(TERMINAL2.cat, sphere(3, 0)), 0))
@example((EMPTY_D, make_diagram(EMPTY_D.cat, {"x0": disk(3, 1), "x1": sphere(3, 0)}, {}), 2))
@settings(max_examples=60, deadline=None)
def test_ind_base_approximation_is_the_left_kan_extension_of_the_inner_resolution(case):
    # the bar build and the colimits agree up to a choice of basis, so
    # compare what a basis change keeps
    pair, x, cutoff = case
    full = ind_base_approximation(x, pair, cutoff)
    bounds, qx, xi = _lan_reference(x, pair, cutoff)
    assert (full.directed, full.cutoff, full.exact_through) == bounds
    for a in pair.cat.objects:
        assert full.diagram.at[a].dims == qx[a].dims
        assert homology_dims(full.diagram.at[a]) == homology_dims(qx[a])
        assert _verdict_for_map(full.xi.comps[a], full.exact_through) \
            == _verdict_for_map(xi[a], full.exact_through)


def test_verdict_path_builds_nothing_above_exact_through_plus_one():
    # X(d) in degrees 0..2: the full build at cutoff 3 reaches degree 5,
    # the verdict reads d_3 at most (exact_through = 3 + 0 - 1 = 2)
    pair = funnel_monoid(k=2)
    s = ChainComplex(2, {0: 1, 2: 1}, {})
    x = constant_diagram(pair.cat, s)
    v, xi_c = _verdict_build(x, pair, "c", 3)
    full = bar_approximation(x, pair, cutoff=3)
    assert full.exact_through == 2
    assert max(full.diagram.at["c"].dims) == 5
    assert max(xi_c.source.dims) == 3
    assert (v.status, v.degree) == ("fails", 1)


def test_ind_base_verdict_path_builds_nothing_above_exact_through_plus_one():
    # the same X: the full build at c reaches degree 5, the QX(c) an
    # ind-base verdict scans stops at 3
    pair = funnel_monoid(k=2)
    x = constant_diagram(pair.cat, ChainComplex(2, {0: 1, 2: 1}, {}))
    v, xi_c = _verdict_build(x, pair, "c", 3, "ind-base")
    full = ind_base_approximation(x, pair, 3)  # the cutoff is the third argument
    assert full == approximate(x, pair, "ind-base", 3)
    assert full.exact_through == 2
    assert max(full.diagram.at["c"].dims) == 5
    assert max(xi_c.source.dims) == 3
    assert (v.status, v.degree) == ("fails", 1)


def test_an_ind_base_verdict_runs_one_layout_pass():
    # the bounds come from X's values on D in one pass, and hom(-, c) is
    # resolved once and then read from the cache: no inclusion functor, no
    # restricted diagram, no full(D) and no strings
    pair, x = z2_funnel_acyclic_tail()
    counted = ("_bounds", "_resolve")
    cmod._RESOLUTIONS.clear()
    with contextlib.ExitStack() as stack:
        spies = {name: stack.enter_context(mock.patch.object(
            cmod, name, wraps=getattr(cmod, name))) for name in counted}
        _forbid(stack, (fincat.inclusion_functor, diagrams.restrict_along) + BAR_PIECES)
        report = codescent_locus(x, pair, "ind-base", 3)
        assert codescent_locus(x, pair, "ind-base", 3) == report
    assert {name: spy.call_count for name, spy in spies.items()} \
        == {"_bounds": 2, "_resolve": 1}
    assert (report.cutoff, report.exact_through) == (3, 2)


def test_ind_base_verdicts_build_no_comma_category_and_no_colimit():
    pair = funnel_monoid(k=3)
    x = constant_diagram(pair.cat, sphere(3, 0))
    with contextlib.ExitStack() as stack:
        _forbid(stack, (chaincx.finite_colimit, fincat.comma))
        report = codescent_locus(x, pair, "ind-base", 3)
    assert report.verdicts == codescent_locus(x, pair, "bar", 3).verdicts
    assert report.failures == ("c",)


# ---------------------------------------------------------------------------
# the verdict path against the bar route, and its resolutions
# ---------------------------------------------------------------------------

REFERENCE_SHAPES = {
    "arrow": build_shape("arrow"),
    "multi_arrow": build_shape("multi_arrow", n=2),
    "commutative_square": build_shape("commutative_square"),
    "free_square": build_shape("free_square"),
    "discrete": build_shape("discrete", n=2),
    "empty_D": build_shape("discrete", n=2, dset=[]),
    "terminal_extension": build_shape("terminal_extension", n=2),
    "funnel2": funnel_monoid(k=2),
    "funnel3": funnel_monoid(k=3),
    "funnel_tail": funnel_monoid(index=1, period=2),
    "iso_pair": build_shape("iso_pair"),
    "retract_pair": build_shape("retract_pair"),
}


def _bar_resolutions(pair, length):
    """The bar resolution of hom(-, c) on D through ``length``, at each c
    outside D."""
    levels = cmod._paths_in(fincat.full_subcategory(pair.cat, pair.d_objects), length)
    return {c: cmod._bar_resolution(pair.cat, levels, c)[1] for c in pair.complement}


def _bar_reference(x, pair, strategy, cutoff):
    """The bar route: the strategy's bounds, and the verdicts that scanning
    each uncut QX(c) gives."""
    bounds = cmod._bounds(x, pair, cutoff, strategy)
    return bounds, {c: _verdict_for_map(cmod._resolved_comparison(x, res, c, None),
                                        bounds.exact_through)
                    for c, res in _bar_resolutions(pair, bounds.length).items()}


@st.composite
def reference_cases(draw, cutoffs=(None, 0, 1, 2, 3, 4)):
    """Every catalogue shape (the non-directed two-object isomorphism and
    retract pairs included), the Z/2 and Z/3 funnels and a monoid with a
    tail, at ``cutoffs``, with either strategy."""
    pair = REFERENCE_SHAPES[draw(st.sampled_from(sorted(REFERENCE_SHAPES)))]
    return (pair, _case_diagram(draw, pair), draw(st.sampled_from(cutoffs)),
            draw(st.sampled_from(("bar", "ind-base"))))


ISO_PAIR, RETRACT_PAIR = REFERENCE_SHAPES["iso_pair"], REFERENCE_SHAPES["retract_pair"]


@given(reference_cases())
@example((ISO_PAIR, constant_diagram(ISO_PAIR.cat, sphere(3, 0)), None, "bar"))
@example((RETRACT_PAIR, constant_diagram(RETRACT_PAIR.cat, sphere(2, 0)), 2, "ind-base"))
@example((*z2_funnel_acyclic_tail(), 3, "ind-base"))
@settings(max_examples=300, deadline=None)
def test_verdicts_are_the_bar_routes(case):
    pair, x, cutoff, strategy = case
    bounds, want = _bar_reference(x, pair, strategy, cutoff)
    report = codescent_locus(x, pair, strategy, cutoff)
    assert (report.directed, report.cutoff, report.exact_through) \
        == (bounds.directed, bounds.cutoff, bounds.exact_through)
    assert {c: report.verdicts[c] for c in pair.complement} == want


# ---------------------------------------------------------------------------
# invariance laws: retract-equivalent subsets, renaming
# ---------------------------------------------------------------------------

def _consistent(v, w) -> bool:
    """Two verdicts on one question agree wherever both are exact: a
    failure in degree n is the other's failure, in degree n by the same
    defect, unless the other is only a ``holds_up_to`` below n."""
    for a, b in ((v, w), (w, v)):
        if a.status == "fails" and not (
                (b.degree, b.defect) == (a.degree, a.defect) if b.status == "fails"
                else b.status == "holds_up_to" and b.bound < a.degree):
            return False
    return True


@given(st.sampled_from([(RETRACT_PAIR, {"d2"}, "retract_equivalent"),
                        (ISO_PAIR, {"d1"}, "essentially_equivalent")]),
       st.sampled_from((2, 3)), st.integers(0, 2**32 - 1),
       st.sampled_from(("bar", "ind-base")), st.sampled_from((None, 1, 3)))
@settings(max_examples=60, deadline=None)
def test_retract_equivalent_subsets_have_the_same_exact_failures(case, p, seed, strategy, cutoff):
    """D and a D' equivalent to it up to retracts (or isomorphisms) have the
    same weak equivalences, so they fail at c alike, in the same degree by
    the same defect, as far as both verdicts reach (a cutoff can stop one
    below the failure); and an object of D outside D' never fails for D'."""
    pair, dset, kind = case
    assert subset_predicate(pair.cat, kind, pair.dset, other=dset)
    smaller = CatPair(pair.cat, frozenset(dset))
    x = random_diagram(np.random.default_rng(seed), pair.cat, p, lo=-1, hi=1,
                       max_dim=2, cells=2)
    report = codescent_locus(x, smaller, strategy, cutoff)
    assert _consistent(codescent_at(x, pair, "c", strategy, cutoff), report.verdicts["c"])
    assert all(report.verdicts[a].status != "fails" for a in pair.dset - smaller.dset)


def _renamed(pair, x):
    """``pair`` and ``x`` with every object and morphism renamed (sorted
    names in the reverse order) and the objects listed backwards; also the
    new name of each object."""
    cat = pair.cat
    ob = {a: "o%02d" % i for i, a in enumerate(sorted(cat.objects, reverse=True))}
    mo = {m: "m%02d" % i for i, m in enumerate(sorted(cat.mor, reverse=True))}
    renamed = make_category([ob[a] for a in reversed(cat.objects)],
                            {mo[m]: (ob[s], ob[t]) for m, (s, t) in cat.mor.items()},
                            {ob[a]: mo[i] for a, i in cat.identity.items()},
                            {(mo[g], mo[f]): mo[h] for (g, f), h in cat.comp.items()})
    y = make_diagram(renamed, {ob[a]: cx for a, cx in x.at.items()},
                     {mo[m]: f for m, f in x.on.items()})
    return CatPair(renamed, frozenset(ob[a] for a in pair.dset)), y, ob


RENAMING_SHAPES = [build_shape("arrow"), build_shape("multi_arrow", n=2),
                   build_shape("commutative_square"), ISO_PAIR, RETRACT_PAIR,
                   funnel_monoid(k=3), funnel_monoid(k=2, arrows=2),
                   build_shape("terminal_extension", n=2)]


@given(st.sampled_from(RENAMING_SHAPES), st.data(),
       st.sampled_from(("bar", "ind-base")), st.sampled_from((None, 0, 2)))
@settings(max_examples=60, deadline=None)
def test_renaming_objects_and_morphisms_renames_the_report(pair, data, strategy, cutoff):
    x = _case_diagram(data.draw, pair)
    pair2, x2, ob = _renamed(pair, x)
    assert not (set(ob.values()) | set(pair2.cat.mor)) & (set(ob) | set(pair.cat.mor))
    report = codescent_locus(x, pair, strategy, cutoff)
    report2 = codescent_locus(x2, pair2, strategy, cutoff)
    assert (report2.directed, report2.cutoff, report2.exact_through) \
        == (report.directed, report.cutoff, report.exact_through)
    assert {a: report2.verdicts[ob[a]] for a in pair.cat.objects} == report.verdicts


def staggered_square():
    """The square with X(e) in degree 2 and the other values in degree 0:
    at c the bar's P_0 has the block of e (degree 2) before those of d1
    and d2 (degree 0)."""
    pair = REFERENCE_SHAPES["commutative_square"]
    at = {a: sphere(3, 2 if a == "e" else 0) for a in pair.cat.objects}
    return pair, make_diagram(pair.cat, at, {m: zero_map(at[a], at[b]) for m, (a, b)
                                             in pair.cat.mor.items() if a != b})


def two_funnel():
    """A funnel d -> c over the monoid {1, t, u, v}: v is idempotent, u^2
    = v and uv = vu = u (a copy of Z/2 with unit v), t^2 = v, and t acts
    as v on u and v.  Over F_5 its small resolution of hom(-, c) has an
    image coefficient 2, where the catalogue's have only +-1."""
    table = {(g, f): "v" for g in "tuv" for f in "tuv"}
    table.update({("t", "u"): "u", ("u", "t"): "u", ("u", "v"): "u", ("v", "u"): "u"})
    table.update({("a", f): "a" for f in "tuv"})
    mor = {"id_d": ("d", "d"), "id_c": ("c", "c"), "a": ("d", "c"),
           "t": ("d", "d"), "u": ("d", "d"), "v": ("d", "d")}
    cat = make_category(("d", "c"), mor, {"d": "id_d", "c": "id_c"}, table)
    return CatPair(cat, frozenset({"d"}))


def two_funnel_dropping_degree_one():
    """X(d) = X(c) = S^0 (+) S^1 over F_5 on :func:`two_funnel`: every
    structure map is the identity in degree 0 and zero in degree 1."""
    pair = two_funnel()
    s = make_complex(5, {0: 1, 1: 1})
    return pair, make_diagram(pair.cat, {"d": s, "c": s}, {
        m: make_map(s, s, {0: np.eye(1, dtype=np.int64)}) for m in "atuv"})


def test_a_small_resolution_can_carry_a_coefficient_other_than_plus_minus_one():
    res = cmod._resolve(two_funnel(), "c", 5, 3)
    assert {a for level in res for _, image in level for _, _, a in image} == {1, 2, 4}


@given(reference_cases(cutoffs=(0, 1, 2, 3)))  # low enough for plain Python lists
@example((*z2_funnel_acyclic_tail(), 3, "ind-base"))
@example((*staggered_square(), None, "bar"))
@example((two_funnel(), constant_diagram(two_funnel().cat, sphere(5, 0)), 3, "bar"))
@example((*two_funnel_dropping_degree_one(), 3, "ind-base"))
@settings(max_examples=60, deadline=None)
def test_the_shared_builder_is_the_oracles_tensor(case):
    # both resolutions a verdict or a full build tensors with X, uncut and
    # cut above exact_through + 1, against the list-of-lists P (x)_D X;
    # degrees come in increasing order, which is how callers iterate them
    pair, x, cutoff, strategy = case
    bounds = cmod._bounds(x, pair, cutoff, strategy)
    top = None if bounds.exact_through is math.inf else int(bounds.exact_through) + 1
    values = {a: (cx.dims, {t: m.tolist() for t, m in cx.diff.items()})
              for a, cx in x.at.items()}
    maps = {g: {t: m.tolist() for t, m in f.comps.items()} for g, f in x.on.items()}
    bars = _bar_resolutions(pair, bounds.length)
    for c in pair.complement:
        small = cmod._resolution(pair, cmod._shape_key(pair), c, x.prime, bounds.length)
        for res, cut in itertools.product((small, bars[c]), (None, top)):
            f = cmod._resolved_comparison(x, res, c, cut)
            (dims, diffs), comps = oracles.resolution_tensor(res, values, maps, c, x.prime, cut)
            assert f.source.dims == dims
            assert list(f.source.dims) == sorted(dims)
            assert {t: m.tolist() for t, m in f.source.diff.items()} == diffs
            assert {t: m.tolist() for t, m in f.comps.items()} == comps


DIRECTED_SHAPES = [("arrow", {}), ("multi_arrow", {"n": 3}), ("commutative_square", {}),
                   ("free_square", {}), ("terminal_extension", {"n": 3}),
                   ("terminal_extension", {"base": build_shape("commutative_square").cat})]


@pytest.mark.parametrize("name, params", DIRECTED_SHAPES)
def test_an_exact_resolution_ends_by_length_D_minus_one(name, params):
    # on a directed D the first pass picks a minimal set of generators, so
    # P is the minimal resolution; at N = |D| - 1, the length every exact
    # verdict reads, _resolve raises unless the kernel after P_N vanishes,
    # and the conftest hook checks that P_N -> P_{N-1} is injective
    pair = build_shape(name, **params)
    natural = max(len(pair.dset) - 1, 0)
    assert is_directed_pair(pair)
    for c in pair.complement:
        for p in (2, 3):
            assert len(cmod._resolve(pair, c, p, natural)) <= natural + 1


def test_the_end_of_an_exact_resolution_is_checked():
    # F_2 = hom(-, c) on the Z/2 funnel's D = {d} has no finite resolution
    # over F_2[Z/2]; were the pair directed, an exact verdict would read
    # P_0 alone (|D| - 1 = 0), and the kernel of P_0 -> F_2 would stop it
    pair = funnel_monoid(k=2)
    assert [len(level) for level in cmod._resolve(pair, "c", 2, 0)] == [1]
    with mock.patch.object(cmod, "is_directed_pair", return_value=True):
        with pytest.raises(AssertionError, match="no resolution of length 0"):
            cmod._resolve(pair, "c", 2, 0)


def test_the_shape_key_sorts_a_category_once():
    # the category's part of the key, and directedness per D, are kept on
    # the FinCat; an equal FinCat built afresh gets an equal key
    pair = funnel_monoid(k=3)
    pairs = [pair, CatPair(pair.cat, frozenset({"c"}))] * 2
    copy = CatPair(fincat.FinCat(pair.cat.objects, pair.cat.mor, pair.cat.identity,
                                 pair.cat.comp), pair.dset)
    with mock.patch.object(cmod, "sorted", create=True, wraps=sorted) as sorts, \
            mock.patch.object(cmod, "_is_directed", wraps=cmod._is_directed) as dfs:
        keys = [cmod._shape_key(q) for q in pairs]
        directed = [is_directed_pair(q) for q in pairs]
        assert sorts.call_count == 3  # the morphisms, identities and composition table
        assert cmod._shape_key(copy) == keys[0]
        assert sorts.call_count == 6
    assert keys[0] is not keys[1] and keys[0][0] is keys[1][0] and keys[:2] == keys[2:]
    assert directed == [False, True] * 2 and dfs.call_count == 2


def test_resolutions_are_kept_apart_by_composition_prime_and_length():
    # Z/3 and the monoid <t | t^3 = t> share every object and morphism
    # name; only their composition tables differ
    group, monoid = funnel_monoid(k=3), funnel_monoid(index=1, period=2)
    assert (group.cat.objects, group.cat.mor) == (monoid.cat.objects, monoid.cat.mor)
    assert group.cat.comp != monoid.cat.comp
    cmod._RESOLUTIONS.clear()
    runs = [(group, 3, 3), (monoid, 3, 3), (group, 2, 3), (group, 3, 4), (group, 3, 3)]
    with mock.patch.object(cmod, "_resolve", wraps=cmod._resolve) as spy:
        for pair, p, cutoff in runs:
            x = constant_diagram(pair.cat, sphere(p, 0))
            _, want = _bar_reference(x, pair, "bar", cutoff)
            assert codescent_at(x, pair, "c", "bar", cutoff) == want["c"]
    assert spy.call_count == 4  # only the last run is a hit
    assert [(c, p, n) for (_, c, p, n) in cmod._RESOLUTIONS] \
        == [("c", 3, 3), ("c", 3, 3), ("c", 2, 3), ("c", 3, 4)]
    assert len(set(cmod._RESOLUTIONS.values())) == 4


def test_the_resolution_cache_is_bounded_and_holds_immutable_values(monkeypatch):
    monkeypatch.setattr(cmod, "RESOLUTIONS_KEPT", 2)
    cmod._RESOLUTIONS.clear()
    pair = funnel_monoid(k=2)
    x = constant_diagram(pair.cat, sphere(2, 0))
    for cutoff in range(4):
        codescent_at(x, pair, "c", "bar", cutoff)
    assert [n for (*_, n) in cmod._RESOLUTIONS] == [2, 3]  # the newest two
    for res in cmod._RESOLUTIONS.values():
        hash(res)  # tuples of names and ints all the way down


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def test_strategies_agree_on_directed_shapes(rng):
    for name, params in (("arrow", {}), ("commutative_square", {}),
                         ("terminal_extension", {"n": 2})):
        pair = build_shape(name, **params)
        x = random_diagram(rng, pair.cat, 3, hi=1, max_dim=2, cells=1)
        for c in pair.complement:
            a = codescent_at(x, pair, c, strategy="bar")
            b = codescent_at(x, pair, c, strategy="ind-base")
            assert (a.status, a.degree, a.defect, a.bound) \
                == (b.status, b.degree, b.defect, b.bound)


def test_unknown_strategy_rejected(rng):
    # at every object: on D too, where a verdict builds nothing
    pair = build_shape("arrow")
    x = random_diagram(rng, pair.cat, 2, cells=1)
    other = random_diagram(rng, funnel_monoid(k=2).cat, 2, cells=1)
    with pytest.raises(BadShapeParams):
        approximate(x, pair, strategy="simplicial")
    for c in pair.cat.objects:
        with pytest.raises(BadShapeParams):
            codescent_at(x, pair, c, strategy="simplicial")
        with pytest.raises(BadShapeParams):
            codescent_at(x, pair, c, cutoff=-3)
        with pytest.raises(UnknownObject):
            codescent_at(other, pair, c)
    # a discrete D ignores the cutoff, but not a negative one
    y = constant_diagram(TERMINAL2.cat, sphere(3, 0))
    with pytest.raises(BadShapeParams):
        ind_base_approximation(y, TERMINAL2, -3)


# ---------------------------------------------------------------------------
# homotopy pushout
# ---------------------------------------------------------------------------

def _square(e, d1, d2, c, alpha1, alpha2, beta1, beta2):
    pair = build_shape("commutative_square")
    on = {"alpha1": alpha1, "alpha2": alpha2, "beta1": beta1, "beta2": beta2,
          "gamma": compose(beta1, alpha1)}
    return make_diagram(pair.cat, {"e": e, "d1": d1, "d2": d2, "c": c}, on)


def test_pushout_of_identities_is_equivalent_to_the_object():
    s = sphere(3, 1, 2)
    one = identity_map(s)
    x = _square(s, s, s, s, one, one, one, one)
    comp = _square_comparison(x)
    assert homology_dims(comp.source) == homology_dims(s)
    assert is_quasi_iso(comp)
    assert oracle_criterion(x, "commutative_square") == HOLDS


def test_pushout_of_point_collapses_is_suspension():
    s = sphere(2, 0)
    z = zero_complex(2)
    x = _square(s, z, z, z, zero_map(s, z), zero_map(s, z),
                identity_map(z), identity_map(z))
    assert homology_dims(_square_comparison(x).source) == {1: 1}
    assert oracle_criterion(x, "commutative_square") == CodescentVerdict(
        "fails", degree=1, defect=1)


def test_pushout_matches_independent_cone_oracle(rng):
    for i in range(10):
        p = (2, 3)[i % 2]
        pair, x = square_diagram(rng, p, free=False,
                                 plant=("holds", "fails", None)[i % 3])
        v = oracle_criterion(x, "commutative_square")
        raw = {}
        for obj in ("e", "d1", "d2", "c"):
            cx = x.at[obj]
            raw[obj] = (dict(cx.dims), {n: cx.d(n).tolist() for n in cx.degrees()})
        as_comps = lambda f: {n: f.component(n).tolist()
                              for n in set(f.source.dims) | set(f.target.dims)}
        got = oracles.pushout_comparison_defect(
            raw["e"], raw["d1"], raw["d2"], raw["c"],
            as_comps(x.on["alpha1"]), as_comps(x.on["alpha2"]),
            as_comps(x.on["beta1"]), as_comps(x.on["beta2"]), p)
        if got is None:
            assert v.status == "holds"
        else:
            assert (v.degree, v.defect) == got


# ---------------------------------------------------------------------------
# closed-form criteria
# ---------------------------------------------------------------------------

def test_oracle_criterion_error_branches(rng):
    pair = build_shape("arrow")
    x = random_diagram(rng, pair.cat, 2, cells=1)
    with pytest.raises(BadShapeParams):
        oracle_criterion(x, "pentagon")
    with pytest.raises(BadShapeParams):
        oracle_criterion(x, "multi_arrow")  # no arrows named a0, a1, ...
    ext = build_shape("terminal_extension", base=build_shape("arrow").cat)
    y = random_diagram(rng, ext.cat, 2, hi=1, max_dim=2, cells=1)
    with pytest.raises(BadShapeParams):
        oracle_criterion(y, "terminal_extension")  # base is not discrete


def test_free_square_failure_carries_no_degree(rng):
    pair, x = square_diagram(rng, 2, free=True, plant="fails")
    v = oracle_criterion(x, "free_square")
    assert v.status == "fails" and v.degree is None and v.defect is None


# ---------------------------------------------------------------------------
# resolution diagnostics
# ---------------------------------------------------------------------------

def test_verify_accepts_the_bar_resolution(rng):
    pair = build_shape("arrow")
    x = random_diagram(rng, pair.cat, 2, hi=1, max_dim=2, cells=1)
    for build in (bar_approximation, ind_base_approximation):
        report = verify_cofibrant_approx(x, build(x, pair))
        assert report["d_weq"] and report["ok"]
        assert report["lifting_checks"], "arrow shape offers a collapse context"
        assert all(rec["lift_found"] for rec in report["lifting_checks"])


def test_verify_rejects_diagram_posing_as_its_own_resolution():
    # zero at d, a sphere at c: the identity is not a resolution because
    # it cannot lift against the collapse onto the subset value
    pair = build_shape("arrow")
    z = zero_complex(2)
    s = sphere(2, 0)
    x = make_diagram(pair.cat, {"d": z, "c": s}, {"alpha": zero_map(z, s)})
    from codescent import Approximation
    fake = Approximation(x, identity_nat(x), pair, "bar", True, None, math.inf)
    report = verify_cofibrant_approx(x, fake)
    assert report["d_weq"]  # identity is a weak equivalence on the subset
    assert not report["ok"]
    assert any(rec["lift_found"] is False for rec in report["lifting_checks"])
