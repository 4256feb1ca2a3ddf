import contextlib
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import codescent.codescent as cmod
from codescent import chaincx, fincat
from codescent import (
    BadShapeParams,
    CatPair,
    ChainComplex,
    ChainMap,
    CodescentVerdict,
    DNotFull,
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
    make_complex,
    make_diagram,
    make_map,
    oracle_criterion,
    sphere,
    strict_funnel_category,
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
    ap = bar_approximation(x, pair)
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
    # constant sphere over the Z/3 funnel: the resolution's value at the
    # tip computes group homology of Z/3 over F_3
    pair = funnel_monoid(k=3)
    s = sphere(3, 0)
    x = make_diagram(pair.cat, {"d": s, "c": s},
                     {"m1": identity_map(s), "m2": identity_map(s),
                      "a0": identity_map(s)})
    ap = bar_approximation(x, pair, cutoff=5)
    got = homology_dims(ap.diagram.at["c"])
    want = oracles.cyclic_group_homology(3, 3, 4)
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

# what each strategy's full build calls; a verdict must call none of them
FULL_BUILDS = {"bar": ("bar_approximation",),
               "ind-base": ("ind_base_approximation", "left_kan")}


def _verdict_build(x, pair, c, cutoff, strategy="bar"):
    """codescent_at's verdict at c and the xi_c : QX(c) -> X(c) it
    scanned; the full resolution must not be built on the way."""
    scanned, scan = [], cmod._verdict_for_map

    def record(f, exact_through):
        scanned.append(f)
        return scan(f, exact_through)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(cmod, "_verdict_for_map", record))
        for name in FULL_BUILDS[strategy]:
            stack.enter_context(mock.patch.object(cmod, name, side_effect=AssertionError))
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
    """At every c outside D the verdict path scans a complex with the dims
    of the full build's value at c cut above exact_through + 1, and its
    verdict is the full build's and the locus's, and the locus reports
    the full build's cutoff and exact_through.  Returns the locus report
    and, by c, the scanned xi_c with the full build's xi_c cut there."""
    top = full.exact_through + 1
    report = codescent_locus(x, pair, strategy, cutoff)
    assert (report.strategy, report.directed, report.cutoff, report.exact_through) \
        == (full.strategy, full.directed, full.cutoff, full.exact_through)
    scanned = {}
    for c in pair.complement:
        v, xi_c = _verdict_build(x, pair, c, cutoff, strategy)
        scanned[c] = xi_c, _below(full.xi.comps[c], top)
        assert xi_c.source.dims == scanned[c][1].source.dims
        assert v == report.verdicts[c] == _verdict_for_map(full.xi.comps[c],
                                                           full.exact_through)
    return report, scanned


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
    _, scanned = _assert_verdicts_read_the_full_build(
        x, pair, cutoff, "bar", bar_approximation(x, pair, cutoff=cutoff))
    for xi_c, want in scanned.values():
        assert xi_c.source == want.source
        assert xi_c.source.diff.keys() == want.source.diff.keys()
        assert xi_c == want


TERMINAL2 = build_shape("terminal_extension", n=2)


@given(ind_base_cases())
@example((*z2_funnel_acyclic_tail(), 3))  # the bounds read X|D, not X
@example((TERMINAL2, constant_diagram(TERMINAL2.cat, sphere(3, 0)), 0))  # discrete D: exact
@settings(max_examples=60, deadline=None)
def test_ind_base_verdict_path_builds_the_full_build_through_exact_through_plus_one(case):
    # the verdict scans the bar QX(c); the full build's colimit at c is
    # that complex in another basis, so dims and verdicts must agree
    pair, x, cutoff = case
    full = ind_base_approximation(x, pair, cutoff=cutoff)
    report, _ = _assert_verdicts_read_the_full_build(x, pair, cutoff, "ind-base", full)
    if is_directed_pair(pair) and full.exact_through is math.inf:
        assert report.verdicts == codescent_locus(x, pair, "bar").verdicts


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
    # the same X: the full build's colimit at c reaches degree 5, the QX(c)
    # an ind-base verdict scans stops at 3
    pair = funnel_monoid(k=2)
    x = constant_diagram(pair.cat, ChainComplex(2, {0: 1, 2: 1}, {}))
    v, xi_c = _verdict_build(x, pair, "c", 3, "ind-base")
    full = ind_base_approximation(x, pair, cutoff=3)
    assert full.exact_through == 2
    assert max(full.diagram.at["c"].dims) == 5
    assert max(xi_c.source.dims) == 3
    assert (v.status, v.degree) == ("fails", 1)


def test_an_ind_base_verdict_runs_one_layout_pass():
    # the bounds come from full(D) and X's values on D: no inclusion
    # functor, no restricted diagram, and full(D) and its strings once
    pair, x = z2_funnel_acyclic_tail()
    counted = ("full_subcategory", "_paths_in")
    with contextlib.ExitStack() as stack:
        spies = {name: stack.enter_context(mock.patch.object(
            cmod, name, wraps=getattr(cmod, name))) for name in counted}
        for name in ("inclusion_functor", "restrict_along"):
            stack.enter_context(mock.patch.object(cmod, name, side_effect=AssertionError))
        report = codescent_locus(x, pair, "ind-base", 3)
    assert {name: spy.call_count for name, spy in spies.items()} == dict.fromkeys(counted, 1)
    assert (report.cutoff, report.exact_through) == (3, 2)


def test_ind_base_verdicts_build_no_comma_category_and_no_colimit():
    pair = funnel_monoid(k=3)
    x = constant_diagram(pair.cat, sphere(3, 0))
    builders = (chaincx.finite_colimit, fincat.comma)
    with contextlib.ExitStack() as stack:
        for mod in [m for n, m in sys.modules.items() if n.startswith("codescent")]:
            for attr, value in list(vars(mod).items()):
                if any(value is b for b in builders):
                    stack.enter_context(mock.patch.object(mod, attr, side_effect=AssertionError))
        report = codescent_locus(x, pair, "ind-base", 3)
    assert report.verdicts == codescent_locus(x, pair, "bar", 3).verdicts
    assert report.failures == ("c",)


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


def test_ind_base_rejects_non_full_sub():
    pair, x = z2_funnel_s0()
    thin = strict_funnel_category(pair.cat, set(), "d")  # drops m1
    with pytest.raises(DNotFull):
        ind_base_approximation(x, pair, sub=thin)


def test_ind_base_identity_base_needs_discrete_subset():
    pair, x = z2_funnel_s0()
    with pytest.raises(BadShapeParams):
        ind_base_approximation(x, pair, base="identity")


def test_unknown_strategy_rejected(rng):
    pair = build_shape("arrow")
    x = random_diagram(rng, pair.cat, 2, cells=1)
    with pytest.raises(BadShapeParams):
        approximate(x, pair, strategy="simplicial")


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
    ap = bar_approximation(x, pair)
    report = verify_cofibrant_approx(x, ap)
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
