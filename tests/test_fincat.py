import itertools

import pytest

from codescent import (
    BadIdentity,
    BadShapeParams,
    CatPair,
    MissingComposite,
    NonAssociative,
    NotAFunctor,
    UnknownObject,
    build_shape,
    comma,
    coset_inclusion,
    full_subcategory,
    funnel_monoid,
    funnel_objects,
    glossy,
    inclusion_functor,
    is_isomorphic,
    is_retract,
    make_category,
    make_functor,
    restrict_sources,
    stabilizer_inclusion,
    strict_funnel_category,
    subset_predicate,
)
from codescent.selftest import _INCLUSION_CASES


def two_object_arrow():
    return build_shape("arrow")


# ---------------------------------------------------------------------------
# category validation
# ---------------------------------------------------------------------------

def test_make_category_autofills_identity_composites():
    cat = two_object_arrow().cat
    assert cat.compose("alpha", "id_d") == "alpha"
    assert cat.compose("id_c", "alpha") == "alpha"
    assert ("alpha", "id_d") in cat.comp


def test_make_category_rejects_duplicate_objects():
    with pytest.raises(UnknownObject):
        make_category(("x", "x"), {"id_x": ("x", "x")}, {"x": "id_x"}, {})


def test_make_category_rejects_stray_endpoints():
    with pytest.raises(UnknownObject):
        make_category(("x",), {"id_x": ("x", "x"), "f": ("x", "y")},
                      {"x": "id_x"}, {})


def test_make_category_rejects_missing_identity():
    with pytest.raises(BadIdentity):
        make_category(("x",), {"f": ("x", "x")}, {}, {})


def test_make_category_rejects_shared_identity():
    mor = {"id": ("x", "x"), "id_y": ("y", "y")}
    with pytest.raises(BadIdentity):
        make_category(("x", "y"), mor, {"x": "id", "y": "id"}, {})


def test_make_category_rejects_identity_law_violation():
    mor = {"id_x": ("x", "x"), "f": ("x", "x")}
    comp = {("f", "id_x"): "id_x", ("f", "f"): "id_x"}
    with pytest.raises(BadIdentity):
        make_category(("x",), mor, {"x": "id_x"}, comp)


def test_make_category_rejects_partial_composition():
    mor = {"id_x": ("x", "x"), "f": ("x", "x")}
    with pytest.raises(MissingComposite):
        make_category(("x",), mor, {"x": "id_x"}, {})


def test_make_category_rejects_non_associative_table():
    mor = {"e": ("x", "x"), "a": ("x", "x"), "b": ("x", "x")}
    comp = {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "e", ("b", "b"): "b"}
    with pytest.raises(NonAssociative):
        make_category(("x",), mor, {"x": "e"}, comp)


def test_compose_raises_on_non_composable():
    cat = two_object_arrow().cat
    with pytest.raises(MissingComposite):
        cat.compose("alpha", "alpha")


def round_trip(cat):
    return make_category(cat.objects, cat.mor, cat.identity, cat.comp)


def test_validate_category_round_trip():
    cat = funnel_monoid(k=3).cat
    again = round_trip(cat)
    assert again == cat and again.comp.keys() == cat.comp.keys()


def test_catpair_rejects_foreign_dset():
    cat = two_object_arrow().cat
    with pytest.raises(UnknownObject):
        CatPair(cat, frozenset({"nope"}))
    pair = CatPair(cat, frozenset({"d"}))
    assert pair.d_objects == ("d",)
    assert pair.complement == ("c",)


# ---------------------------------------------------------------------------
# shape catalogue
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,params,n_obj,n_mor,dset", [
    ("arrow", {}, 2, 3, {"d"}),
    ("multi_arrow", {"n": 3}, 2, 5, {"d"}),
    ("commutative_square", {}, 4, 9, {"e", "d1", "d2"}),
    ("free_square", {}, 4, 10, {"e"}),
    ("discrete", {"n": 3}, 3, 3, {"x0"}),
    ("terminal_extension", {"n": 2}, 3, 5, {"x0", "x1"}),
])
def test_shape_catalogue(name, params, n_obj, n_mor, dset):
    pair = build_shape(name, **params)
    assert len(pair.cat.objects) == n_obj
    assert len(pair.cat.mor) == n_mor
    assert pair.dset == frozenset(dset)
    assert round_trip(pair.cat) == pair.cat


def test_build_shape_unknown_name():
    with pytest.raises(BadShapeParams):
        build_shape("moebius")


def test_build_shape_bad_params():
    with pytest.raises(BadShapeParams):
        build_shape("multi_arrow", n=0)
    with pytest.raises(BadShapeParams):
        build_shape("discrete", n=-1)


def test_funnel_monoid_group_case():
    pair = funnel_monoid(k=2)
    cat = pair.cat
    assert set(cat.objects) == {"d", "c"}
    assert cat.compose("m1", "m1") == "m0"
    assert cat.compose("a0", "m1") == "a0"  # trivial action
    assert pair.dset == frozenset({"d"})


def test_funnel_monoid_with_tail():
    # t^2 = t^1: an idempotent tail element
    cat = funnel_monoid(index=1, period=1).cat
    assert cat.compose("m1", "m1") == "m1"


def test_funnel_monoid_regular_action():
    cat = funnel_monoid(k=3, action="regular").cat
    assert len([m for m in cat.mor if m.startswith("a")]) == 3
    assert cat.compose("a0", "m1") == "a1"


def test_funnel_monoid_param_checks():
    with pytest.raises(BadShapeParams):
        funnel_monoid(k=2, index=1, period=1)
    with pytest.raises(BadShapeParams):
        funnel_monoid(index=2)
    with pytest.raises(BadShapeParams):
        funnel_monoid(k=4, arrows=3, action="cyclic")  # 3 does not divide 4
    with pytest.raises(BadShapeParams):
        funnel_monoid(k=2, action="galois")


def test_terminal_extension_over_custom_base():
    base = build_shape("arrow").cat
    pair = build_shape("terminal_extension", base=base)
    cat = pair.cat
    assert "c_inf" in cat.objects
    assert pair.dset == frozenset({"d", "c"})
    # the terminal legs absorb every base morphism
    assert cat.compose("t_c", "alpha") == "t_d"


# ---------------------------------------------------------------------------
# subcategories and comma categories
# ---------------------------------------------------------------------------

def test_full_subcategory_and_inclusion():
    pair = build_shape("commutative_square")
    sub = full_subcategory(pair.cat, ["e", "c"])
    assert set(sub.objects) == {"e", "c"}
    assert sub.hom("e", "c") == ["gamma"]
    inclusion_functor(sub, pair.cat)  # the conftest hook runs make_functor on it
    assert all(sub.hom(a, b) == pair.cat.hom(a, b) for a in sub.objects for b in sub.objects)


def test_full_subcategory_unknown_object():
    with pytest.raises(UnknownObject):
        full_subcategory(two_object_arrow().cat, ["z"])


def test_non_full_subcategory_detected():
    pair = funnel_monoid(k=2)
    cut = strict_funnel_category(pair.cat, set(), "d")
    # only the identity endomorphism of d survives
    assert sorted(cut.mor) == ["m0"]
    assert cut.hom("d", "d") != pair.cat.hom("d", "d")


def test_comma_of_funnel_is_translation_category():
    pair = funnel_monoid(k=2, arrows=2, action="cyclic")
    sub = full_subcategory(pair.cat, ["d"])
    phi = inclusion_functor(sub, pair.cat)
    cm = comma(phi, "c")
    # objects: the two arrows d -> c; morphisms: one per (object, group elt)
    assert len(cm.cat.objects) == 2
    assert len(cm.cat.mor) == 4
    # the cyclic action makes the category connected
    o1, o2 = cm.cat.objects
    assert cm.cat.hom(o1, o2)


def test_comma_error_branches():
    pair = two_object_arrow()
    sub = full_subcategory(pair.cat, ["d"])
    phi = inclusion_functor(sub, pair.cat)
    with pytest.raises(UnknownObject):
        comma(phi, "nope")


def test_make_functor_error_branches():
    z4 = funnel_monoid(k=4).cat
    z2 = funnel_monoid(k=2).cat
    good = {"id_c": "id_c", "a0": "a0", "m0": "m0",
            "m1": "m1", "m2": "m0", "m3": "m1"}
    make_functor(z4, z2, {"d": "d", "c": "c"}, good)  # reduction mod 2 works
    with pytest.raises(NotAFunctor):
        make_functor(z4, z2, {"d": "d"}, good)  # c unmapped
    with pytest.raises(NotAFunctor):
        bad = dict(good, m2="m1")  # no longer a homomorphism
        make_functor(z4, z2, {"d": "d", "c": "c"}, bad)
    with pytest.raises(NotAFunctor):
        bad = dict(good, m0="m1")  # identity not preserved
        make_functor(z4, z2, {"d": "d", "c": "c"}, bad)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def test_subset_predicates_on_square():
    cat = build_shape("commutative_square").cat
    assert subset_predicate(cat, "left_absorbant", {"e", "d1", "d2"})
    assert not subset_predicate(cat, "left_absorbant", {"d1"})  # alpha1 enters
    assert subset_predicate(cat, "retract_closed", {"e", "d1", "d2"})
    assert subset_predicate(cat, "retract_equivalent", {"d1"}, other={"d1"})
    assert not subset_predicate(cat, "essentially_equivalent", {"d1"}, other={"d2"})


def test_subset_predicate_errors():
    cat = two_object_arrow().cat
    with pytest.raises(UnknownObject):
        subset_predicate(cat, "left_absorbant", {"ghost"})
    with pytest.raises(BadShapeParams):
        subset_predicate(cat, "open_dense", {"d"})
    with pytest.raises(BadShapeParams):
        subset_predicate(cat, "retract_equivalent", {"d"})


def test_retract_and_iso_basics():
    cat = two_object_arrow().cat
    assert is_retract(cat, "d", "d")
    assert not is_retract(cat, "c", "d")
    assert is_isomorphic(cat, "d", "d")
    assert not is_isomorphic(cat, "d", "c")


# ---------------------------------------------------------------------------
# funnels and source restriction
# ---------------------------------------------------------------------------

def test_strict_funnel_rejects_focus_in_subset():
    cat = two_object_arrow().cat
    with pytest.raises(BadShapeParams):
        strict_funnel_category(cat, {"d", "c"}, "c")


def test_strict_funnel_cuts_outgoing():
    cat = two_object_arrow().cat
    cut = strict_funnel_category(cat, {"c"}, "d")
    assert set(cut.objects) == {"d", "c"}
    assert cut.non_identity_morphisms() == []  # alpha left the focus: dropped


def test_funnel_objects_on_square():
    pair = build_shape("commutative_square")
    data = funnel_objects(pair, "c")
    assert data.d_c == frozenset({"e", "d1", "d2"})
    assert set(data.funnel_pair.cat.objects) == set(pair.cat.objects)
    assert data.strict_pair is not None
    assert data.strict_pair.dset == frozenset({"e", "d1", "d2"})


def test_funnel_objects_focus_inside_dset():
    pair = build_shape("commutative_square")
    data = funnel_objects(pair, "d1")
    assert data.strict_pair is None
    # e maps in via alpha1; d1 counts itself through its identity
    assert data.d_c == frozenset({"e", "d1"})


def test_funnel_objects_unknown_focus():
    with pytest.raises(UnknownObject):
        funnel_objects(two_object_arrow(), "zz")


def test_restrict_sources_keeps_left_absorbancy():
    pair = build_shape("free_square")  # dset = {e}
    out = restrict_sources(pair)
    kept = set(out.non_identity_morphisms())
    assert kept == {"alpha1", "alpha2", "gamma1", "gamma2"}
    assert subset_predicate(out, "left_absorbant", pair.dset)


# ---------------------------------------------------------------------------
# glossiness
# ---------------------------------------------------------------------------

def test_stabilizer_inclusion_is_left_glossy():
    for k, arrows in ((2, 2), (4, 2), (6, 3)):
        pm = stabilizer_inclusion(k, arrows)
        # shipped witnesses cover the funnel source d; verify them there
        res = glossy("left", pm.phi, {"d"}, witnesses=pm.witnesses)
        assert res.holds, res.failures
        # the search finds witness sets for both objects on its own
        res2 = glossy("left", pm.phi, {"d", "c"})
        assert res2.holds and res2.witnesses


def test_coset_inclusion_is_right_glossy():
    for k, index in ((2, 2), (4, 2), (6, 3)):
        pm = coset_inclusion(k, index)
        res = glossy("right", pm.phi, {"d"}, witnesses=pm.witnesses)
        assert res.holds, res.failures
        assert glossy("right", pm.phi, {"d", "c"}).holds


def _right_factorizations(phi, bset, b):
    """The tests alpha : Phi(a) -> Phi(b), the candidates (b_j, beta :
    Phi(b_j) -> Phi(b)) with b_j in ``bset``, and how often each candidate
    factors each test as alpha = beta o Phi(gamma).  Read off the ``mor``
    and ``comp`` tables alone, not through ``hom`` or the opposite."""
    src, amb, fb = phi.source, phi.target, phi.obj_map[b]
    tests = [(a, alpha) for a in src.objects for alpha, ends in sorted(amb.mor.items())
             if ends == (phi.obj_map[a], fb)]
    cands = [(bj, beta) for bj in bset for beta, ends in sorted(amb.mor.items())
             if ends == (phi.obj_map[bj], fb)]
    counts = {}
    for (bj, beta) in cands:
        for (a, alpha) in tests:
            counts[(bj, beta), (a, alpha)] = sum(
                1 for gamma, ends in src.mor.items()
                if ends == (a, bj) and amb.comp[(beta, phi.mor_map[gamma])] == alpha)
    return tests, cands, counts


def _right_glossy_cases():
    for k in range(1, 9):
        for m in range(1, k + 1):
            if k % m == 0:
                for build in (stabilizer_inclusion, coset_inclusion):
                    pm = build(k, m)
                    yield pm.phi, pm.witnesses
    for name, params, objs in _INCLUSION_CASES:
        amb = build_shape(name, **params).cat
        yield inclusion_functor(full_subcategory(amb, objs), amb), {}


def test_right_glossiness_matches_a_direct_count_of_factorizations():
    checked = 0
    for phi, shipped in _right_glossy_cases():
        objs = phi.source.objects
        for bset in itertools.chain.from_iterable(
                itertools.combinations(objs, r) for r in range(len(objs) + 1)):
            data = {b: _right_factorizations(phi, bset, b) for b in bset}

            def valid(b, ws):
                tests, cands, counts = data[b]
                return all(w in cands for w in ws) and all(
                    sum(counts[w, t] for w in ws) == 1 for t in tests)

            # a witness set exists at b iff some subset of the candidates
            # that factor no test twice covers every test exactly once
            covers = {}
            for b in bset:
                tests, cands, counts = data[b]
                usable = [c for c in cands if all(counts[c, t] <= 1 for t in tests)]
                covers[b] = next((list(ws) for r in range(len(usable) + 1)
                                  for ws in itertools.combinations(usable, r)
                                  if valid(b, ws)), None)
            res = glossy("right", phi, set(bset))
            assert set(res.failures) == {b for b in bset if covers[b] is None}
            assert res.holds == all(c is not None for c in covers.values())
            if res.holds:
                assert all(valid(b, ws) for b, ws in res.witnesses.items())
            # the verification mode agrees with the count on good and bad sets
            trials = [shipped, {b: c for b, c in covers.items() if c is not None}]
            for b in bset:
                cands = data[b][1]
                good = covers[b] or cands
                trials += [{b: good[:-1]}, {b: good + good[:1]}, {b: cands},
                           {b: [(b, phi.target.identity[phi.obj_map[c]]) for c in objs]}]
            for witnesses in trials:
                res = glossy("right", phi, bset, witnesses=witnesses)
                bad = {b for b in bset if not valid(b, witnesses.get(b, []))}
                assert set(res.failures) == bad
                assert res.holds == (not bad)
                checked += 1
    assert checked > 1000


def test_trivial_subgroup_with_trivial_action_is_not_left_glossy():
    # one arrow, trivial action: both cosets hit the same arrow twice, so
    # no witness set can factor it uniquely
    pm = coset_inclusion(2, 2)
    res = glossy("left", pm.phi, {"d", "c"})
    assert not res.holds
    assert "d" in res.failures
    assert res.witnesses is None


def test_glossy_rejects_malformed_witnesses():
    pm = stabilizer_inclusion(2, 2)
    res = glossy("left", pm.phi, {"d"}, witnesses={"d": [("d", "a0")]})
    assert not res.holds
    assert "right shape" in res.failures["d"]


def test_glossy_side_check():
    pm = stabilizer_inclusion(2, 2)
    with pytest.raises(BadShapeParams):
        glossy("up", pm.phi, {"d"})


def test_pair_morphism_builders_validate_params():
    with pytest.raises(BadShapeParams):
        stabilizer_inclusion(3, 2)
    with pytest.raises(BadShapeParams):
        coset_inclusion(4, 3)
