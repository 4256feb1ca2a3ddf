import numpy as np
import pytest

from codescent import (
    BadShapeParams,
    InvalidWitness,
    NotAFunctor,
    NotNatural,
    PrimeMismatch,
    UnknownObject,
    adjoint_transpose,
    apply_value_functor,
    build_shape,
    compose_nat,
    disk,
    full_subcategory,
    funnel_monoid,
    glossy_formula_check,
    identity_map,
    identity_nat,
    inclusion_functor,
    is_quasi_iso,
    kan,
    left_kan,
    left_kan_counit,
    make_diagram,
    make_map,
    make_nat,
    restrict_along,
    restrict_nat_along,
    restrict_to_subset,
    right_kan,
    right_kan_unit,
    solve_nat_lifting_zero,
    sphere,
    stabilizer_inclusion,
    tensor,
    zero_complex,
    zero_map,
)
from codescent import test_D_class as classify_D  # avoid pytest collection
from codescent.selftest import constant_diagram, random_diagram, representable_cell


def arrow_diagram(p=2):
    pair = build_shape("arrow")
    s = sphere(p, 0)
    tot = disk(p, 1)
    x = make_diagram(pair.cat, {"d": s, "c": s},
                     {"alpha": identity_map(s)})
    return pair, x


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_make_diagram_fills_identities():
    pair, x = arrow_diagram()
    assert x.on["id_d"] == identity_map(x.at["d"])


def test_make_diagram_missing_value():
    pair = build_shape("arrow")
    with pytest.raises(UnknownObject):
        make_diagram(pair.cat, {"d": sphere(2, 0)}, {})


def test_make_diagram_prime_clash():
    pair = build_shape("arrow")
    with pytest.raises(PrimeMismatch):
        make_diagram(pair.cat, {"d": sphere(2, 0), "c": sphere(3, 0)}, {})


def test_make_diagram_missing_morphism():
    pair = build_shape("arrow")
    s = sphere(2, 0)
    with pytest.raises(NotAFunctor):
        make_diagram(pair.cat, {"d": s, "c": s}, {})


def test_make_diagram_rejects_broken_functoriality():
    pair = build_shape("commutative_square")
    s = sphere(2, 0)
    one = identity_map(s)
    on = {"alpha1": one, "alpha2": one, "beta1": one, "beta2": one,
          "gamma": zero_map(s, s)}  # beta1 o alpha1 = id != gamma
    with pytest.raises(NotAFunctor):
        make_diagram(pair.cat, {a: s for a in pair.cat.objects}, on)


def test_diagram_degree_window():
    pair = build_shape("discrete", n=2)
    x = make_diagram(pair.cat, {"x0": sphere(2, -1), "x1": disk(2, 3)}, {})
    assert x.lo() == -1 and x.hi() == 3
    assert x.prime == 2


def test_make_nat_checks_naturality():
    pair, x = arrow_diagram()
    s = x.at["d"]
    flip = make_diagram(pair.cat, {"d": s, "c": s}, {"alpha": zero_map(s, s)})
    with pytest.raises(NotNatural):
        make_nat(x, flip, {"d": identity_map(s), "c": identity_map(s)})
    with pytest.raises(NotNatural):
        make_nat(x, x, {"d": identity_map(s)})  # missing component


def test_identity_and_composition_of_nats():
    _, x = arrow_diagram()
    ident = identity_nat(x)
    assert compose_nat(ident, ident) == ident


def test_D_class_kinds():
    pair, x = arrow_diagram()
    ident = identity_nat(x)
    ok, detail = classify_D(ident, {"d"}, kind="triv_fib")
    assert ok and detail == {"d": True}
    y = make_diagram(pair.cat, {"d": zero_complex(2), "c": zero_complex(2)},
                     {"alpha": zero_map(zero_complex(2), zero_complex(2))})
    to_zero = make_nat(x, y, {a: zero_map(x.at[a], y.at[a])
                              for a in pair.cat.objects})
    ok, _ = classify_D(to_zero, {"d"}, kind="weq")
    assert not ok
    with pytest.raises(BadShapeParams):
        classify_D(ident, {"d"}, kind="fibrous")


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

def test_restrict_to_subset_round_trip(rng):
    pair = build_shape("commutative_square")
    x = random_diagram(rng, pair.cat, 3, hi=1, max_dim=2, cells=1)
    sub_x, incl = restrict_to_subset(x, ["e", "c"])
    assert set(sub_x.cat.objects) == {"e", "c"}
    assert sub_x.at["e"] == x.at["e"]
    assert sub_x.on["gamma"] == x.on["gamma"]
    assert restrict_along(incl, x).at == sub_x.at


def test_restrict_along_rejects_foreign_diagram():
    pair = build_shape("arrow")
    sub = full_subcategory(pair.cat, ["d"])
    incl = inclusion_functor(sub, pair.cat)
    y = make_diagram(sub, {"d": sphere(2, 0)}, {})
    with pytest.raises(NotAFunctor):
        restrict_along(incl, y)  # y lives on the source, not the target


# ---------------------------------------------------------------------------
# Kan extensions
# ---------------------------------------------------------------------------

def test_left_kan_along_sub_terminal_inclusion(rng):
    pair = build_shape("arrow")
    sub = full_subcategory(pair.cat, ["d"])
    incl = inclusion_functor(sub, pair.cat)
    y = make_diagram(sub, {"d": random_diagram(rng, sub, 2, cells=1).at["d"]}, {})
    lk = left_kan(incl, y)
    # the comma category at c is a single point, so the extension copies y
    assert lk.diagram.at["c"].dims == y.at["d"].dims
    assert is_quasi_iso(lk.diagram.on["alpha"])
    assert is_quasi_iso(lk.unit.comps["d"])


def test_left_kan_computes_coinvariants():
    # Z/2 swapping two generators: coinvariants are 1-dimensional
    pair = funnel_monoid(k=2)
    sub = full_subcategory(pair.cat, ["d"])
    incl = inclusion_functor(sub, pair.cat)
    two = sphere(2, 0, 2)
    swap = make_map(two, two, {0: np.array([[0, 1], [1, 0]])})
    y = make_diagram(sub, {"d": two}, {"m1": swap})
    lk = left_kan(incl, y)
    assert lk.diagram.at["c"].dims == {0: 1}


def test_right_kan_copies_backwards_and_zeroes_empty_commas():
    arrow = build_shape("arrow")
    sub = full_subcategory(arrow.cat, ["c"])
    incl = inclusion_functor(sub, arrow.cat)
    y = make_diagram(sub, {"c": sphere(3, 1, 2)}, {})
    rk = right_kan(incl, y)
    # the comma from d is the single arrow alpha, so the value is copied
    assert rk.diagram.at["d"].dims == y.at["c"].dims
    assert is_quasi_iso(rk.diagram.on["alpha"])

    # nothing maps from c into the funnel source: empty limit = zero
    pair = funnel_monoid(k=2)
    dsub = full_subcategory(pair.cat, ["d"])
    dincl = inclusion_functor(dsub, pair.cat)
    two = sphere(3, 0, 2)
    swap = make_map(two, two, {0: np.array([[0, 1], [1, 0]])})
    yd = make_diagram(dsub, {"d": two}, {"m1": swap})
    rk2 = right_kan(dincl, yd)
    assert rk2.diagram.at["c"].dims == {}


def test_kan_dispatcher():
    pair, x = arrow_diagram()
    sub = full_subcategory(pair.cat, ["d"])
    incl = inclusion_functor(sub, pair.cat)
    y = restrict_along(incl, x)
    assert kan("res", incl, x).at["d"] == x.at["d"]
    assert kan("ind", incl, y).at["c"].dims == y.at["d"].dims
    assert kan("ext", incl, y).at["c"].dims == {}  # empty comma from c
    with pytest.raises(BadShapeParams):
        kan("sideways", incl, y)


def test_triangle_identities(rng):
    # R(counit) o unit = id and counit o R(unit) = id, on a funnel with a
    # genuine group action so the extensions are not simply copies
    pair = funnel_monoid(k=2, arrows=2, action="cyclic")
    x = random_diagram(rng, pair.cat, 2, hi=1, max_dim=2, cells=1)
    sub = full_subcategory(pair.cat, ["d"])
    incl = inclusion_functor(sub, pair.cat)
    y = restrict_along(incl, x)

    lk = left_kan(incl, y)
    counit = left_kan_counit(incl, x, None)
    # same lk is rebuilt inside; check the triangle on the unit side instead
    lk_of_y = left_kan(incl, y)
    res_counit = restrict_nat_along(
        incl, adjoint_transpose("left", incl, lk_of_y.unit,
                                against=lk_of_y.diagram, to="target"))
    tri = compose_nat(res_counit, lk_of_y.unit)
    assert tri == identity_nat(y)

    rk = right_kan(incl, y)
    mate = adjoint_transpose("right", incl, rk.counit,
                             against=rk.diagram, to="target")
    tri2 = compose_nat(rk.counit, restrict_nat_along(incl, mate))
    assert tri2 == identity_nat(y)

    # the counit against the original diagram is natural by construction
    assert counit.target.at == x.at
    unit = right_kan_unit(incl, x, None)
    assert unit.source.at == x.at


def test_adjoint_transpose_error_branches(rng):
    pair = build_shape("arrow")
    sub = full_subcategory(pair.cat, ["d"])
    incl = inclusion_functor(sub, pair.cat)
    x = random_diagram(rng, pair.cat, 2, cells=1)
    y = restrict_along(incl, x)
    lk = left_kan(incl, y)
    mismatched = make_diagram(pair.cat, {"d": disk(2, 5), "c": sphere(2, 0)},
                              {"alpha": zero_map(disk(2, 5), sphere(2, 0))})
    with pytest.raises(NotNatural):
        adjoint_transpose("left", incl, lk.unit, against=mismatched, to="target")
    with pytest.raises(BadShapeParams):
        adjoint_transpose("down", incl, lk.unit, against=x, to="target")


# ---------------------------------------------------------------------------
# glossy formulas
# ---------------------------------------------------------------------------

def test_glossy_formula_positive(rng):
    pm = stabilizer_inclusion(2, 2)
    y = random_diagram(rng, pm.phi.source, 2, hi=1, max_dim=2, cells=1)
    ok, detail = glossy_formula_check("left", pm.phi, pm.witnesses, y)
    assert ok, detail


def test_glossy_formula_rejects_non_comma_witness(rng):
    pm = stabilizer_inclusion(2, 2)
    y = random_diagram(rng, pm.phi.source, 2, hi=1, max_dim=2, cells=1)
    # same total dimension as the good witnesses, but a1 : d -> c cannot
    # name a comma object over d
    with pytest.raises(InvalidWitness):
        glossy_formula_check("left", pm.phi,
                             {"d": [("d", "m1"), ("d", "a1")]}, y)
    with pytest.raises(BadShapeParams):
        glossy_formula_check("up", pm.phi, pm.witnesses, y)


def test_glossy_formula_detects_wrong_witness_count(rng):
    pm = stabilizer_inclusion(2, 2)
    y = random_diagram(rng, pm.phi.source, 2, hi=1, max_dim=2, cells=1)
    # dropping one coset representative breaks the dimension count
    ok, detail = glossy_formula_check(
        "left", pm.phi, {"d": pm.witnesses["d"][:1]}, y)
    assert not ok and detail["d"] is False


# ---------------------------------------------------------------------------
# value functors and natural lifting
# ---------------------------------------------------------------------------

def test_apply_value_functor(rng):
    pair = build_shape("arrow")
    x = random_diagram(rng, pair.cat, 3, cells=1)
    assert apply_value_functor(x, ("identity",)) is x
    s = sphere(3, 2)
    shifted = apply_value_functor(x, ("tensor", s))
    assert shifted.at["d"] == tensor(x.at["d"], s)
    with pytest.raises(BadShapeParams):
        apply_value_functor(x, ("suspend",))


def test_nat_lifting_identity_projection(rng):
    pair = build_shape("arrow")
    x = random_diagram(rng, pair.cat, 2, cells=1)
    bottom = identity_nat(x)
    h = solve_nat_lifting_zero(identity_nat(x), bottom)
    assert h is not None
    assert compose_nat(identity_nat(x), h) == bottom


def test_nat_lifting_obstruction():
    pair, x = arrow_diagram()
    zero = constant_diagram(pair.cat, zero_complex(2))
    p_nat = make_nat(zero, x, {a: zero_map(zero.at[a], x.at[a])
                               for a in pair.cat.objects})
    assert solve_nat_lifting_zero(p_nat, identity_nat(x)) is None


def test_nat_lifting_rejects_mismatched_problem():
    pair, x = arrow_diagram()
    other = constant_diagram(build_shape("discrete", n=1).cat, sphere(2, 0))
    with pytest.raises(NotNatural):
        solve_nat_lifting_zero(identity_nat(x), identity_nat(other))


def test_representable_cell_is_functorial_on_monoids(rng):
    # representable cells stay valid on categories with relations
    pair = funnel_monoid(k=3, action="regular")
    cell = representable_cell(pair.cat, "d", sphere(3, 0))
    assert cell.at["d"].dims == {0: 3}  # one copy per endomorphism
    assert cell.at["c"].dims == {0: 3}  # one copy per arrow
