"""The conftest hook that re-validates the package's own constructions."""

import dataclasses
import sys

import numpy as np
import pytest

from codescent import (
    CatPair, ChainComplex, ChainError, ChainMap, FinCat, FunctorData, NonAssociative,
    NonCommutingSquare, NotAFunctor, NotNatural, build_shape, funnel_monoid, identity_map,
    restrict_to_subset, sphere, zero_complex, zero_map,
)
from codescent._modp import zeros
from codescent.diagrams import Diagram, NatTrans, _comma_values
from codescent.selftest import constant_diagram


def test_every_binding_of_a_builder_is_the_wrapper(revalidation):
    # A module that imports a builder by a name the hook missed would
    # silently stop its checks; every such binding must be the wrapper.
    originals = {id(w.__wrapped__): name for name, w in revalidation.wrappers.items()}
    assert set(revalidation.wrappers) == set(revalidation.checks)
    for module, mod in list(sys.modules.items()):
        if module != "codescent" and not module.startswith("codescent."):
            continue
        for attr, value in vars(mod).items():
            assert id(value) not in originals, (module, attr, originals.get(id(value)))
    for name, wrapper in revalidation.wrappers.items():
        assert getattr(sys.modules[wrapper.__module__], name) is wrapper, name


def test_the_hook_rejects_planted_faults(revalidation):
    check_diagram = revalidation.check_diagram
    pair = build_shape("commutative_square")
    s = sphere(2, 0)
    on = {m: identity_map(s) for m in pair.cat.mor}
    on["gamma"] = zero_map(s, s)  # beta1 o alpha1 = id != gamma
    with pytest.raises(NotAFunctor):
        check_diagram(Diagram(pair.cat, {a: s for a in pair.cat.objects}, on))

    arrow = build_shape("arrow")
    stored_zero = ChainComplex(2, {0: 1, 1: 1}, {1: zeros(1, 1)})
    x = Diagram(arrow.cat, {"d": stored_zero, "c": stored_zero},
                {m: identity_map(stored_zero) for m in arrow.cat.mor})
    with pytest.raises(AssertionError, match="normal form"):
        check_diagram(x)


def test_the_hook_rejects_planted_category_faults(revalidation):
    check_category = revalidation.check_category
    # (a o a) o a = b o a = b, but a o (a o a) = a o b = a
    mor = {"id": ("x", "x"), "a": ("x", "x"), "b": ("x", "x")}
    comp = {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"}
    with pytest.raises(NonAssociative):
        check_category(FinCat(("x",), mor, {"x": "id"}, comp))

    arrow = build_shape("arrow").cat
    short = FinCat(arrow.objects, arrow.mor, arrow.identity, arrow.comp)
    del short.comp[("alpha", "id_d")]
    with pytest.raises(AssertionError, match="make_category"):
        check_category(short)

    cat = funnel_monoid(k=3).cat
    mor_map = {m: m for m in cat.mor}
    mor_map["m1"] = "m0"  # m1 o m1 = m2 would go to m2, yet m0 o m0 = m0
    with pytest.raises(NotAFunctor):
        revalidation.check_functor(FunctorData(cat, cat, {a: a for a in cat.objects}, mor_map))

    into_c = CatPair(arrow, frozenset({"c"}))  # alpha enters c from outside
    with pytest.raises(AssertionError, match="left absorbant"):
        revalidation.checks["restrict_sources"](arrow, into_c)


def test_the_hook_rejects_a_filler_missing_one_triangle(revalidation):
    s, z = sphere(2, 0), zero_complex(2)
    i, top = identity_map(s), identity_map(s)
    p_map, bottom = zero_map(s, z), zero_map(s, z)
    # h = 0 closes the lower triangle (p o h = 0 = bottom) but not h o i = top
    with pytest.raises(AssertionError, match="triangle"):
        revalidation.checks["solve_lifting"](zero_map(s, s), i, p_map, top, bottom)


def test_the_hook_rejects_planted_verdict_faults(revalidation):
    # the P (x)_D X and xi_c that a verdict scans
    check = revalidation.checks["_resolved_comparison"]
    stored_zero = ChainComplex(2, {0: 1, 1: 1}, {1: zeros(1, 1)})
    with pytest.raises(AssertionError, match="normal form"):
        check(ChainMap(stored_zero, zero_complex(2), {}))
    disk = ChainComplex(2, {0: 1, 1: 1}, {1: np.ones((1, 1), dtype=np.int64)})
    # identity in degree 0 only: f_0 o d_1 = 1 but d_1 o f_1 = 0
    with pytest.raises(ChainError):
        check(ChainMap(disk, sphere(2, 0), {0: np.ones((1, 1), dtype=np.int64)}))


def test_the_hook_rejects_planted_resolution_faults(revalidation):
    # hom(-, c) on the square's D: P_0 = F[hom(-, d1)] + F[hom(-, d2)] onto
    # beta1 and beta2, P_1 = F[hom(-, e)] onto alpha1 - alpha2, and no more
    square = build_shape("commutative_square")
    check = revalidation.checks["_resolve"]
    res = revalidation.wrappers["_resolve"].__wrapped__(square, "c", 3, 2)
    check(res, square, "c", 3, 2)
    assert [[gen for gen, _ in level] for level in res] == [["d1", "d2"], ["e"]]
    with pytest.raises(AssertionError, match="not onto"):
        check((res[0][:1],), square, "c", 3, 0)  # beta2 has no preimage
    with pytest.raises(AssertionError, match="not injective"):
        check(res[:1], square, "c", 3, 1)  # P stops early on alpha1 - alpha2
    with pytest.raises(AssertionError, match="not injective"):
        check(res[:1], square, "c", 3, 2)  # ... or must stop there
    (gen, image), = res[1]
    plus = tuple((j, g, 1) for j, g, _ in image)  # alpha1 + alpha2
    with pytest.raises(AssertionError, match="d o d"):
        check((res[0], ((gen, plus),)), square, "c", 3, 2)


def test_the_hook_rejects_planted_ind_base_approximation_faults(revalidation):
    # the comma colimits and the left Kan extension that ``kan ind`` and
    # the left Kan reference of the ind-base tests build, and the
    # comparison map a full approximation carries
    square = build_shape("commutative_square")
    s = sphere(2, 0)
    x = constant_diagram(square.cat, s)
    y, incl = restrict_to_subset(x, square.d_objects)
    lk = revalidation.wrappers["left_kan"].__wrapped__(incl, y)
    unit = lk.unit
    # unit_d1 o Y(alpha1) = injection != 0 = res(Lan)(alpha1) o unit_e
    bad_unit = NatTrans(unit.source, unit.target,
                        {**unit.comps, "e": zero_map(s, unit.target.at["e"])})
    with pytest.raises(NotNatural):
        revalidation.checks["left_kan"](dataclasses.replace(lk, unit=bad_unit), incl, y)

    cm, colim = lk.commas["c"], lk.colimits["c"]
    colim.injections[cm.cat.objects[0]] = zero_map(s, colim.complex)
    with pytest.raises(NonCommutingSquare):
        revalidation.checks["finite_colimit"](colim, cm.cat, *_comma_values(cm, y))

    arrow = build_shape("arrow")
    x = constant_diagram(arrow.cat, s)
    # xi_c o X(alpha) = 0 but X(alpha) o xi_d = id
    xi = NatTrans(x, x, {"d": identity_map(s), "c": zero_map(s, s)})
    with pytest.raises(NotNatural):
        revalidation.checks["_bar_diagram"]((x, xi, {}), x, arrow, 0)


def test_the_hook_rejects_planted_bar_resolution_faults(revalidation):
    # the bar resolution of hom(-, c) on the Z/3 funnel's D through P_2,
    # which approximate tensors with X: a dropped last face and a flipped
    # inner face each break d o d = 0 over F_3
    pair = funnel_monoid(k=3)
    x = constant_diagram(pair.cat, sphere(3, 0))
    check = revalidation.checks["_bar_diagram"]
    qx, xi, resolutions = revalidation.wrappers["_bar_diagram"].__wrapped__(x, pair, 2)
    check((qx, xi, resolutions), x, pair, 2)
    res = resolutions["c"]
    assert [len(level) for level in res] == [1, 2, 4]  # strings of m1 and m2

    def planted(fault):
        return (qx, xi, {"c": tuple(tuple((e, fault(n, image)) for e, image in level)
                                    for n, level in enumerate(res))})

    with pytest.raises(AssertionError, match="d o d"):
        check(planted(lambda n, image: image[:-1] if n else image), x, pair, 2)
    # the string (m1, m1) into c: face 0 (m1) along m1, the inner face
    # (m1 o m1) = (m2) with sign -1, the last face (m1, a0 o m1) = (m1, a0)
    assert res[2][0][1] == ((0, "m1", 1), (1, "m0", -1), (0, "m0", 1))
    with pytest.raises(AssertionError, match="d o d"):
        check(planted(lambda n, image: tuple((j, g, -a if n == 2 and 0 < t < len(image) - 1
                                              else a) for t, (j, g, a) in enumerate(image))),
              x, pair, 2)
