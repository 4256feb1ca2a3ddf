"""The conftest hook that re-validates the package's own constructions."""

import sys

import pytest

from codescent import (
    ChainComplex, NotAFunctor, build_shape, identity_map, sphere, zero_map,
)
from codescent._modp import zeros
from codescent.diagrams import Diagram

# Where each builder must be bound; a rename that leaves one of these
# names on the unwrapped original would silently stop its checks.
BINDINGS = {
    "bar_approximation": ("codescent.codescent", "codescent"),
    "ind_base_approximation": ("codescent.codescent", "codescent"),
    "left_kan": ("codescent.diagrams", "codescent.codescent", "codescent.cli",
                 "codescent"),
    "right_kan": ("codescent.diagrams", "codescent.cli", "codescent"),
    "finite_colimit": ("codescent.chaincx", "codescent.diagrams", "codescent"),
    "finite_limit": ("codescent.chaincx", "codescent.diagrams", "codescent"),
    "_restrict_diagram": ("codescent.surgery",),
}


def test_every_binding_of_a_builder_is_the_wrapper(revalidation):
    wrappers, _ = revalidation
    assert set(wrappers) == set(BINDINGS)
    for name, modules in BINDINGS.items():
        for module in modules:
            assert getattr(sys.modules[module], name) is wrappers[name], (module, name)


def test_the_hook_rejects_planted_faults(revalidation):
    _, check_diagram = revalidation
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
