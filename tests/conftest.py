"""Fixtures, and re-validation of the package's own constructions.

The package checks data once, where it enters (``make_complex``,
``make_map``, ``make_diagram``, ``make_nat``), and builds its own
resolutions, Kan extensions, (co)limits and surgery restrictions with the
plain constructors.  Here every such builder is wrapped once, at import,
and its result goes back through the public validators, so every internal
construction the suite makes stays checked:

* every complex is valid and already in the normal form of
  ``make_complex`` (no zero-dimensional degree, no all-zero differential);
* every structure map, unit, counit, comparison and (co)limit leg is a
  chain map (``make_map``);
* functor and naturality laws hold (``make_diagram``, ``make_nat``), and
  colimit injections and limit projections are natural along every
  morphism of the shape.

The wrapper is bound under every name in ``codescent.*`` that holds the
original, the way ``perfbench/tracer.py`` installs its spans, because
modules import the builders by name.
"""

import functools
import sys

import numpy as np
import pytest

import codescent.cli  # noqa: F401  (loads every module that binds a builder)
from codescent.chaincx import NonCommutingSquare, compose, make_complex, make_map
from codescent.diagrams import make_diagram, make_nat

SEED = 20260825


def check_complex(cx):
    clean = make_complex(cx.prime, cx.dims, cx.diff)
    if clean != cx or clean.diff.keys() != cx.diff.keys():
        raise AssertionError("%r is not in the normal form of make_complex" % (cx,))


def check_map(f):
    make_map(f.source, f.target, f.comps)


def check_diagram(x):
    for cx in x.at.values():
        check_complex(cx)
    for f in x.on.values():
        check_map(f)
    make_diagram(x.cat, x.at, x.on)


def check_nat(eta):
    for f in eta.comps.values():
        check_map(f)
    make_nat(eta.source, eta.target, eta.comps)


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


def _check_limit(lim, shape, at, on):
    check_complex(lim.complex)
    for f in lim.projections.values():
        check_map(f)
    for m in shape.non_identity_morphisms():
        a, b = shape.source(m), shape.target(m)
        if compose(on[m], lim.projections[a]) != lim.projections[b]:
            raise NonCommutingSquare(None, "limit projections not natural along %r" % m)


def _check_restriction(x, *args, **kwargs):
    check_diagram(x)


CHECKS = {
    "codescent.codescent": {"bar_approximation": _check_approximation,
                            "ind_base_approximation": _check_approximation},
    "codescent.diagrams": {"left_kan": _check_left_kan,
                           "right_kan": _check_right_kan},
    "codescent.chaincx": {"finite_colimit": _check_colimit,
                          "finite_limit": _check_limit},
    "codescent.surgery": {"_restrict_diagram": _check_restriction},
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
    """The installed wrappers by builder name, and the diagram validator."""
    return WRAPPERS, check_diagram


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def rng_factory():
    def make(offset: int = 0):
        return np.random.default_rng(SEED + offset)
    return make
