"""Built-in acceptance checks, shared by ``codescent selftest`` and pytest.

Each ``criterion_*`` function runs a deterministic seeded fuzz campaign
comparing the resolution machinery against independent closed-form
criteria, invariance laws, or frozen expected values, and returns a
:class:`CheckResult`.  The test suite asserts on the same functions the
CLI prints, so the two can never drift apart.

The diagram generators here are the fuzz backbone: representable cells
(free diagrams generated at one object) are functorial on *any* finite
category, so sums of cells and constants, conjugated by random basis
changes, produce valid random diagrams uniformly across every catalogue
shape, including the monoid funnels whose structure maps must satisfy
composition laws that independently sampled matrices almost never do.

Frozen expectations (fixed before the engine was built, never edited to
match observed output):

* multi-arrow with two identity structure maps on a degree-0 line:
  fails, least bad degree 0, defect 1.
* order-2 monoid funnel over F_2 with the constant one-point value:
  fails, least bad degree 1, defect 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _modp
from .chaincx import (
    ChainComplex, compose, direct_sum, direct_sum_maps, disk,
    first_homology_failure, identity_map, make_complex, make_map,
    random_chain_map, random_complex, sphere, zero_complex, zero_map,
)
from .fincat import (
    CatPair, FinCat, build_shape, coset_inclusion, full_subcategory,
    inclusion_functor, stabilizer_inclusion,
)
from .diagrams import (
    Diagram, adjoint_transpose, apply_value_functor, glossy_formula_check,
    left_kan, make_diagram, right_kan,
)
from .codescent import (
    codescent_at, codescent_locus, oracle_criterion,
)
from .surgery import (
    cover_split, reduce_funnel, reduce_prune_morphisms, reduce_prune_objects,
    reduce_strict_funnel,
)

EXPECT_MULTI_ARROW_IDENTITY = ("fails", 0, 1)
EXPECT_Z2_FUNNEL = ("fails", 1, 1)

DEFAULT_SEED = 2026


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        return "%s %s: %s" % ("PASS" if self.passed else "FAIL", self.name, self.detail)


def _sig(v):
    return (v.status, v.degree, v.defect, v.bound)


# ---------------------------------------------------------------------------
# Random diagram generators
# ---------------------------------------------------------------------------

def representable_cell(cat: FinCat, d: str, s: ChainComplex) -> Diagram:
    """The free diagram generated by the value ``s`` placed at ``d``.

    Its value at ``a`` is one copy of ``s`` per morphism d -> a and its
    structure maps shuffle the copies by post-composition; functor laws
    hold by associativity, so this is valid on any category.
    """
    p = s.prime
    layout = {a: cat.hom(d, a) for a in cat.objects}
    at = {}
    for a in cat.objects:
        n = len(layout[a])
        at[a] = direct_sum([s] * n)[0] if n else zero_complex(p)
    on = {}
    for m in cat.non_identity_morphisms():
        a, b = cat.source(m), cat.target(m)
        if not layout[a]:
            on[m] = zero_map(at[a], at[b])
            continue
        slot = {lam: i for i, lam in enumerate(layout[b])}
        comps = {}
        for t in s.degrees():
            k = s.dim(t)
            mat = _modp.zeros(at[b].dim(t), at[a].dim(t))
            for i, lam in enumerate(layout[a]):
                j = slot[cat.compose(m, lam)]
                mat[j * k : (j + 1) * k, i * k : (i + 1) * k] = _modp.eye(k)
            comps[t] = mat
        on[m] = make_map(at[a], at[b], comps)
    return make_diagram(cat, at, on)


def constant_diagram(cat: FinCat, s: ChainComplex) -> Diagram:
    at = {a: s for a in cat.objects}
    on = {m: identity_map(s) for m in cat.non_identity_morphisms()}
    return make_diagram(cat, at, on)


def sum_diagrams(xs: list[Diagram]) -> Diagram:
    cat = xs[0].cat
    at = {}
    for a in cat.objects:
        at[a] = direct_sum([x.at[a] for x in xs])[0]
    on = {}
    for m in cat.non_identity_morphisms():
        a, b = cat.source(m), cat.target(m)
        on[m] = direct_sum_maps([x.on[m] for x in xs], at[a], at[b])
    return make_diagram(cat, at, on)


def conjugate_diagram(rng, x: Diagram) -> Diagram:
    """Random degreewise change of basis at every object (an iso of
    diagrams); scrambles matrices without moving any homology."""
    p = x.prime
    u, uinv = {}, {}
    for a in x.cat.objects:
        u[a], uinv[a] = {}, {}
        for t in x.at[a].degrees():
            m = _modp.random_invertible(rng, x.at[a].dim(t), p)
            u[a][t] = m
            uinv[a][t] = _modp.inverse(m, p)
    at = {}
    for a in x.cat.objects:
        cx = x.at[a]
        diff = {}
        for t in cx.degrees():
            if cx.dim(t - 1):
                diff[t] = _modp.matmul(
                    _modp.matmul(u[a][t - 1], cx.d(t), p), uinv[a][t], p)
        at[a] = make_complex(p, dict(cx.dims), diff)
    on = {}
    for m in x.cat.non_identity_morphisms():
        a, b = x.cat.source(m), x.cat.target(m)
        comps = {}
        for t in at[a].degrees():
            if at[b].dim(t):
                mat = _modp.matmul(
                    _modp.matmul(u[b][t], x.on[m].component(t), p), uinv[a][t], p)
                if mat.any():
                    comps[t] = mat
        on[m] = make_map(at[a], at[b], comps)
    return make_diagram(x.cat, at, on)


def random_diagram(rng, cat: FinCat, p: int, lo: int = 0, hi: int = 2,
                   max_dim: int = 3, cells: int = 2,
                   with_constant: bool = True) -> Diagram:
    parts = []
    objs = list(cat.objects)
    for _ in range(cells):
        d = objs[int(rng.integers(0, len(objs)))]
        s, _ = random_complex(rng, lo, hi, max_dim, p)
        if not s.dims:
            s = sphere(p, lo, 1)
        parts.append(representable_cell(cat, d, s))
    if with_constant:
        s, _ = random_complex(rng, lo, hi, max_dim, p)
        if not s.dims:
            s = sphere(p, lo, 1)
        parts.append(constant_diagram(cat, s))
    return conjugate_diagram(rng, sum_diagrams(parts))


def _random_map_diagram(rng, pair: CatPair, p: int, lo=0, hi=4, max_dim=8):
    """Independent complexes and maps; only valid on relation-free shapes
    (arrow and multi-arrow)."""
    cat = pair.cat
    at = {a: random_complex(rng, lo, hi, max_dim, p)[0] for a in cat.objects}
    on = {m: random_chain_map(rng, at[cat.source(m)], at[cat.target(m)])
          for m in cat.non_identity_morphisms()}
    return make_diagram(cat, at, on)


def square_diagram(rng, p: int, free: bool = False, plant: str | None = None):
    """Square diagrams whose wings are split injections.

    ``plant="holds"`` collapses the second wing's complement onto disks so
    the comparison at the tip is a quasi-iso; ``plant="fails"`` puts a
    sphere there.  ``None`` draws random tips.
    """
    pair = build_shape("free_square" if free else "commutative_square")
    cat = pair.cat
    xe, _ = random_complex(rng, 0, 2, 4, p)
    if not xe.dims:
        xe = sphere(p, 0, 1)
    r1, _ = random_complex(rng, 0, 2, 3, p)
    if plant == "holds":
        r2 = disk(p, 1 + int(rng.integers(0, 2)), 1 + int(rng.integers(0, 2)))
    elif plant == "fails":
        r2 = direct_sum([sphere(p, int(rng.integers(0, 3)), 1),
                         disk(p, 1, 1)])[0]
    else:
        r2, _ = random_complex(rng, 0, 2, 3, p)
    t1, injs1, projs1 = direct_sum([xe, r1])
    t2, injs2, projs2 = direct_sum([xe, r2])
    a1, a2 = injs1[0], injs2[0]
    if plant is None:
        xc, _ = random_complex(rng, 0, 2, 4, p)
        b1 = random_chain_map(rng, t1, xc)
        g = compose(b1, a1)
        rho = random_chain_map(rng, r2, xc)
        comps = {}
        for n in t2.degrees():
            if xc.dim(n) == 0:
                continue
            m = np.mod(_modp.matmul(g.component(n), projs2[0].component(n), p)
                       + _modp.matmul(rho.component(n), projs2[1].component(n), p), p)
            if m.any():
                comps[n] = m
        b2 = make_map(t2, xc, comps)
    else:
        # tip = first corner; second wing collapses its complement
        xc = t1
        b1 = identity_map(t1)
        comps = {}
        for n in t2.degrees():
            if xc.dim(n) == 0:
                continue
            m = _modp.matmul(a1.component(n), projs2[0].component(n), p)
            if m.any():
                comps[n] = m
        b2 = make_map(t2, xc, comps)
    on = {"alpha1": a1, "alpha2": a2, "beta1": b1, "beta2": b2}
    if free:
        on["gamma1"] = compose(b1, a1)
        on["gamma2"] = compose(b2, a2)
    else:
        on["gamma"] = compose(b1, a1)
    x = make_diagram(cat, {"e": xe, "d1": t1, "d2": t2, "c": xc}, on)
    return pair, conjugate_diagram(rng, x)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def criterion_1(seed: int = DEFAULT_SEED) -> CheckResult:
    """Arrow: verdict at the target == quasi-iso test of the single map,
    200 seeded diagrams, dims <= 8, degrees in [0, 4], p in {2, 3}."""
    rng = np.random.default_rng(seed)
    pair = build_shape("arrow")
    cat = pair.cat
    outcomes = {"holds": 0, "fails": 0}
    for i in range(200):
        p = (2, 3)[i % 2]
        if i % 3 == 0:
            s, _ = random_complex(rng, 0, 4, 6, p)
            if not s.dims:
                s = sphere(p, 0, 1)
            pad = disk(p, 1 + int(rng.integers(0, 3)), 1 + int(rng.integers(0, 2)))
            tot, injs, _ = direct_sum([s, pad])
            x = make_diagram(cat, {"d": s, "c": tot}, {"alpha": injs[0]})
            x = conjugate_diagram(rng, x)
        else:
            x = _random_map_diagram(rng, pair, p)
        v = codescent_at(x, pair, "c", strategy="bar")
        o = oracle_criterion(x, "arrow")
        if _sig(v) != _sig(o):
            return CheckResult("criterion-1", False,
                               "case %d: %s vs oracle %s" % (i, v, o))
        outcomes[v.status] += 1
    return CheckResult(
        "criterion-1", True,
        "200 arrow diagrams agree with the quasi-iso oracle "
        "(%(holds)d hold, %(fails)d fail)" % outcomes)


def criterion_2(seed: int = DEFAULT_SEED) -> CheckResult:
    """Multi-arrow: verdict == fold-map criterion for 1..3 arrows, plus
    the frozen double-identity failure."""
    rng = np.random.default_rng(seed + 1)
    outcomes = {"holds": 0, "fails": 0}
    for n_arrows in (1, 2, 3):
        pair = build_shape("multi_arrow", n=n_arrows)
        cat = pair.cat
        for i in range(100):
            p = (2, 3)[i % 2]
            if i % 3 == 0:
                s, _ = random_complex(rng, 0, 3, 5, p)
                if not s.dims:
                    s = sphere(p, 0, 1)
                tot, injs, _ = direct_sum([s] * n_arrows)
                x = make_diagram(cat, {"d": s, "c": tot},
                                 {"a%d" % j: injs[j] for j in range(n_arrows)})
                x = conjugate_diagram(rng, x)
            else:
                x = _random_map_diagram(rng, pair, p, hi=3, max_dim=6)
            v = codescent_at(x, pair, "c", strategy="bar")
            o = oracle_criterion(x, "multi_arrow")
            if _sig(v) != _sig(o):
                return CheckResult("criterion-2", False,
                                   "|A|=%d case %d: %s vs oracle %s"
                                   % (n_arrows, i, v, o))
            outcomes[v.status] += 1
    pair = build_shape("multi_arrow", n=2)
    s0 = sphere(2, 0, 1)
    forced = make_diagram(pair.cat, {"d": s0, "c": s0},
                          {"a0": identity_map(s0), "a1": identity_map(s0)})
    v = codescent_at(forced, pair, "c")
    if (v.status, v.degree, v.defect) != EXPECT_MULTI_ARROW_IDENTITY:
        return CheckResult("criterion-2", False,
                           "forced double-identity case gave %s, expected %s"
                           % (v, EXPECT_MULTI_ARROW_IDENTITY))
    return CheckResult(
        "criterion-2", True,
        "300 multi-arrow diagrams agree with the fold oracle "
        "(%(holds)d hold, %(fails)d fail) and the frozen failure matches" % outcomes)


def criterion_3(seed: int = DEFAULT_SEED) -> CheckResult:
    """Squares: commuting square verdict == homotopy-pushout comparison;
    free square verdicts == per-object closed forms."""
    rng = np.random.default_rng(seed + 2)
    outcomes = {"holds": 0, "fails": 0}
    for i in range(100):
        p = (2, 3)[i % 2]
        plant = ("holds", "fails", None)[i % 3]
        pair, x = square_diagram(rng, p, free=False, plant=plant)
        v = codescent_at(x, pair, "c", strategy="bar")
        o = oracle_criterion(x, "commutative_square")
        if _sig(v) != _sig(o):
            return CheckResult("criterion-3", False,
                               "square case %d (%s): %s vs pushout oracle %s"
                               % (i, plant, v, o))
        outcomes[v.status] += 1
    for i in range(100):
        p = (3, 2)[i % 2]
        plant = ("holds", "fails", None)[i % 3]
        pair, x = square_diagram(rng, p, free=True, plant=plant)
        rep = codescent_locus(x, pair, strategy="bar")
        # per-object closed forms: wings at the corners, fold at the tip
        w1 = first_homology_failure(x.on["alpha1"])
        w2 = first_homology_failure(x.on["alpha2"])
        twice = direct_sum([x.at["e"], x.at["e"]])[0]
        comps = {}
        for n in twice.degrees():
            if x.at["c"].dim(n) == 0:
                continue
            m = np.hstack([x.on["gamma1"].component(n), x.on["gamma2"].component(n)])
            if m.any():
                comps[n] = np.mod(m, p)
        fold = make_map(twice, x.at["c"], comps)
        for obj, fail in (("d1", w1), ("d2", w2),
                          ("c", first_homology_failure(fold))):
            got = rep.verdicts[obj]
            want = ("holds" if fail is None else "fails",
                    None if fail is None else fail[0],
                    None if fail is None else fail[1])
            if (got.status, got.degree, got.defect) != want:
                return CheckResult("criterion-3", False,
                                   "free square case %d at %s: %s vs %s"
                                   % (i, obj, got, want))
        o = oracle_criterion(x, "free_square")
        whole = "holds" if not rep.failures and not rep.inconclusive else "fails"
        if whole != o.status:
            return CheckResult("criterion-3", False,
                               "free square case %d: locus %s vs oracle %s"
                               % (i, whole, o.status))
    return CheckResult(
        "criterion-3", True,
        "100 commuting squares match the pushout oracle "
        "(%(holds)d hold, %(fails)d fail); 100 free squares match "
        "the per-object closed forms" % outcomes)


_SURGERY_SHAPES = (
    ("arrow", {}, "c", None),
    ("multi_arrow", {"n": 2}, "c", None),
    ("multi_arrow", {"n": 3}, "c", None),
    ("commutative_square", {}, "c", None),
    ("free_square", {}, "c", None),
    ("discrete", {"n": 3}, "x1", None),
    ("terminal_extension", {"n": 2}, "c_inf", None),
    ("terminal_extension", {"n": 3}, "c_inf", None),
    ("funnel_monoid", {"k": 2}, "c", 3),
    ("funnel_monoid", {"k": 2, "arrows": 2}, "c", 3),
    ("funnel_monoid", {"index": 1, "period": 1}, "c", 3),
)


def criterion_4(seed: int = DEFAULT_SEED) -> CheckResult:
    """Surgery invariance: verdict at the focus unchanged by every
    reduction and inside every cover member, both strategies, zero
    disagreements over 100 instances."""
    rng = np.random.default_rng(seed + 3)
    checked = 0
    for i in range(100):
        name, params, focus, cutoff = _SURGERY_SHAPES[i % len(_SURGERY_SHAPES)]
        p = (2, 3, 5)[i % 3]
        pair = build_shape(name, **params)
        x = random_diagram(rng, pair.cat, p, hi=1, max_dim=2,
                           cells=1 + i % 2)
        for strategy in ("bar", "ind-base"):
            base = codescent_at(x, pair, focus, strategy=strategy, cutoff=cutoff)
            reductions = [
                reduce_prune_objects(x, pair, focus),
                reduce_funnel(x, pair, focus),
                reduce_prune_morphisms(x, pair, focus),
            ]
            if focus not in pair.dset:
                reductions.append(reduce_strict_funnel(x, pair, focus))
            for red in reductions:
                v = codescent_at(red.diagram, red.pair, focus,
                                 strategy=strategy, cutoff=cutoff)
                if _sig(v) != _sig(base):
                    return CheckResult(
                        "criterion-4", False,
                        "case %d (%s, %s, %s): %s gave %s vs %s"
                        % (i, name, strategy, red.tag, focus, v, base))
                checked += 1
            members = [tuple(pair.cat.objects)]
            extra = tuple(a for a in pair.cat.objects
                          if a in pair.dset or a == focus)
            if len(extra) < len(pair.cat.objects):
                members.append(extra)
            for red in cover_split(x, pair, members):
                for a in red.pair.cat.objects:
                    va = codescent_at(red.diagram, red.pair, a,
                                      strategy=strategy, cutoff=cutoff)
                    vo = codescent_at(x, pair, a, strategy=strategy,
                                      cutoff=cutoff)
                    if _sig(va) != _sig(vo):
                        return CheckResult(
                            "criterion-4", False,
                            "case %d (%s, %s, cover member %s) at %s: %s vs %s"
                            % (i, name, strategy, red.note, a, va, vo))
                    checked += 1
    return CheckResult("criterion-4", True,
                       "100 instances, both strategies: %d reduced verdicts, "
                       "zero disagreements" % checked)


_INCLUSION_CASES = (
    ("commutative_square", {}, ("e", "d1", "c")),
    ("commutative_square", {}, ("e", "d1", "d2")),
    ("free_square", {}, ("e", "c")),
    ("multi_arrow", {"n": 2}, ("d",)),
    ("terminal_extension", {"n": 2}, ("x0", "c_inf")),
    ("funnel_monoid", {"k": 2}, ("d",)),
    ("arrow", {}, ("d", "c")),
)


def criterion_5(seed: int = DEFAULT_SEED) -> CheckResult:
    """Kan adjunction suite: unit of (extend-left, restrict) along a full
    inclusion is an iso, adjoint transposes round-trip, and the glossy
    witness formulas are isos on the stabilizer and coset funnels."""
    rng = np.random.default_rng(seed + 4)
    for i in range(50):
        name, params, objs = _INCLUSION_CASES[i % len(_INCLUSION_CASES)]
        p = (2, 3, 5)[i % 3]
        amb = build_shape(name, **params).cat
        sub = full_subcategory(amb, objs)
        incl = inclusion_functor(sub, amb)
        y = random_diagram(rng, sub, p, hi=1, max_dim=2, cells=1)
        lk = left_kan(incl, y)
        for a in sub.objects:
            u = lk.unit.comps[a]
            if u.source.dims != u.target.dims:
                return CheckResult("criterion-5", False,
                                   "case %d: unit not even same-sized at %s" % (i, a))
            for n in u.source.degrees():
                if not _modp.is_invertible(u.component(n), p):
                    return CheckResult(
                        "criterion-5", False,
                        "case %d (%s on %s): unit not invertible at %s degree %d"
                        % (i, name, objs, a, n))
        mate = adjoint_transpose("left", incl, lk.unit, against=lk.diagram,
                                 to="target")
        for a in amb.objects:
            if mate.comps[a] != identity_map(lk.diagram.at[a]):
                return CheckResult("criterion-5", False,
                                   "case %d: mate of unit is not the identity at %s"
                                   % (i, a))
        back = adjoint_transpose("left", incl, mate, against=y, to="source")
        if any(back.comps[a] != lk.unit.comps[a] for a in sub.objects):
            return CheckResult("criterion-5", False,
                               "case %d: left transpose does not round-trip" % i)
        rk = right_kan(incl, y)
        mate2 = adjoint_transpose("right", incl, rk.counit,
                                  against=rk.diagram, to="target")
        for a in amb.objects:
            if mate2.comps[a] != identity_map(rk.diagram.at[a]):
                return CheckResult("criterion-5", False,
                                   "case %d: mate of counit is not the identity at %s"
                                   % (i, a))
        back2 = adjoint_transpose("right", incl, mate2, against=y, to="source")
        if any(back2.comps[a] != rk.counit.comps[a] for a in sub.objects):
            return CheckResult("criterion-5", False,
                               "case %d: right transpose does not round-trip" % i)
    glossy_cases = []
    for (k, arrows) in ((2, 2), (4, 2), (6, 2), (6, 3)):
        glossy_cases.append(("left", stabilizer_inclusion(k, arrows)))
    for (k, m) in ((2, 2), (4, 2), (6, 2), (6, 3)):
        glossy_cases.append(("right", coset_inclusion(k, m)))
    for j, (side, pm) in enumerate(glossy_cases):
        p = (2, 3)[j % 2]
        y = random_diagram(rng, pm.phi.source, p, hi=1, max_dim=2, cells=1)
        ok, detail = glossy_formula_check(side, pm.phi, pm.witnesses, y)
        if not ok:
            return CheckResult("criterion-5", False,
                               "%s glossy formula failed: %s" % (side, detail))
    return CheckResult("criterion-5", True,
                       "50 full inclusions: unit iso and transposes round-trip; "
                       "8 glossy witness formulas are isos")


_DIRECTED_SHAPES = (
    ("arrow", {}),
    ("multi_arrow", {"n": 1}),
    ("multi_arrow", {"n": 3}),
    ("commutative_square", {}),
    ("free_square", {}),
    ("discrete", {"n": 2}),
    ("discrete", {"n": 3}),
    ("terminal_extension", {"n": 2}),
    ("terminal_extension", {"n": 3}),
)


def criterion_6(seed: int = DEFAULT_SEED) -> CheckResult:
    """Strategy independence and locus flexibility: bar == ind-base on
    directed shapes; adding contractible summands or tensoring with a
    complex carrying homology leaves the locus alone."""
    rng = np.random.default_rng(seed + 5)
    for i in range(100):
        name, params = _DIRECTED_SHAPES[i % len(_DIRECTED_SHAPES)]
        p = (2, 3, 5)[i % 3]
        pair = build_shape(name, **params)
        x = random_diagram(rng, pair.cat, p, hi=1, max_dim=2, cells=1 + i % 2)
        rb = codescent_locus(x, pair, strategy="bar")
        ri = codescent_locus(x, pair, strategy="ind-base")
        for a in pair.cat.objects:
            if _sig(rb.verdicts[a]) != _sig(ri.verdicts[a]):
                return CheckResult(
                    "criterion-6", False,
                    "case %d (%s) at %s: bar %s vs ind-base %s"
                    % (i, name, a, rb.verdicts[a], ri.verdicts[a]))
    shapes = _DIRECTED_SHAPES + (("funnel_monoid", {"k": 2}),)
    for i in range(50):
        name, params = shapes[i % len(shapes)]
        p = (2, 3)[i % 2]
        pair = build_shape(name, **params)
        cutoff = 3 if name == "funnel_monoid" else None
        x = random_diagram(rng, pair.cat, p, hi=1, max_dim=2, cells=1)
        pad = representable_cell(
            pair.cat, pair.cat.objects[i % len(pair.cat.objects)],
            disk(p, 1, 1 + i % 2))
        y = conjugate_diagram(rng, sum_diagrams([x, pad]))
        rx = codescent_locus(x, pair, cutoff=cutoff)
        ry = codescent_locus(y, pair, cutoff=cutoff)
        if set(rx.locus) != set(ry.locus) or set(rx.failures) != set(ry.failures):
            return CheckResult(
                "criterion-6", False,
                "weak invariance case %d (%s): locus %s vs %s"
                % (i, name, sorted(rx.locus), sorted(ry.locus)))
    for i in range(50):
        name, params = shapes[i % len(shapes)]
        p = (2, 3)[i % 2]
        pair = build_shape(name, **params)
        cutoff = 3 if name == "funnel_monoid" else None
        x = random_diagram(rng, pair.cat, p, hi=1, max_dim=2, cells=1)
        s = int(rng.integers(0, 2))
        pcx = direct_sum([sphere(p, s, 1 + i % 2), disk(p, s + 1, 1)])[0]
        y = apply_value_functor(x, ("tensor", pcx))
        rx = codescent_locus(x, pair, cutoff=cutoff)
        ry = codescent_locus(y, pair, cutoff=cutoff)
        if set(rx.locus) != set(ry.locus) or set(rx.failures) != set(ry.failures):
            return CheckResult(
                "criterion-6", False,
                "tensor case %d (%s): locus %s vs %s"
                % (i, name, sorted(rx.locus), sorted(ry.locus)))
    return CheckResult("criterion-6", True,
                       "100 directed instances: strategies agree; 50 "
                       "contractible paddings and 50 tensorings keep the locus")


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6)


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return [fn(seed) for fn in ALL_CRITERIA]
