"""Acceptance gate.

One test per shipped guarantee, one printed PASS/FAIL line each (visible
with ``pytest -s`` or on failure).  Guarantees 1-6 run the same seeded
campaigns as ``codescent selftest``; 7 and 8 are pinned here against the
independent oracles in ``oracles.py``, which were written and frozen
before the package internals.
"""

import math
import re
import time

import numpy as np

import oracles

from codescent import (
    bar_approximation, build_shape, codescent_at, funnel_monoid,
    homology_dims, is_directed_pair, make_category, mapping_cone, sphere,
)
from codescent import selftest as st


def _line(num, passed, detail):
    text = "criterion %d: %s - %s" % (num, "PASS" if passed else "FAIL", detail)
    print(text)
    assert passed, text


def _run(num, fn, limit=None):
    t0 = time.perf_counter()
    result = fn(st.DEFAULT_SEED)
    elapsed = time.perf_counter() - t0
    detail = "%s (%.1fs)" % (result.detail, elapsed)
    if limit is not None and elapsed >= limit:
        _line(num, False, detail + ", over the %.0fs budget" % limit)
    _line(num, result.passed, detail)


def test_criterion_1_arrow_quasi_iso_equivalence():
    _run(1, st.criterion_1, limit=10.0)


def test_selftest_details_carry_no_wall_time():
    # `selftest --format json` is canonical output: a timing would change
    # between two runs of the same seed
    detail = st.criterion_1(st.DEFAULT_SEED + 1).detail
    assert not re.search(r", \d+\.\ds$", detail), detail


def test_criterion_2_multi_arrow_fold_criterion():
    _run(2, st.criterion_2)


def test_criterion_3_square_pushout_criterion():
    result = st.criterion_3(st.DEFAULT_SEED)
    # second, fully package-independent route: the raw cone-based pushout
    # comparison from oracles.py on 100 fresh seeded squares
    rng = np.random.default_rng(st.DEFAULT_SEED + 7)
    agree = 0
    for i in range(100):
        p = (2, 3)[i % 2]
        pair, x = st.square_diagram(rng, p, free=False,
                                    plant=("holds", "fails", None)[i % 3])
        v = codescent_at(x, pair, "c", strategy="bar")
        raw = {}
        for obj in ("e", "d1", "d2", "c"):
            cx = x.at[obj]
            raw[obj] = (dict(cx.dims),
                        {n: cx.d(n).tolist() for n in cx.degrees()})
        as_comps = lambda f: {n: f.component(n).tolist()
                              for n in set(f.source.dims) | set(f.target.dims)}
        got = oracles.pushout_comparison_defect(
            raw["e"], raw["d1"], raw["d2"], raw["c"],
            as_comps(x.on["alpha1"]), as_comps(x.on["alpha2"]),
            as_comps(x.on["beta1"]), as_comps(x.on["beta2"]), p)
        want = None if v.status == "holds" else (v.degree, v.defect)
        if got != want:
            _line(3, False, "independent oracle disagrees on square %d: "
                            "verdict %s vs defect %r" % (i, v, got))
        agree += 1
    _line(3, result.passed,
          result.detail + "; %d/100 verdicts re-checked by the raw cone oracle"
          % agree)


def test_criterion_4_surgery_invariance():
    _run(4, st.criterion_4)


def test_criterion_5_adjunction_and_glossy_formulas():
    _run(5, st.criterion_5)


def test_criterion_6_strategy_independence_and_flexibility():
    _run(6, st.criterion_6)


def test_criterion_7_z2_funnel_failure_detection():
    t0 = time.perf_counter()
    pair = funnel_monoid(k=2)
    x = st.constant_diagram(pair.cat, sphere(2, 0, 1))
    frozen = oracles.EXPECT_Z2_FUNNEL
    if st.EXPECT_Z2_FUNNEL != frozen:
        _line(7, False, "frozen expectations drifted apart: %r vs %r"
                        % (st.EXPECT_Z2_FUNNEL, frozen))
    for cutoff in range(3, 9):
        v = codescent_at(x, pair, "c", cutoff=cutoff)
        if (v.status, v.degree, v.defect) != frozen:
            _line(7, False, "cutoff %d gave %s, frozen expectation %r"
                            % (cutoff, v, frozen))
        # the resolution itself must reproduce the group homology computed
        # by the independent 2-periodic resolution oracle
        ap = bar_approximation(x, pair, cutoff=cutoff)
        through = int(ap.exact_through)
        got = homology_dims(ap.diagram.at["c"])
        want = oracles.cyclic_group_homology(2, 2, through)
        for n in range(through + 1):
            if got.get(n, 0) != want[n]:
                _line(7, False, "cutoff %d: H_%d of the resolution is %d, "
                                "oracle says %d"
                                % (cutoff, n, got.get(n, 0), want[n]))
    if v.defect != oracles.EXPECT_H1_Z2_F2:
        _line(7, False, "defect %r != frozen dim H_1 = %d"
                        % (v.defect, oracles.EXPECT_H1_Z2_F2))
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    _line(7, ok, "cutoffs 3..8 all give Fails(degree=1, defect=1); resolution "
                 "homology matches the independent group-homology oracle "
                 "(%.1fs%s)" % (elapsed, "" if ok else ", over the 5s budget"))


def _chain3_extension():
    chain = make_category(
        ("e0", "e1", "e2"),
        {"id_e0": ("e0", "e0"), "id_e1": ("e1", "e1"), "id_e2": ("e2", "e2"),
         "a01": ("e0", "e1"), "a12": ("e1", "e2"), "a02": ("e0", "e2")},
        {"e0": "id_e0", "e1": "id_e1", "e2": "id_e2"},
        {("a12", "a01"): "a02"})
    return build_shape("terminal_extension", base=chain)


def test_criterion_8_truncation_soundness():
    shapes = (
        ("commutative_square", build_shape("commutative_square"), 2),
        ("terminal_extension(2)", build_shape("terminal_extension", n=2), 1),
        ("terminal_extension(3)", build_shape("terminal_extension", n=3), 2),
        ("chain3_extension", _chain3_extension(), 2),
    )
    rng = np.random.default_rng(st.DEFAULT_SEED + 8)
    checked = 0
    for name, pair, natural in shapes:
        assert is_directed_pair(pair)
        for case in range(6):
            p = (2, 3, 5)[case % 3]
            x = st.random_diagram(rng, pair.cat, p, hi=1, max_dim=2, cells=1)
            exact = bar_approximation(x, pair)
            if exact.exact_through is not math.inf:
                _line(8, False, "%s: exact mode not exact" % name)
            for cutoff in range(natural):
                tr = bar_approximation(x, pair, cutoff=cutoff)
                if tr.cutoff != cutoff or tr.exact_through != cutoff + x.lo() - 1:
                    _line(8, False,
                          "%s cutoff %d: declared range %r breaks the formula"
                          % (name, cutoff, tr.exact_through))
                lo, hi = x.lo() - 1, int(tr.exact_through)
                for c in sorted(set(pair.cat.objects) - pair.dset):
                    ch_t = homology_dims(mapping_cone(tr.xi.comps[c]))
                    ch_e = homology_dims(mapping_cone(exact.xi.comps[c]))
                    for t in range(lo, hi + 1):
                        if ch_t.get(t, 0) != ch_e.get(t, 0):
                            _line(8, False,
                                  "%s cutoff %d at %s: cone H_%d is %d "
                                  "truncated vs %d exact"
                                  % (name, cutoff, c, t,
                                     ch_t.get(t, 0), ch_e.get(t, 0)))
                    vt = codescent_at(x, pair, c, cutoff=cutoff)
                    ve = codescent_at(x, pair, c)
                    if vt.status == "fails":
                        if (ve.status, ve.degree, ve.defect) != \
                                ("fails", vt.degree, vt.defect) or vt.degree > hi:
                            _line(8, False,
                                  "%s cutoff %d at %s: truncated %s vs exact %s"
                                  % (name, cutoff, c, vt, ve))
                    else:
                        if vt.status != "holds_up_to" or vt.bound != hi:
                            _line(8, False,
                                  "%s cutoff %d at %s: expected a bounded "
                                  "verdict, got %s" % (name, cutoff, c, vt))
                        if ve.status == "fails" and ve.degree <= hi:
                            _line(8, False,
                                  "%s cutoff %d at %s: truncation missed the "
                                  "in-range failure %s" % (name, cutoff, c, ve))
                    checked += 1
    _line(8, True, "4 directed shapes x 6 diagrams: every truncated verdict "
                   "and cone homology agrees with exact mode through the "
                   "declared range (%d comparisons)" % checked)
