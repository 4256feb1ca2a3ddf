import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from codescent import (
    NonCommutingSquare,
    NotAComplex,
    PrimeMismatch,
    ShapeMismatch,
    add_maps,
    build_shape,
    compose,
    direct_sum,
    direct_sum_maps,
    disk,
    finite_colimit,
    first_homology_failure,
    full_subcategory,
    homology_dims,
    identity_map,
    inclusion_functor,
    induced_homology_map,
    is_quasi_iso,
    make_complex,
    make_diagram,
    make_map,
    mapping_cone,
    random_chain_map,
    random_complex,
    right_kan,
    solve_lifting,
    sphere,
    tensor,
    tensor_maps,
    zero_complex,
    zero_map,
)
from codescent import _modp
from codescent.fincat import _opposite

import oracles
from test_modp import PANEL_PRIMES


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_make_complex_drops_zero_degrees():
    cx = make_complex(3, {0: 2, 1: 0, 5: 0})
    assert cx.dims == {0: 2}
    assert cx.lo == cx.hi == 0
    assert list(cx.degrees()) == [0]


def test_make_complex_rejects_composite_prime():
    with pytest.raises(PrimeMismatch):
        make_complex(6, {0: 1})


def test_prime_check_runs_once_per_prime():
    start = time.perf_counter()
    for _ in range(2000):
        make_complex(94906249, {0: 1})
    assert time.perf_counter() - start < 0.5


def test_make_complex_rejects_wrong_shape():
    with pytest.raises(ShapeMismatch):
        make_complex(2, {0: 1, 1: 1}, {1: np.zeros((2, 2), dtype=np.int64)})


def test_make_complex_rejects_nonzero_square():
    d = {1: np.array([[1]]), 2: np.array([[1]])}
    with pytest.raises(NotAComplex):
        make_complex(2, {0: 1, 1: 1, 2: 1}, d)


def test_sphere_and_disk_homology():
    assert homology_dims(sphere(5, 3, 2)) == {3: 2}
    assert not homology_dims(disk(5, 3, 4))
    assert not homology_dims(zero_complex(5))


def test_make_map_rejects_prime_mismatch():
    with pytest.raises(PrimeMismatch):
        make_map(sphere(2, 0), sphere(3, 0), {})


def test_make_map_rejects_non_chain_data():
    src = sphere(2, 1)
    tgt = disk(2, 1)  # F_2 --id--> F_2
    # d o f = id but f o d = 0, so degree 1 cannot commute
    with pytest.raises(NonCommutingSquare):
        make_map(src, tgt, {1: np.array([[1]])})


def test_make_map_rejects_float_component():
    s = sphere(5, 0)
    with pytest.raises(TypeError, match="float"):
        make_map(s, s, {0: np.array([[1.5]])})


def test_compose_and_add_small():
    s = sphere(3, 0, 2)
    f = make_map(s, s, {0: np.array([[1, 1], [0, 1]])})
    g = make_map(s, s, {0: np.array([[2, 0], [0, 2]])})
    assert compose(g, f).component(0).tolist() == [[2, 2], [0, 2]]
    assert add_maps(f, f).component(0).tolist() == [[2, 2], [0, 2]]


# ---------------------------------------------------------------------------
# homology and the two quasi-iso routes
# ---------------------------------------------------------------------------

def test_random_complex_has_certified_homology(rng):
    for p in (2, 3, 5):
        for _ in range(20):
            cx, betti = random_complex(rng, -1, 3, 6, p)
            assert homology_dims(cx) == betti


def test_homology_matches_independent_oracle(rng):
    for _ in range(20):
        cx, _ = random_complex(rng, 0, 4, 6, 3)
        dims = dict(cx.dims)
        diffs = {n: cx.d(n).tolist() for n in cx.degrees() if cx.d(n).size}
        assert homology_dims(cx) == oracles.homology_dims_oracle(dims, diffs, 3)


def test_cone_route_and_induced_map_route_agree(rng):
    hits = {True: 0, False: 0}
    for i in range(40):
        p = (2, 3)[i % 2]
        a, _ = random_complex(rng, 0, 3, 5, p)
        if i % 4 == 0:
            # plant a quasi-iso: inclusion with acyclic complement
            b, injs, _ = direct_sum([a, disk(p, 2, 2)])
            f = injs[0]
        else:
            b, _ = random_complex(rng, 0, 3, 5, p)
            f = random_chain_map(rng, a, b)
        via_cone = not homology_dims(mapping_cone(f))
        via_induced = _basis_route_failure(f, None) is None
        assert via_cone == via_induced == is_quasi_iso(f)
        hits[via_cone] += 1
    assert hits[True] and hits[False]  # both outcomes exercised


def _basis_route_failure(f, through):
    """First failure read off the matrices of H_n(f) in homology bases."""
    degs = set(f.source.dims) | set(f.target.dims)
    if not degs:
        return None
    top = max(degs) if through is None else through
    for n in range(min(degs), top + 1):
        m = induced_homology_map(f, n)
        r = _modp.rank(m, f.prime)
        ker, coker = m.shape[1] - r, m.shape[0] - r
        if ker or coker:
            return (n, ker + coker)
    return None


def test_first_failure_matches_oracle(rng):
    for i in range(25):
        p = (2, 5)[i % 2]
        a, _ = random_complex(rng, 0, 3, 5, p)
        b, _ = random_complex(rng, 0, 3, 5, p)
        f = random_chain_map(rng, a, b)
        raw_src = (dict(a.dims), {n: a.d(n).tolist() for n in a.degrees()})
        raw_tgt = (dict(b.dims), {n: b.d(n).tolist() for n in b.degrees()})
        comps = {n: f.component(n).tolist()
                 for n in set(a.dims) | set(b.dims)}
        assert first_homology_failure(f) == oracles.first_defect(
            raw_src, raw_tgt, comps, p)


@st.composite
def maps_and_bounds(draw):
    """A chain map between random complexes (either may be zero) over a
    degree window that reaches below zero, and a scan bound around it."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def complex_or_zero():
        if draw(st.booleans()) and draw(st.booleans()):
            return zero_complex(p)
        lo = draw(st.integers(-3, 1))
        return random_complex(rng, lo, lo + draw(st.integers(0, 3)), 5, p)[0]

    a = complex_or_zero()
    if draw(st.booleans()):
        b = complex_or_zero()
        f = random_chain_map(rng, a, b)
    else:
        # inclusion with an acyclic complement: a quasi-iso
        b, injs, _ = direct_sum([a, disk(p, draw(st.integers(-2, 3)), 2)])
        f = injs[0]
    through = draw(st.none() | st.integers(-6, 6))
    return f, through


@given(maps_and_bounds())
@settings(max_examples=120, deadline=None)
def test_rank_route_matches_basis_route_and_oracle(case):
    f, through = case
    got = first_homology_failure(f, through)
    assert got == _basis_route_failure(f, through)
    a, b = f.source, f.target
    degs = set(a.dims) | set(b.dims)
    if not degs:
        assert got is None
        return
    top = max(degs) if through is None else through
    raw_src = (dict(a.dims), {n: a.d(n).tolist() for n in a.degrees()})
    raw_tgt = (dict(b.dims), {n: b.d(n).tolist() for n in b.degrees()})
    comps = {n: f.component(n).tolist() for n in degs}
    assert got == oracles.first_defect(raw_src, raw_tgt, comps, f.prime,
                                       range(min(degs), top + 1))


def _raw_first_defect(f):
    a, b = f.source, f.target
    raw_src = (dict(a.dims), {n: a.d(n).tolist() for n in a.degrees()})
    raw_tgt = (dict(b.dims), {n: b.d(n).tolist() for n in b.degrees()})
    comps = {n: f.component(n).tolist() for n in set(a.dims) | set(b.dims)}
    return oracles.first_defect(raw_src, raw_tgt, comps, f.prime)


@st.composite
def panel_scan_cases(draw):
    """A chain map f = u j q + d h + h d between complexes of total
    dimension 15 to 40, and a panel height of 1 to 5 rows.  A = A0 (+) C
    and B = C (+) B0 for a random C and A0, B0 each random, acyclic or
    zero; q : A -> C and j : C -> B are the projection and the inclusion,
    u a unit, so H(f) kills H(A0) and misses H(B0); h : A -> B of degree +1
    hides the blocks."""
    p = draw(st.sampled_from(PANEL_PRIMES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = draw(st.integers(-1, 1))
    hi = lo + draw(st.integers(1, 3))
    kinds = draw(st.tuples(*[st.sampled_from(("random", "acyclic", "zero"))] * 2))

    def summand(kind):
        if kind == "zero":
            return zero_complex(p)
        if kind == "acyclic":
            return direct_sum([disk(p, n, int(rng.integers(1, 5))) for n in range(lo + 1, hi + 1)])[0]
        return random_complex(rng, lo, hi, 9, p)[0]

    while True:
        c = random_complex(rng, lo, hi, 15, p)[0]
        a, _, proj = direct_sum([summand(kinds[0]), c])
        b, inj, _ = direct_sum([c, summand(kinds[1])])
        if 15 <= a.total_dim <= 40 and 15 <= b.total_dim <= 40:
            break
    unit, jq = int(rng.integers(1, p)), compose(inj[0], proj[1])
    h = {n: rng.integers(0, p, size=(b.dim(n + 1), a.dim(n))) for n in a.dims}
    comps = {}
    for n in set(a.dims) | set(b.dims):
        dh = b.d(n + 1) @ h.get(n, _modp.zeros(b.dim(n + 1), a.dim(n)))
        hd = h.get(n - 1, _modp.zeros(b.dim(n), a.dim(n - 1))) @ a.d(n)
        comps[n] = (unit * jq.component(n) + dh + hd) % p
    return make_map(a, b, comps), draw(st.integers(1, 5))


def _every_row_case():
    """f : S^0 -> B, B_1 -> B_0 = [1; 1] and f_0 = [1; 0], a
    quasi-isomorphism.  With panels of one row, the first pivot of cone d_1
    = [[1, 1], [1, 0]] hits every row below, so the Schur update drops
    its column, and the next pivot, column 1 of the cone, sits in column 0
    of what is left."""
    b = make_complex(3, {0: 2, 1: 1}, {1: np.array([[1], [1]])})
    return make_map(sphere(3, 0), b, {0: np.array([[1], [0]])}), 1


@given(panel_scan_cases())
@example(_every_row_case())
@settings(max_examples=40, deadline=None)
def test_the_scan_matches_the_oracle_on_the_panel_route(case):
    # every rank the scan takes runs through panels of a few rows, where
    # the pivot columns of each panel must be mapped back to the cone's
    f, height = case
    want = _raw_first_defect(f)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_modp, "SMALL", 0)
        patch.setattr(_modp, "PANEL", height)
        assert first_homology_failure(f) == want


def test_the_scan_reduces_each_d_A_once_and_ranks_one_matrix_per_degree(rng):
    # rref meets each d^A once (its reduced rows give the next cycles), and
    # _pivot_columns one matrix [d^B_{n+1} | f_n K_n] of B_n rows per degree
    # visited; no d^B is ranked alone
    a = random_complex(rng, 0, 3, 6, 3)[0]
    b, inj, _ = direct_sum([a, disk(3, 2, 2)])
    with mock.patch.object(_modp, "_pivot_columns", wraps=_modp._pivot_columns) as elim, \
            mock.patch.object(_modp, "rref", wraps=_modp.rref) as rref, \
            mock.patch.object(_modp, "rank", wraps=_modp.rank) as rank:
        assert first_homology_failure(inj[0]) is None  # so every degree is visited
    assert a.diff and all(sum(call.args[0] is m for call in rref.call_args_list) == 1
                          for m in a.diff.values())
    visited = sorted(set(a.dims) | set(b.dims))
    assert [call.args[0].shape[0] for call in elim.call_args_list] == [b.dim(n) for n in visited]
    calls = rref.call_args_list + elim.call_args_list + rank.call_args_list
    assert not any(call.args[0] is m for call in calls for m in b.diff.values())


def test_identity_is_quasi_iso_zero_to_acyclic_is_too():
    s = sphere(2, 1, 3)
    assert is_quasi_iso(identity_map(s))
    assert is_quasi_iso(zero_map(zero_complex(2), disk(2, 2, 2)))
    assert not is_quasi_iso(zero_map(zero_complex(2), s))


def test_mapping_cone_shifts_source():
    f = zero_map(sphere(2, 0), zero_complex(2))
    cone = mapping_cone(f)
    assert homology_dims(cone) == {1: 1}


# ---------------------------------------------------------------------------
# sums and tensors
# ---------------------------------------------------------------------------

def test_direct_sum_homology_adds(rng):
    a, ba = random_complex(rng, 0, 2, 4, 3)
    b, bb = random_complex(rng, 1, 3, 4, 3)
    tot, injs, projs = direct_sum([a, b])
    want = dict(ba)
    for n, k in bb.items():
        want[n] = want.get(n, 0) + k
    assert homology_dims(tot) == want
    assert compose(projs[0], injs[0]) == identity_map(a)
    assert compose(projs[1], injs[1]) == identity_map(b)
    assert not compose(projs[0], injs[1]).comps


def test_direct_sum_maps_block_diagonal():
    s, t = sphere(2, 0), sphere(2, 0, 2)
    tot_s = direct_sum([s, s])[0]
    tot_t = direct_sum([t, t])[0]
    f = make_map(s, t, {0: np.array([[1], [0]])})
    g = make_map(s, t, {0: np.array([[0], [1]])})
    h = direct_sum_maps([f, g], tot_s, tot_t)
    assert h.component(0).tolist() == [
        [1, 0], [0, 0], [0, 0], [0, 1]]


def test_tensor_kunneth(rng):
    # over a field H(a (x) b) = H(a) (x) H(b), degreewise convolution
    for p in (2, 3):
        a, ba = random_complex(rng, 0, 2, 4, p)
        b, bb = random_complex(rng, 0, 2, 4, p)
        got = homology_dims(tensor(a, b))
        want = {}
        for n, i in ba.items():
            for m, j in bb.items():
                want[n + m] = want.get(n + m, 0) + i * j
        assert got == want


def test_tensor_maps_respects_composition(rng):
    p = 3
    a, _ = random_complex(rng, 0, 2, 3, p)
    b, _ = random_complex(rng, 0, 2, 3, p)
    f = random_chain_map(rng, a, b)
    s = sphere(p, 1, 2)
    fs = tensor_maps(f, identity_map(s))
    assert fs.source == tensor(a, s)
    assert fs.target == tensor(b, s)
    # quasi-iso is preserved by tensoring with identity over a field
    if is_quasi_iso(f):
        assert is_quasi_iso(fs)


def _raw_map(f):
    degs = set(f.source.dims) | set(f.target.dims)
    return dict(f.source.dims), dict(f.target.dims), {n: f.component(n).tolist() for n in degs}


def test_tensor_maps_matches_the_kronecker_oracle_across_layouts(rng):
    # the targets carry (i, j) pairs that the sources lack, below and
    # between theirs, so each block f_i (x) g_j sits where the target's
    # layout puts it, not the source's
    for p in (2, 3, 5):
        for _ in range(4):
            a = random_complex(rng, 1, 2, 4, p)[0]
            b = random_complex(rng, 0, 1, 4, p)[0]
            a2, ia, _ = direct_sum([random_complex(rng, 0, 2, 4, p)[0], a])
            b2, ib, _ = direct_sum([random_complex(rng, -1, 1, 4, p)[0], b])
            f = add_maps(ia[1], random_chain_map(rng, a, a2))
            g = add_maps(ib[1], random_chain_map(rng, b, b2))
            fg = tensor_maps(f, g)
            want = oracles.tensor_map(_raw_map(f), _raw_map(g), p)
            assert set(fg.comps) <= set(want)
            assert {n: fg.component(n).tolist() for n in want} == want


# ---------------------------------------------------------------------------
# finite (co)limits
# ---------------------------------------------------------------------------

def test_colimit_over_discrete_is_direct_sum(rng):
    shape = build_shape("discrete", n=3).cat
    at = {a: random_complex(rng, 0, 2, 3, 5)[0] for a in shape.objects}
    col = finite_colimit(shape, at, {})
    want = {}
    for cx in at.values():
        for n, k in homology_dims(cx).items():
            want[n] = want.get(n, 0) + k
    assert homology_dims(col.complex) == want


def test_limit_over_discrete_is_product(rng):
    # limits are right Kan extensions: along the base of the opposite
    # terminal extension, c_inf sees each x_i through one arrow, so its
    # value is the product, projected onto the x_i by the structure maps
    amb = _opposite(build_shape("terminal_extension", n=2).cat)
    incl = inclusion_functor(full_subcategory(amb, ["x0", "x1"]), amb)
    at = {a: random_complex(rng, 0, 2, 3, 2)[0] for a in incl.source.objects}
    y = make_diagram(incl.source, at, {})
    rk = right_kan(incl, y)
    prod = rk.diagram.at["c_inf"]
    assert prod.dims == direct_sum(list(at.values()))[0].dims
    for n in prod.dims:
        legs = np.vstack([rk.diagram.on["t_%s" % a].component(n) for a in at])
        assert _modp.is_invertible(legs, 2)


def test_colimit_universal_property(rng):
    pair = build_shape("multi_arrow", n=2)
    shape = pair.cat
    d_cx, _ = random_complex(rng, 0, 2, 3, 3)
    c_cx, _ = random_complex(rng, 0, 2, 3, 3)
    on = {m: random_chain_map(rng, d_cx, c_cx)
          for m in shape.non_identity_morphisms()}
    col = finite_colimit(shape, {"d": d_cx, "c": c_cx}, on)
    # any cocone factors as q o injections for some q; check that induced
    # recovers q (uniqueness of the factorization)
    tgt, _ = random_complex(rng, 0, 2, 3, 3)
    q = random_chain_map(rng, col.complex, tgt)
    legs = {a: compose(q, col.injections[a]) for a in shape.objects}
    assert col.induced(legs, tgt) == q
    assert col.induced(col.injections, col.complex) == identity_map(col.complex)


def test_colimit_empty_shape_rejected():
    from codescent import make_category
    empty = make_category([], {}, {}, {})
    with pytest.raises(ShapeMismatch):
        finite_colimit(empty, {}, {})


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def test_lifting_against_acyclic_epi(rng):
    # disks are projective-injective over a field: any square against a
    # surjective quasi-iso admits a filler when the top is a cofibration
    p = 2
    a = zero_complex(p)
    b = disk(p, 1)
    x = disk(p, 1, 2)
    y = disk(p, 1)
    i = zero_map(a, b)
    p_map = make_map(x, y, {1: np.array([[1, 0]]), 0: np.array([[1, 0]])})
    bottom = identity_map(y)
    top = zero_map(a, x)
    h = solve_lifting(i, p_map, top, bottom)
    assert h is not None
    assert compose(p_map, h) == bottom


def test_lifting_obstruction_detected():
    p = 2
    s = sphere(p, 0)
    i = zero_map(zero_complex(p), s)
    p_map = zero_map(zero_complex(p), s)
    bottom = identity_map(s)
    top = zero_map(zero_complex(p), zero_complex(p))
    assert solve_lifting(i, p_map, top, bottom) is None


def test_lifting_closes_the_upper_triangle():
    # i : S0 -> D1 is a cofibration, p : S0 (+) D1 -> S0 the projection is
    # a surjective quasi-iso; top hits the degree-0 cell of the D1 summand
    p = 3
    a, b = sphere(p, 0), disk(p, 1)
    x = make_complex(p, {0: 2, 1: 1}, {1: np.array([[0], [1]])})
    y = sphere(p, 0)
    i = make_map(a, b, {0: np.array([[1]])})
    p_map = make_map(x, y, {0: np.array([[1, 0]])})
    top = make_map(a, x, {0: np.array([[0], [2]])})
    bottom = zero_map(b, y)
    h = solve_lifting(i, p_map, top, bottom)
    assert h is not None
    assert compose(h, i) == top
    assert compose(p_map, h) == bottom


def test_lifting_obstructed_by_the_upper_triangle_only():
    # p : S0 -> 0 poses no lower constraint (h = 0 closes it), but every
    # chain map D1 -> S0 vanishes, so no h has h o i = id
    p = 2
    a, b, z = sphere(p, 0), disk(p, 1), zero_complex(p)
    i = make_map(a, b, {0: np.array([[1]])})
    assert solve_lifting(i, zero_map(a, z), identity_map(a), zero_map(b, z)) is None


def test_lifting_rejects_non_commuting_square():
    p = 2
    s = sphere(p, 0)
    with pytest.raises(NonCommutingSquare):
        solve_lifting(identity_map(s), zero_map(s, s),
                      zero_map(s, s), identity_map(s))


def test_random_chain_map_is_a_chain_map(rng):
    for _ in range(10):
        a, _ = random_complex(rng, 0, 3, 5, 2)
        b, _ = random_complex(rng, 0, 3, 5, 2)
        f = random_chain_map(rng, a, b)
        # make_map revalidates the commuting condition
        assert make_map(a, b, f.comps) == f
