import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from codescent import _modp

import oracles

PRIMES = (2, 3, 5, 7)
# rref and rank reduce matrices of at most SMALL entries on Python ints and
# larger ones in numpy.  Most draws below are small, so the property tests
# check each input on both routes: at the default SMALL, and with SMALL = 0,
# where every nonempty matrix takes the numpy loop.
ROUTES = (_modp.SMALL, 0)


@st.composite
def matrices(draw, max_dim=5):
    p = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    entries = draw(st.lists(st.integers(0, p - 1),
                            min_size=m * n, max_size=m * n))
    return np.array(entries, dtype=np.int64).reshape(m, n), p


def test_normalize_rejects_non_matrix():
    with pytest.raises(ValueError):
        _modp.normalize([1, 2, 3], 5)


@pytest.mark.parametrize("entries", [
    np.array([[1.5, 2.9]]),
    np.array([[True, False]]),
    np.array([["1", "2"]]),
    np.array([[1, 2]], dtype=object),
    [[2 ** 70]],
], ids=["float", "bool", "string", "object", "int-beyond-int64"])
def test_normalize_rejects_non_integer_entries(entries):
    with pytest.raises(TypeError, match="dtype"):
        _modp.normalize(entries, 5)


@pytest.mark.parametrize("entries, want", [
    (np.array([[7, -1]], dtype=np.int8), [[2, 4]]),
    (np.array([[7, 2 ** 64 - 1]], dtype=np.uint64), [[2, 0]]),
    ([[7, -1]], [[2, 4]]),
    (np.zeros((0, 3)), []),
], ids=["int8", "uint64", "list", "empty-float"])
def test_normalize_reduces_integer_entries(entries, want):
    got = _modp.normalize(entries, 5)
    assert got.dtype == np.int64
    assert got.tolist() == want


def test_rref_known_case():
    r, pivots = _modp.rref(np.array([[2, 4], [1, 2]]), 5)
    assert pivots == [0]
    assert r.tolist() == [[1, 2], [0, 0]]


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rref_is_idempotent_with_unit_pivots(mp):
    a, p = mp
    for small in ROUTES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_modp, "SMALL", small)
            r, pivots = _modp.rref(a, p)
            again, pivots2 = _modp.rref(r, p)
        assert np.array_equal(r, again)
        assert pivots == pivots2
        for i, c in enumerate(pivots):
            col = r[:, c]
            assert col[i] == 1 and np.count_nonzero(col) == 1


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_matches_independent_row_reduction(mp):
    a, p = mp
    for small in ROUTES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_modp, "SMALL", small)
            assert _modp.rank(a, p) == oracles.rank_of(a.tolist(), p), small


def test_rank_of_a_zero_matrix_needs_no_elimination(monkeypatch):
    def no_rref(a, p):
        raise AssertionError("rref called on a zero matrix")
    monkeypatch.setattr(_modp, "rref", no_rref)
    assert _modp.rank(_modp.zeros(300, 300), 3) == 0
    assert _modp.rank(_modp.zeros(0, 5), 3) == 0


# Primes for every route of the Schur product in rank: int64 on small
# products, float32 up to p = 4093, float64 above it, and float64 in blocks
# of one term at the largest supported prime.
PANEL_PRIMES = (2, 3, 5, 7, 4099, 94906249)
# Shapes beyond 12 x 12: 70 x 60 at height 5 and 130 x 40 at the full panel
# height make the Schur product large enough for the float routes; 40 x 130
# is one wide panel and 66 x 3 leaves a last panel of two rows.
PANEL_SHAPES = ((70, 60), (130, 40), (40, 130), (66, 3))


@st.composite
def panel_matrices(draw):
    """Matrices that span several panels of rank's loop at heights 1-5:
    dense, sparse, low rank, or with whole rows or columns zero."""
    p = draw(st.sampled_from(PANEL_PRIMES))
    m, n = draw(st.sampled_from(PANEL_SHAPES)
                | st.tuples(st.integers(0, 12), st.integers(0, 12)))
    kind = draw(st.sampled_from(("dense", "sparse", "low-rank", "zero-rows", "zero-cols")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.integers(0, p, size=(m, n))
    if kind == "sparse":
        a *= rng.random((m, n)) < 0.05
    elif kind == "low-rank":
        k = int(rng.integers(1, 4))
        left = rng.integers(0, p, size=(m, k)).astype(object)
        a = left.dot(rng.integers(0, p, size=(k, n)).astype(object)) % p
    elif kind == "zero-rows":
        a[rng.random(m) < 0.5] = 0
    elif kind == "zero-cols":
        a[:, rng.random(n) < 0.5] = 0
    return a.astype(np.int64), p


@given(panel_matrices(), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_panel_rank_matches_oracle_at_every_height(mp, height):
    a, p = mp
    want = oracles.rank_of(a.tolist(), p)
    for small in ROUTES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_modp, "SMALL", small)
            assert _modp.rank(a, p) == want, small
            assert _modp._panel_rank(a, p, height) == want, small


@given(panel_matrices())
@settings(max_examples=100, deadline=None)
def test_rref_matches_oracle(mp):
    a, p = mp
    want, want_pivots = oracles.row_reduce(a.tolist(), p)
    got = []
    for small in ROUTES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_modp, "SMALL", small)
            r, pivots = _modp.rref(a, p)
        assert (r.tolist(), pivots) == (want, want_pivots), small
        got.append((r.dtype, r.shape, r.tobytes(), pivots))
    assert got[0] == got[1]


# Shapes on both sides of SMALL: SMALL and SMALL + 1 entries as one row,
# one column and (near) square, and empty ones.
THRESHOLD_SHAPES = ((1, _modp.SMALL), (1, _modp.SMALL + 1), (_modp.SMALL, 1),
                    (_modp.SMALL + 1, 1), (16, _modp.SMALL // 16),
                    (16, _modp.SMALL // 16 + 1), (0, 7), (7, 0), (0, 0))


@pytest.mark.parametrize("p", PANEL_PRIMES)
def test_both_routes_match_the_oracle_across_the_threshold(p, monkeypatch):
    assert _modp.SMALL % 16 == 0
    rng = np.random.default_rng(p % 1009)
    for shape in THRESHOLD_SHAPES:
        for density in (1.0, 0.3, 0.02):
            a = rng.integers(0, p, size=shape) * (rng.random(shape) < density)
            want, want_pivots = oracles.row_reduce(a.tolist(), p)
            got = []
            for small in ROUTES:
                monkeypatch.setattr(_modp, "SMALL", small)
                r, pivots = _modp.rref(a, p)
                assert r.dtype == np.int64 and r.shape == shape
                assert (r.tolist(), pivots) == (want, want_pivots), (shape, small)
                assert _modp.rank(a, p) == len(want_pivots) == oracles.rank_of(a.tolist(), p)
                got.append((r.tobytes(), pivots))
            assert got[0] == got[1]


@pytest.mark.parametrize("p", PANEL_PRIMES)
def test_rank_across_four_panels(p):
    rng = np.random.default_rng(p)
    a = rng.integers(0, p, size=(200, 150)) * (rng.random((200, 150)) < 0.3)
    a[64:128] = rng.integers(0, 3, size=(64, 64)) @ a[:64] % p  # in the span of rows 0-63
    want = oracles.rank_of(a.tolist(), p)
    assert 64 < want < 150
    assert _modp.rank(a.astype(np.int64), p) == want


@pytest.mark.parametrize("p", PANEL_PRIMES)
def test_dense_wide_panels_match_the_oracle(p):
    # A nonzero first column makes the first pivot hit every other row, and
    # its 63 x 119 updated entries are past REDUCE_MIN, so the floor-divide
    # route reduces them.  At p >= 4099 most later pivots hit every row too.
    assert 63 * 119 >= _modp.REDUCE_MIN
    rng = np.random.default_rng(p % 1009)
    for shape in ((64, 120), (96, 120)):
        a = rng.integers(0, p, size=shape)
        a[:, 0] = rng.integers(1, p, size=shape[0])
        want, want_pivots = oracles.row_reduce(a.tolist(), p)
        r, pivots = _modp.rref(a, p)
        assert pivots == want_pivots
        assert r.tolist() == want
        assert _modp.rank(a, p) == oracles.rank_of(a.tolist(), p)


@given(st.sampled_from(PANEL_PRIMES + (65537,)),
       st.sampled_from((0, 1, 2, 64)) | st.integers(_modp.REDUCE_MIN - 2, _modp.REDUCE_MIN + 1)
       | st.sampled_from((5 * _modp.REDUCE_MIN + 3, 2 * _modp.REDUCE_BLOCK + 5)),
       st.sampled_from((1, 2 ** 31, 2 ** 62)),
       st.lists(st.integers(-(2 ** 62), 2 ** 62), max_size=8),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_reduce_is_np_mod(p, size, scale, edges, seed):
    rng = np.random.default_rng(seed)
    bound = min(scale * p, 2 ** 62)
    x = rng.integers(-bound, bound, size=size, dtype=np.int64)
    x[:len(edges)] = edges[:size]
    want = np.mod(x, p)
    got = _modp.reduce(x, p)
    assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
    y = x.copy()
    assert _modp.reduce(y, p, out=y) is y
    assert y.tobytes() == want.tobytes()
    # A strided 2-d view reduced into itself; the entries around it stay.
    m = np.zeros((2, size + 3), dtype=np.int64)
    m[0, 3:] = x
    view = m[:1, 3:]
    _modp.reduce(view, p, out=view)
    assert m[0, 3:].tobytes() == want.tobytes() and not m[1].any() and not m[0, :3].any()


@pytest.mark.parametrize("shape", [(100, 700), (3, 20000), (1, 70000)])
def test_reduce_runs_over_blocks_of_rows(shape):
    # (100, 700) splits into blocks of 46 rows, the last one short; a row of
    # (3, 20000) is a block of its own.  The transpose is a strided input.
    p = 4099
    x = np.random.default_rng(shape[1]).integers(-(2 ** 62), 2 ** 62, size=shape)
    for a in (x, x.T):
        want = np.mod(a, p)
        assert _modp.reduce(a, p).tolist() == want.tolist()
        y = a.copy()
        assert _modp.reduce(y, p, out=y) is y and y.tolist() == want.tolist()


def test_reduce_in_place_allocates_one_block():
    x = np.random.default_rng(5).integers(-(2 ** 62), 2 ** 62, size=(400, 700))
    tracemalloc.start()
    try:
        _modp.reduce(x, 3, out=x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * _modp.REDUCE_BLOCK < x.nbytes / 4


@pytest.mark.parametrize("m, n, density", [(369, 306, 0.3), (390, 780, 0.003)],
                         ids=["dense", "sparse"])
def test_rank_allocates_at_most_two_and_a_half_inputs(m, n, density):
    rng = np.random.default_rng(m * n)
    a = (rng.integers(1, 3, size=(m, n)) * (rng.random((m, n)) < density)).astype(np.int64)
    tracemalloc.start()
    try:
        _modp.rank(a, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * a.nbytes


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_nullspace_spans_kernel(mp):
    a, p = mp
    ns = _modp.nullspace(a, p)
    assert ns.shape == (a.shape[1], a.shape[1] - _modp.rank(a, p))
    if ns.size:
        assert not _modp.matmul(a, ns, p).any()
    assert _modp.rank(ns, p) == ns.shape[1]


def _nullspace_by_loop(a, p):
    """The kernel basis as it was filled before: one entry at a time."""
    nrows, ncols = a.shape
    if ncols == 0:
        return _modp.zeros(0, 0)
    if nrows == 0:
        return _modp.eye(ncols)
    red, pivots = _modp.rref(a, p)
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = _modp.zeros(ncols, len(free))
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for r, pc in enumerate(pivots):
            basis[pc, j] = (-int(red[r, fc])) % p
    return basis


@pytest.mark.parametrize("p", PANEL_PRIMES)
def test_nullspace_is_the_entrywise_fill(p):
    rng = np.random.default_rng(p % 997)
    for i in range(40):
        m, n = (int(v) for v in rng.integers(0, 30, size=2))
        a = rng.integers(0, p, size=(m, n))
        if i % 4 == 1:
            a *= rng.random((m, n)) < 0.1
        elif i % 4 == 2 and m and n:
            a = _modp.matmul(a[:, :2], rng.integers(0, p, size=(min(n, 2), n)), p)
        elif i % 4 == 3:
            a[:, rng.random(n) < 0.5] = 0
        a = np.asarray(a, dtype=np.int64)
        got, want = _modp.nullspace(a, p), _nullspace_by_loop(a, p)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@given(matrices(), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_solve_recovers_consistent_systems(mp, salt):
    a, p = mp
    rng = np.random.default_rng(salt)
    x0 = np.asarray(rng.integers(0, p, size=(a.shape[1], 2)), dtype=np.int64)
    b = _modp.matmul(a, x0, p)
    x = _modp.solve(a, b, p)
    assert x is not None
    assert np.array_equal(_modp.matmul(a, x, p), b)


def test_solve_detects_inconsistency():
    a = np.array([[1, 2], [2, 4]], dtype=np.int64)  # rank 1 mod 5
    b = np.array([[0], [1]], dtype=np.int64)
    assert _modp.solve(a, b, 5) is None


@given(st.sampled_from(PRIMES), st.integers(0, 5), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_inverse_of_random_invertible(p, n, salt):
    rng = np.random.default_rng(salt)
    a = _modp.random_invertible(rng, n, p)
    inv = _modp.inverse(a, p)
    assert inv is not None
    assert np.array_equal(_modp.matmul(a, inv, p), _modp.eye(n))
    assert _modp.is_invertible(a, p)


def test_inverse_of_singular_is_none():
    a = np.array([[1, 1], [1, 1]], dtype=np.int64)
    assert _modp.inverse(a, 2) is None
    assert not _modp.is_invertible(a, 2)


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_quotient_presentation_properties(mp):
    w, p = mp
    proj, section = _modp.quotient_presentation(w, p)
    q = w.shape[0] - _modp.rank(w, p)
    assert proj.shape == (q, w.shape[0])
    assert section.shape == (w.shape[0], q)
    assert np.array_equal(_modp.matmul(proj, section, p), _modp.eye(q))
    if w.size:
        assert not _modp.matmul(proj, w, p).any()


@pytest.mark.parametrize("p", (2, 3, 5, 7, 4099, 94906249))
def test_quotient_presentation_matches_the_oracle(p):
    rng = np.random.default_rng(p % 1000)
    full_row_rank = np.hstack([_modp.eye(3), rng.integers(0, p, (3, 2))])
    low_rank = _modp.matmul(rng.integers(0, p, (6, 2)), rng.integers(0, p, (2, 5)), p)
    cases = [_modp.zeros(4, 0), _modp.zeros(0, 3), _modp.zeros(3, 2), full_row_rank,
             full_row_rank[:, [0, 3, 0, 3, 4]],  # duplicate columns
             low_rank, low_rank[:, [1, 1, 2]], rng.integers(0, p, (5, 3))]
    for w in cases:
        proj, section = _modp.quotient_presentation(np.asarray(w, dtype=np.int64), p)
        want_proj, want_section = oracles.quotient_presentation(w.tolist(), p)
        assert proj.dtype == section.dtype == np.int64
        assert proj.shape == (section.shape[1], w.shape[0])
        assert proj.tolist() == want_proj and section.tolist() == want_section, w


def test_column_space_basis_has_full_rank():
    a = np.array([[1, 2, 3], [2, 4, 6], [0, 0, 1]], dtype=np.int64)
    b = _modp.column_space_basis(a, 5)
    assert b.shape[1] == _modp.rank(a, 5) == _modp.rank(b, 5)


def test_kron_acts_blockwise():
    a = np.array([[1, 2]], dtype=np.int64)
    b = np.array([[1], [1]], dtype=np.int64)
    assert _modp.kron(a, b, 3).tolist() == [[1, 2], [1, 2]]


# Primes on both sides of the float32 line (4093 is the largest p with
# (p-1)^2 < 2^24) and the largest prime the package supports.
BOUNDARY_PRIMES = (2, 3, 5, 7, 4093, 4099, 65537, 94906249)
# (m, n, k) on both sides of the route boundaries: m*n*k = 2^14 with
# n <= 1024 is the largest int64 product, n = 1025 the narrowest float one,
# and n = 1, 2 with m*k > 2^14 straddle float32/float64 at p = 4093.
EDGE_SHAPES = ((16, 64, 16), (16, 64, 17), (4, 1024, 4), (4, 1024, 5),
               (1, 1025, 1), (129, 1, 129), (129, 2, 129), (3, 0, 7),
               (200, 0, 200))


@st.composite
def products(draw):
    p = draw(st.sampled_from(BOUNDARY_PRIMES))
    m, n, k = draw(st.sampled_from(EDGE_SHAPES)
                   | st.tuples(*[st.integers(0, 6)] * 3))
    if draw(st.booleans()):
        a, b = np.full((m, n), p - 1), np.full((n, k), p - 1)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        a, b = rng.integers(0, p, size=(m, n)), rng.integers(0, p, size=(n, k))
    return a.astype(np.int64), b.astype(np.int64), p


def _python_int_product(a, b, p):
    return (a.astype(object).dot(b.astype(object)) % p).tolist()


@given(products())
@example((np.full((1, 1025), 94906248), np.full((1025, 1), 94906248), 94906249))
@settings(max_examples=200, deadline=None)
def test_matmul_equals_python_int_product(abp):
    a, b, p = abp
    got = _modp.matmul(a, b, p)
    assert got.dtype == np.int64
    assert got.tolist() == _python_int_product(a, b, p)


@given(products(), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_float_routes_are_exact_with_any_block(abp, step):
    a, b, p = abp
    want = _python_int_product(a, b, p)
    q = (p - 1) ** 2
    f64 = _modp._float_product(a, b, p, np.float64, min(step, _modp.F64_EXACT // q))
    assert f64.dtype == np.int64 and f64.tolist() == want
    if q <= _modp.F32_EXACT:
        f32 = _modp._float_product(a, b, p, np.float32, min(step, _modp.F32_EXACT // q))
        assert f32.dtype == np.int64 and f32.tolist() == want


@pytest.mark.parametrize("p", [2 ** 31 - 1, _modp.MAX_P + 1])
def test_matmul_rejects_primes_above_the_bound(p):
    # int64 accumulation used to wrap here and return 0 instead of 4
    a = np.full((1, 4), p - 1, dtype=np.int64)
    with pytest.raises(ValueError, match="bound"):
        _modp.matmul(a, a.T.copy(), p)
