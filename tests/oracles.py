"""Independent oracles used to cross-check the package.

Everything in this module is deliberately written from scratch in plain
Python (lists of lists over F_p, no numpy, no imports from the package) so
that agreement between the package and these routines is evidence, not
circularity.  The package computes verdicts through truncated resolutions
and finite (co)limits; the oracles below compute the same answers through
closed-form criteria and direct homology bookkeeping.

Conventions (shared with the package, restated here so the file stands
alone):

* A chain complex is homological and bounded: ``dims`` maps degree -> rank
  of the free F_p module there, ``diffs`` maps degree n -> the matrix of
  d_n : C_n -> C_{n-1}.  Matrices are lists of rows; a matrix with shape
  (m, n) sends column vectors of length n to length m.
* A chain map ``comps`` maps degree n -> matrix of shape
  (dim_target(n), dim_source(n)).  Missing degrees mean zero.
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# F_p linear algebra, list-of-lists flavour
# ---------------------------------------------------------------------------

def p_inv(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 mod %d" % p)
    return pow(a, -1, p)


def mat_shape(rows):
    if not rows:
        return (0, 0)
    return (len(rows), len(rows[0]))


def mat_mul(a, b, p):
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        # Tolerate empty factors: the product is a zero-size matrix.
        if ca == 0 or rb == 0:
            return [[0] * cb for _ in range(ra)]
        raise ValueError("shape mismatch %s x %s" % ((ra, ca), (rb, cb)))
    out = []
    for i in range(ra):
        row = []
        for j in range(cb):
            s = 0
            for k in range(ca):
                s += a[i][k] * b[k][j]
            row.append(s % p)
        out.append(row)
    return out


def mat_eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_zero(m, n):
    return [[0] * n for _ in range(m)]


def row_reduce(rows, p):
    """Return (reduced rows, pivot column indices) of a copy of ``rows``."""
    mat = [[x % p for x in row] for row in rows]
    nrows, ncols = mat_shape(mat)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if mat[i][c] % p != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = p_inv(mat[r][c], p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] % p != 0:
                factor = mat[i][c]
                mat[i] = [(mat[i][j] - factor * mat[r][j]) % p for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def rank_of(rows, p) -> int:
    if not rows or not rows[0]:
        return 0
    return len(row_reduce(rows, p)[1])


def kernel_basis(rows, p, ncols=None):
    """Basis (list of column vectors, as lists) of the null space.

    ``ncols`` disambiguates matrices with zero rows, which would otherwise
    lose their width (a 0 x n matrix has an n-dimensional kernel).
    """
    nrows, width = mat_shape(rows)
    if ncols is None:
        ncols = width
    if ncols == 0:
        return []
    if nrows == 0:
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    red, pivots = row_reduce(rows, p)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-red[r][fc]) % p
        basis.append(vec)
    return basis


def solve_lin(rows, rhs, p, ncols=None):
    """One solution x of rows * x = rhs (rhs a vector), or None."""
    nrows, width = mat_shape(rows)
    if ncols is None:
        ncols = width
    if nrows == 0:
        return [0] * ncols
    aug = [list(rows[i]) + [rhs[i] % p] for i in range(nrows)]
    red, pivots = row_reduce(aug, p)
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None  # pivot in the constant column: inconsistent
        x[pc] = red[r][ncols] % p
    return x


def quotient_presentation(rows, p):
    """(proj, section) presenting F_p^N / col(w), for w given by its N rows.

    The section is the unit vectors at the coordinates that are not pivots
    of the reduced transpose of w.  Its columns complete a basis B of
    col(w) to a basis T = [B | section] of F_p^N, and proj is the bottom
    rows of T^-1, found by reducing [T | I].  So proj kills col(w) and is
    the identity on the section.
    """
    n = len(rows)
    k = len(rows[0]) if rows else 0
    red, pivots = row_reduce([[rows[i][j] for i in range(n)] for j in range(k)], p)
    basis = red[: len(pivots)]
    free = [i for i in range(n) if i not in pivots]
    section = [[1 if i == f else 0 for f in free] for i in range(n)]
    t = [[b[i] for b in basis] + section[i] for i in range(n)]
    aug, inv_pivots = row_reduce([t[i] + mat_eye(n)[i] for i in range(n)], p)
    if inv_pivots != list(range(n)):
        raise ArithmeticError("the section does not complete a basis of col(w)")
    return [row[n:] for row in aug[len(pivots):]], section


# ---------------------------------------------------------------------------
# Homology bookkeeping
# ---------------------------------------------------------------------------

def _dim_at(dims, n):
    return dims.get(n, 0)


def _diff_at(dims, diffs, n):
    """Matrix of d_n with the correct shape even when stored sparsely."""
    m = diffs.get(n)
    if m is not None:
        return m
    return mat_zero(_dim_at(dims, n - 1), _dim_at(dims, n))


def homology_dims_oracle(dims, diffs, p):
    """Betti numbers: dim ker d_n - rank d_{n+1}, per degree."""
    degrees = set(dims)
    out = {}
    for n in sorted(degrees):
        dn = _diff_at(dims, diffs, n)
        dn1 = _diff_at(dims, diffs, n + 1)
        betti = _dim_at(dims, n) - rank_of(dn, p) - rank_of(dn1, p)
        if betti:
            out[n] = betti
    return out


def _homology_basis(dims, diffs, n, p):
    """(cycles-mod-boundaries basis H, boundary matrix B) at degree n.

    H is a list of column vectors in C_n that project to a basis of
    H_n; B is the matrix whose columns span the boundaries.  Representing
    a cycle z in the H basis: solve [B | H] * y = z and read off the H part
    (boundaries contribute nothing to the class).
    """
    dn = _diff_at(dims, diffs, n)
    dn1 = _diff_at(dims, diffs, n + 1)
    dim_n = _dim_at(dims, n)
    cycles = kernel_basis(dn, p, ncols=dim_n)
    bcols = []
    for j in range(_dim_at(dims, n + 1)):
        bcols.append([dn1[i][j] % p for i in range(dim_n)])
    # Greedily extend the boundary columns by cycle vectors that enlarge
    # the span; the added cycles represent a homology basis.
    span_rows = [col[:] for col in bcols]
    current_rank = rank_of(span_rows, p) if span_rows else 0
    hbasis = []
    for z in cycles:
        trial = span_rows + [z[:]]
        r = rank_of(trial, p)
        if r > current_rank:
            span_rows = trial
            current_rank = r
            hbasis.append(z)
    return hbasis, bcols


def _coords_in_homology(hbasis, bcols, z, p):
    """Coordinates of cycle z w.r.t. the homology basis (mod boundaries)."""
    if not hbasis:
        return []
    ncols = len(bcols) + len(hbasis)
    dim = len(z)
    rows = [[(bcols[j][i] if j < len(bcols) else hbasis[j - len(bcols)][i])
             for j in range(ncols)] for i in range(dim)]
    sol = solve_lin(rows, z, p)
    if sol is None:
        raise ArithmeticError("cycle not in span of boundaries + basis")
    return [sol[len(bcols) + t] % p for t in range(len(hbasis))]


def induced_homology_map(src, tgt, comps, n, p):
    """Matrix of H_n(f) for f given by ``comps`` between raw complexes.

    ``src``/``tgt`` are (dims, diffs) pairs.
    """
    s_dims, s_diffs = src
    t_dims, t_diffs = tgt
    s_h, _ = _homology_basis(s_dims, s_diffs, n, p)
    t_h, t_b = _homology_basis(t_dims, t_diffs, n, p)
    f_n = comps.get(n)
    cols = []
    for z in s_h:
        if f_n is None:
            fz = [0] * _dim_at(t_dims, n)
        else:
            fz = [sum(f_n[i][k] * z[k] for k in range(len(z))) % p
                  for i in range(len(f_n))]
        cols.append(_coords_in_homology(t_h, t_b, fz, p))
    # cols are coordinate vectors of length len(t_h); assemble column-wise
    return [[cols[j][i] for j in range(len(s_h))] for i in range(len(t_h))]


def _homology_dim(dims, diffs, n, p):
    dn = _diff_at(dims, diffs, n)
    dn1 = _diff_at(dims, diffs, n + 1)
    return _dim_at(dims, n) - rank_of(dn, p) - rank_of(dn1, p)


def first_defect(src, tgt, comps, p, degrees=None):
    """Least degree where H_n(f) is not an isomorphism, with its defect.

    Returns (degree, ker_dim + coker_dim) or None when f is a
    quasi-isomorphism (over the scanned degrees).  Kernel and cokernel
    dimensions are derived from the homology dimensions rather than the
    shape of the induced matrix: a list-of-lists matrix with zero rows
    loses its width, which would silently hide a nonzero kernel whenever
    the target homology vanishes.
    """
    s_dims, s_diffs = src
    t_dims, t_diffs = tgt
    if degrees is None:
        all_degs = set(s_dims) | set(t_dims)
        if not all_degs:
            return None
        degrees = range(min(all_degs), max(all_degs) + 1)
    for n in degrees:
        m = induced_homology_map(src, tgt, comps, n, p)
        r = rank_of(m, p)
        ker = _homology_dim(s_dims, s_diffs, n, p) - r
        coker = _homology_dim(t_dims, t_diffs, n, p) - r
        if ker or coker:
            return (n, ker + coker)
    return None


def quasi_iso_oracle(src, tgt, comps, p, degrees=None) -> bool:
    return first_defect(src, tgt, comps, p, degrees) is None


# ---------------------------------------------------------------------------
# Cone-based homotopy pushout (independent route for the square criterion)
# ---------------------------------------------------------------------------

def pushout_comparison_defect(e, d1, d2, c, f, g, u, v, p):
    """First defect of the canonical map (homotopy pushout of d1 <- e -> d2) -> c.

    Arguments are raw complexes (dims, diffs) and raw chain maps (degree ->
    matrix): f : e -> d1, g : e -> d2, u : d1 -> c, v : d2 -> c with
    u f = v g strictly.  The homotopy pushout is built as the mapping cone
    of (f, -g) : E -> D1 (+) D2 and the comparison map is (u, v, 0).
    Returns None if the comparison is a quasi-isomorphism, else
    (degree, defect).
    """
    e_dims, e_diffs = e
    d1_dims, d1_diffs = d1
    d2_dims, d2_diffs = d2

    degs = set(e_dims) | set(d1_dims) | set(d2_dims) | set(c[0])
    if not degs:
        return None
    lo = min(degs)
    hi = max(degs) + 1

    po_dims = {}
    for n in range(lo, hi + 1):
        dim = _dim_at(d1_dims, n) + _dim_at(d2_dims, n) + _dim_at(e_dims, n - 1)
        if dim:
            po_dims[n] = dim

    po_diffs = {}
    for n in range(lo, hi + 1):
        rows = _dim_at(d1_dims, n - 1) + _dim_at(d2_dims, n - 1) + _dim_at(e_dims, n - 2)
        cols = _dim_at(d1_dims, n) + _dim_at(d2_dims, n) + _dim_at(e_dims, n - 1)
        if rows == 0 or cols == 0:
            continue
        mtx = mat_zero(rows, cols)
        dd1 = _diff_at(d1_dims, d1_diffs, n)
        dd2 = _diff_at(d2_dims, d2_diffs, n)
        de = _diff_at(e_dims, e_diffs, n - 1)
        fn = f.get(n - 1)
        gn = g.get(n - 1)
        r1 = _dim_at(d1_dims, n - 1)
        r2 = _dim_at(d2_dims, n - 1)
        c1 = _dim_at(d1_dims, n)
        c2 = _dim_at(d2_dims, n)
        for i in range(r1):
            for j in range(c1):
                mtx[i][j] = dd1[i][j] % p
        for i in range(r2):
            for j in range(c2):
                mtx[r1 + i][c1 + j] = dd2[i][j] % p
        # cone part: d(a) = (f a, -g a, -d_E a) for a in E_{n-1}
        for j in range(_dim_at(e_dims, n - 1)):
            if fn is not None:
                for i in range(r1):
                    mtx[i][c1 + c2 + j] = fn[i][j] % p
            if gn is not None:
                for i in range(r2):
                    mtx[r1 + i][c1 + c2 + j] = (-gn[i][j]) % p
            for i in range(_dim_at(e_dims, n - 2)):
                mtx[r1 + r2 + i][c1 + c2 + j] = (-de[i][j]) % p
        po_diffs[n] = mtx

    comparison = {}
    c_dims = c[0]
    for n in range(lo, hi + 1):
        cols = _dim_at(po_dims, n)
        rows = _dim_at(c_dims, n)
        if rows == 0 or cols == 0:
            continue
        mtx = mat_zero(rows, cols)
        un = u.get(n)
        vn = v.get(n)
        c1 = _dim_at(d1_dims, n)
        c2 = _dim_at(d2_dims, n)
        for i in range(rows):
            for j in range(c1):
                if un is not None:
                    mtx[i][j] = un[i][j] % p
            for j in range(c2):
                if vn is not None:
                    mtx[i][c1 + j] = vn[i][j] % p
            # the E_{n-1} block of the comparison is zero
        comparison[n] = mtx

    return first_defect((po_dims, po_diffs), c, comparison, p)


# ---------------------------------------------------------------------------
# Cyclic group homology via the explicit 2-periodic resolution
# ---------------------------------------------------------------------------

def cyclic_group_homology(k: int, p: int, through: int):
    """dims of H_i(Z/k; F_p) for 0 <= i <= through, trivial coefficients.

    Built mechanically: the group algebra F_p[Z/k] is realized as F_p^k via
    the regular representation; the 2-periodic free resolution of F_p
    alternates multiplication by (t - 1) and by the norm N = 1 + t + ... +
    t^{k-1}.  Tensoring over the group algebra with trivial F_p collapses a
    multiplication map to its augmentation, which we read off from the
    actual k x k multiplication matrix by summing a column.
    """
    if k < 1 or through < 0:
        raise ValueError("need k >= 1 and through >= 0")

    def mult_matrix(coeffs):
        # right multiplication by sum coeffs[j] * t^j on F_p[Z/k]
        m = mat_zero(k, k)
        for i in range(k):        # basis vector t^i
            for j, cj in enumerate(coeffs):
                m[(i + j) % k][i] = (m[(i + j) % k][i] + cj) % p
        return m

    t_minus_1 = mult_matrix([p - 1, 1] if k > 1 else [0])
    norm = mult_matrix([1] * k)

    def augmentation(m):
        # image of the basis vector e (= t^0) has coefficient sum = aug
        return sum(m[i][0] for i in range(k)) % p

    aug_t = augmentation(t_minus_1)
    aug_n = augmentation(norm)

    dims = {i: 1 for i in range(through + 2)}
    diffs = {}
    for i in range(1, through + 2):
        a = aug_t if i % 2 == 1 else aug_n
        diffs[i] = [[a]]
    h = homology_dims_oracle(dims, diffs, p)
    return [h.get(i, 0) for i in range(through + 1)]


# ---------------------------------------------------------------------------
# Frozen expectations (computed from the oracles above, recorded before the
# main build; tests assert the oracles still reproduce them)
# ---------------------------------------------------------------------------

# dim H_1(Z/2; F_2) -- the obstruction dimension for the Z/2 funnel check.
EXPECT_H1_Z2_F2 = 1

# Two parallel identity arrows d => c on the 0-sphere: the canonical map
# k (+) k -> k is onto with 1-dimensional kernel, so the verdict must be
# ("fails", degree 0, defect 1).
EXPECT_MULTI_ARROW_IDENTITY = ("fails", 0, 1)

# Z/2 funnel over F_2, constant 0-sphere diagram: group homology of Z/2
# enters in degree 1, so the verdict must be ("fails", degree 1, defect 1).
EXPECT_Z2_FUNNEL = ("fails", 1, 1)


def selfcheck():
    """Recompute the frozen expectations from first principles."""
    assert cyclic_group_homology(2, 2, 3) == [1, 1, 1, 1]
    assert cyclic_group_homology(2, 2, 1)[1] == EXPECT_H1_Z2_F2
    assert cyclic_group_homology(3, 3, 2) == [1, 1, 1]
    assert cyclic_group_homology(2, 3, 2) == [1, 0, 0]
    assert cyclic_group_homology(6, 2, 2) == [1, 1, 1]
    assert cyclic_group_homology(1, 2, 2) == [1, 0, 0]

    # multi-arrow with two identity legs: H_0 of k (+) k -> k has defect 1
    sphere = ({0: 1}, {})
    double = ({0: 2}, {})
    comps = {0: [[1, 1]]}
    assert first_defect(double, sphere, comps, 2) == (0, 1)

    # sanity for the pushout oracle: pushout of identities is the span tip
    one = ({0: 1}, {})
    idm = {0: [[1]]}
    assert pushout_comparison_defect(one, one, one, one, idm, idm, idm, idm, 2) is None
    return True


if __name__ == "__main__":
    selfcheck()
    print("oracles selfcheck OK")
