import pytest
from hypothesis import given, settings, strategies as st

from hallalg.errors import EnumerationCapError, InputError
from hallalg.fq import (
    FqMatrix,
    RowSpace,
    enumerate_subspaces,
    gaussian_binomial,
    intertwining_rows,
    kernel_rows,
    solve,
)


def mat(p, rows):
    return FqMatrix.from_rows(p, rows)


def rref_rank_kernel(m):
    red, pivots = m.rref()
    return red, len(pivots), m.kernel_basis()


def test_rref_identity_f2():
    m = FqMatrix.identity(2, 2)
    red, rank, ker = rref_rank_kernel(m)
    assert rank == 2
    assert ker.rows == 0
    assert red == m


def test_rref_zero_f3():
    m = FqMatrix.zeros(3, 2, 2)
    red, rank, ker = rref_rank_kernel(m)
    assert rank == 0
    assert ker.rows == 2  # kernel is the full space


def test_rref_rank_one_f2():
    m = mat(2, [[1, 1], [1, 1]])
    red, rank, ker = rref_rank_kernel(m)
    assert rank == 1
    assert ker.rows == 1
    assert ker.row(0) == (1, 1)


def test_solve_identity():
    m = FqMatrix.identity(5, 3)
    x, ker = solve(m, (2, 3, 4))
    assert x == (2, 3, 4)
    assert ker.rows == 0


def test_solve_inconsistent():
    m = FqMatrix.zeros(2, 2, 2)
    assert solve(m, (0, 1)) is None


def test_solve_substitution_f2():
    m = mat(2, [[1, 1], [0, 1]])
    x, _ = solve(m, (0, 1))
    assert x == (1, 1)
    assert m.mul_vec(x) == (0, 1)


def test_enumerate_subspaces_extremes():
    assert len(enumerate_subspaces(3, 4, 0)) == 1
    assert len(enumerate_subspaces(3, 4, 4)) == 1


def test_enumerate_subspaces_2_1_f2():
    spaces = enumerate_subspaces(2, 2, 1)
    assert len(spaces) == 3
    assert all(s.shape == (1, 2) and s.row_space_basis() == s for s in spaces)
    assert [s.data for s in spaces] == [(1, 0), (1, 1), (0, 1)]


def test_enumerate_subspaces_rejects_bad_dims():
    with pytest.raises(InputError):
        enumerate_subspaces(2, 2, 3)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_subspace_counts_match_product_formula(p, n):
    for k in range(n + 1):
        assert len(enumerate_subspaces(p, n, k)) == gaussian_binomial(n, k, p)


matrix_strategy = st.integers(min_value=0, max_value=1).flatmap(
    lambda _: st.tuples(
        st.sampled_from([2, 3]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    ).flatmap(
        lambda dims: st.lists(
            st.integers(min_value=0, max_value=dims[0] - 1),
            min_size=dims[1] * dims[2],
            max_size=dims[1] * dims[2],
        ).map(lambda data: FqMatrix(dims[0], dims[1], dims[2], data))
    )
)


@settings(max_examples=200, deadline=None)
@given(matrix_strategy)
def test_rank_nullity(m):
    red, rank, ker = rref_rank_kernel(m)
    assert rank + ker.rows == m.cols


@settings(max_examples=200, deadline=None)
@given(matrix_strategy)
def test_rref_idempotent(m):
    red, _ = m.rref()
    again, _ = red.rref()
    assert again == red


@settings(max_examples=200, deadline=None)
@given(matrix_strategy)
def test_kernel_vectors_annihilate(m):
    ker = m.kernel_basis()
    for i in range(ker.rows):
        assert all(v == 0 for v in m.mul_vec(ker.row(i)))


@settings(max_examples=100, deadline=None)
@given(matrix_strategy)
def test_solve_consistency(m):
    # a @ x = a @ v must always be solvable, with residual exactly zero
    v = tuple(1 for _ in range(m.cols))
    b = m.mul_vec(v)
    res = solve(m, b)
    assert res is not None
    x, _ = res
    assert m.mul_vec(x) == b


def test_matrix_inverse_roundtrip():
    m = mat(3, [[1, 2], [0, 1]])
    inv = m.inverse()
    assert m @ inv == FqMatrix.identity(3, 2)


def test_rowspace_canonical_coset_reduction():
    rs = RowSpace(2, 3)
    rs.add((1, 1, 0))
    r1 = rs.reduce((1, 1, 1))
    r2 = rs.reduce((0, 0, 1))
    assert r1 == r2  # same coset, same canonical form
    assert rs.contains((1, 1, 0))
    assert not rs.contains((1, 0, 0))


def test_subspace_identity_is_rref_identity():
    # two spanning sets of one plane reduce to the one basis enumerated for it
    a = mat(2, [(1, 1, 0), (0, 1, 1)]).row_space_basis()
    b = mat(2, [(1, 0, 1), (0, 1, 1)]).row_space_basis()
    assert a == b and hash(a) == hash(b)
    assert enumerate_subspaces(2, 3, 2).count(a) == 1


def test_enumerate_subspaces_cap_message():
    with pytest.raises(EnumerationCapError,
                       match=r"^enumerate_subspaces\(F_2\^3, k=2\): 4 candidates "
                             r"exceed cap 3$"):
        enumerate_subspaces(2, 3, 2, cap=3)


# -- block assembly, columns, kernels and intertwining equations ---------------------


def matrices(p, rows, cols):
    return st.lists(st.integers(0, p - 1), min_size=rows * cols,
                    max_size=rows * cols).map(lambda d: FqMatrix(p, rows, cols, d))


def _block_of(offsets, i):
    return next(k for k in range(len(offsets) - 1) if offsets[k] <= i < offsets[k + 1])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_blocks_matches_entrywise_fill(data):
    p = data.draw(st.sampled_from([2, 3]))
    row_sizes = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    col_sizes = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    blocks = {}
    for i, r in enumerate(row_sizes):
        for j, c in enumerate(col_sizes):
            if data.draw(st.booleans()):
                blocks[(i, j)] = data.draw(matrices(p, r, c))
    row_off = [sum(row_sizes[:k]) for k in range(len(row_sizes) + 1)]
    col_off = [sum(col_sizes[:k]) for k in range(len(col_sizes) + 1)]
    grid = [[0] * col_off[-1] for _ in range(row_off[-1])]
    for i in range(row_off[-1]):
        for j in range(col_off[-1]):
            bi, bj = _block_of(row_off, i), _block_of(col_off, j)
            if (bi, bj) in blocks:
                grid[i][j] = blocks[bi, bj][i - row_off[bi], j - col_off[bj]]
    want = FqMatrix.from_rows(p, grid, col_off[-1])
    assert FqMatrix.blocks(p, row_sizes, col_sizes, blocks) == want


def test_blocks_rejects_wrong_block_shape():
    with pytest.raises(InputError, match=r"block \(0, 1\) has shape \(1, 1\)"):
        FqMatrix.blocks(2, [1], [1, 2], {(0, 1): FqMatrix.identity(2, 1)})


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_from_cols_matches_entrywise_fill(data):
    p = data.draw(st.sampled_from([2, 3]))
    rows = data.draw(st.integers(0, 4))
    cols = data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=rows, max_size=rows), max_size=4))
    grid = [[0] * len(cols) for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, v in enumerate(col):
            grid[i][j] = v
    got = FqMatrix.from_cols(p, rows, cols)
    assert got == FqMatrix.from_rows(p, grid, len(cols))
    assert got.shape == (rows, len(cols))


def test_from_cols_rejects_ragged_columns():
    with pytest.raises(InputError, match="ragged columns"):
        FqMatrix.from_cols(2, 2, [(1, 0), (1,)])


def test_from_rows_width_without_rows():
    assert FqMatrix.from_rows(3, [], 4).shape == (0, 4)
    assert FqMatrix.from_rows(3, []).shape == (0, 0)


@settings(max_examples=200, deadline=None)
@given(matrix_strategy)
def test_kernel_rows_equals_kernel_basis(m):
    want = [list(m.kernel_basis().row(i)) for i in range(m.kernel_basis().rows)]
    assert kernel_rows(m.p, m.row_list(), m.cols) == want


def brute_span(p, n, vecs):
    """Every F_p-combination of vecs in F_p^n, by enumeration."""
    out = {(0,) * n}
    for v in vecs:
        out = {tuple((a + c * b) % p for a, b in zip(u, v)) for u in out for c in range(p)}
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rowspace_rows_are_the_reduced_echelon_span(data):
    # RowSpace is the one elimination loop (FqMatrix.rref, kernel_rows and
    # the reps key memos fill one), so it is checked against enumeration
    p = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(0, 5))
    vecs = data.draw(st.lists(st.lists(st.integers(-p, 2 * p), min_size=n, max_size=n),
                              max_size=4))
    space = RowSpace(p, n)
    grew = [space.add(v) for v in vecs]
    rows, pivots = space.rows, space.pivots
    assert pivots == sorted(set(pivots))
    for r, (row, pc) in enumerate(zip(rows, pivots)):
        assert all(0 <= v < p for v in row)
        assert not any(row[:pc]) and row[pc] == 1
        assert all(other[pc] == 0 for i, other in enumerate(rows) if i != r)
    spanned = brute_span(p, n, vecs)
    assert brute_span(p, n, rows) == spanned
    assert len(spanned) == p ** space.dim == p ** sum(grew)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_intertwining_rows_evaluate_the_equation(data):
    # F_t (R x K_t) @ a (K_t x C) - b (R x K_s) @ F_s (K_s x C), on a flat
    # vector holding F_t and F_s at their offsets, or zero for a None offset
    p = data.draw(st.sampled_from([2, 3]))
    r, k_t, k_s, c = (data.draw(st.integers(0, 3)) for _ in range(4))
    a, b = data.draw(matrices(p, k_t, c)), data.draw(matrices(p, r, k_s))
    f_t, f_s = data.draw(matrices(p, r, k_t)), data.draw(matrices(p, k_s, c))
    use_t, use_s = data.draw(st.booleans()), data.draw(st.booleans())
    flat = [7] + list(f_t.data) + list(f_s.data)
    t_off = 1 if use_t else None
    s_off = 1 + len(f_t.data) if use_s else None
    want = FqMatrix.zeros(p, r, c)
    if use_t:
        want = want + f_t @ a
    if use_s:
        want = want - b @ f_s
    rows = intertwining_rows(len(flat), t_off, a, s_off, b)
    assert [sum(x * y for x, y in zip(row, flat)) % p for row in rows] == list(want.data)
    assert all(row[0] == 0 for row in rows)
