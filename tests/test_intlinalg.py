import random
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from surfclass.errors import DimensionMismatchError
from surfclass.intlinalg import (
    FgAbelianGroup,
    IntMatrix,
    cokernel,
    group_format,
    rank,
    smith_normal_form,
)

from matrixutil import (
    dense_rows,
    determinant,
    entry,
    from_rows,
    is_zero,
    minor_gcd_invariants,
    rank_mod_p,
    rational_rank,
    transpose,
    zeros,
)


def M(rows):
    return from_rows(rows)


def test_snf_examples():
    assert smith_normal_form(M([[1, 0], [0, 1]])) == (1, 1)
    assert smith_normal_form(M([[2, 4], [6, 8]])) == (2, 4)
    assert smith_normal_form(M([[0, 0, 0], [0, 0, 0], [0, 0, 0]])) == ()


def test_rank_examples():
    assert rank(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert rank(M([[2, 4], [6, 8]])) == 2
    assert rank(M([[0, 0]])) == 0


def test_cokernel_examples():
    g = cokernel(2, M([[2], [0]]))
    assert g == FgAbelianGroup(1, (2,))
    assert cokernel(3, zeros(3, 0)) == FgAbelianGroup(3, ())
    assert cokernel(1, M([[1]])) == FgAbelianGroup(0, ())
    with pytest.raises(DimensionMismatchError):
        cokernel(3, M([[1], [2]]))


def test_cokernel_z2_by_coset_enumeration():
    # Z^2 / <(2,0)> truncated mod 4 has 4*4/2 = 8 cosets, matching
    # (Z (+) Z/2) truncated mod 4 with 4*2 = 8 elements
    sub = {((2 * k) % 4, 0) for k in range(4)}
    cosets = set()
    for x, y in product(range(4), range(4)):
        cosets.add(frozenset(((x + a) % 4, (y + b) % 4) for a, b in sub))
    assert len(cosets) == 8
    g = cokernel(2, M([[2], [0]]))
    assert 4 ** g.free_rank * (g.torsion[0] if g.torsion else 1) == 8


def test_group_format():
    assert group_format(FgAbelianGroup(2, ())) == "Z^2"
    assert group_format(FgAbelianGroup(1, (2,))) == "Z (+) Z/2"
    assert group_format(FgAbelianGroup(0, ())) == "0"
    assert group_format(FgAbelianGroup(0, (2, 4))) == "Z/2 (+) Z/4"


def test_divisibility_chain_enforced():
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (3, 4))


@pytest.mark.parametrize("free_rank, torsion, message", [
    (-1, (), "negative rank"),
    (1, (1,), "torsion factors must be >= 2"),
])
def test_a_group_with_a_negative_rank_or_a_unit_factor_is_refused(free_rank, torsion, message):
    with pytest.raises(ValueError, match=message):
        FgAbelianGroup(free_rank, torsion)


small = st.integers(-9, 9)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_matches_minor_gcd_oracle(r, c, data):
    rows = [[data.draw(small) for _ in range(c)] for _ in range(r)]
    m = M(rows)
    assert smith_normal_form(m) == minor_gcd_invariants(m)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_rank_matches_rational_rank(r, c, data):
    rows = [[data.draw(small) for _ in range(c)] for _ in range(r)]
    m = M(rows)
    assert rank(m) == rational_rank(m)


def test_snf_transpose_and_chain():
    rng = random.Random(2024)
    for _ in range(200):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = M([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        f = smith_normal_form(m)
        assert f == smith_normal_form(transpose(m))
        for a, b in zip(f, f[1:]):
            assert b % a == 0


def dense_matrix(data, r, c, values=small):
    return [[data.draw(values) for _ in range(c)] for _ in range(r)]


def sparse_from_dense(rows, r, c):
    columns = (tuple((i, rows[i][j]) for i in range(r) if rows[i][j]) for j in range(c))
    return IntMatrix(r, c, tuple(columns))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_sparse_storage_matches_dense_reference(r, k, c, data):
    a = dense_matrix(data, r, k, st.integers(-3, 3))
    b = dense_matrix(data, k, c, st.integers(-3, 3))
    A, B = sparse_from_dense(a, r, k), sparse_from_dense(b, k, c)
    if r:
        assert M(a) == A
    assert (A.rows, A.cols) == (r, k)
    assert A.entries == tuple(x for row in a for x in row)
    assert dense_rows(A) == a
    assert all(entry(A, i, j) == a[i][j] for i in range(r) for j in range(k))
    at = [[a[i][j] for i in range(r)] for j in range(k)]
    assert transpose(A) == sparse_from_dense(at, k, r)
    product = [[sum(a[i][m] * b[m][j] for m in range(k)) for j in range(c)] for i in range(r)]
    AB = A.mul(B)
    assert (AB.rows, AB.cols) == (r, c)
    assert dense_rows(AB) == product
    assert AB == sparse_from_dense(product, r, c)
    assert is_zero(AB) == all(x == 0 for row in product for x in row)


def test_sparse_storage_rejects_malformed_columns():
    with pytest.raises(DimensionMismatchError):
        IntMatrix(2, 2, (((0, 1),),))
    with pytest.raises(DimensionMismatchError):
        IntMatrix(2, 1, (((2, 1),),))
    with pytest.raises(DimensionMismatchError):
        IntMatrix(2, 1, (((1, 1), (0, 1)),))
    with pytest.raises(DimensionMismatchError):
        IntMatrix(2, 1, (((0, 0),),))
    with pytest.raises(DimensionMismatchError):
        M([[1, 2], [3]])
    with pytest.raises(DimensionMismatchError):
        M([[1, 2]]).mul(M([[1, 2]]))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.data())
def test_unit_pivots_match_minor_gcd_oracle(r, c, data):
    # mostly zeros and units, so unit pivots do most of the reduction
    # and their fill-in decides what the non-unit pivots see
    rows = dense_matrix(data, r, c, st.sampled_from([0, 0, 0, 1, -1, 1, -1, 2, -2, 3]))
    m = M(rows)
    assert smith_normal_form(m) == minor_gcd_invariants(m)
    assert rank(m) == rational_rank(m)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_non_unit_pivots_match_minor_gcd_oracle(r, c, data):
    # no unit in the input, so every pivot is a least entry
    values = st.sampled_from([0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9])
    m = M(dense_matrix(data, r, c, values))
    assert smith_normal_form(m) == minor_gcd_invariants(m)


@pytest.mark.parametrize(
    "rows, factors",
    [
        ([[2, 0], [0, 3]], (1, 6)),
        ([[6, 10, 15]], (1,)),
        ([[2, 3], [3, 2]], (1, 5)),
        ([[4, 6], [6, 9]], (1,)),
    ],
)
def test_non_unit_pivot_examples(rows, factors):
    assert smith_normal_form(M(rows)) == factors


def test_non_unit_pivots_on_a_sparse_26x26_match_oracles():
    # three non-unit entries per row, checked against oracles that share
    # no code with the reduction: rank over Q and GF(p), and |det|
    rng = random.Random(21)
    rows = []
    for _ in range(26):
        row = [0] * 26
        for c in rng.sample(range(26), 3):
            row[c] = rng.choice((2, -2, 3, 4, 6, -9))
        rows.append(row)
    m = M(rows)
    f = smith_normal_form(m)
    assert len(f) == rational_rank(m) == 26
    for p in (2, 3, 5, 7):
        assert rank_mod_p(m, p) == sum(1 for t in f if t % p)
    assert prod(f) == abs(determinant(m))
    for a, b in zip(f, f[1:]):
        assert b % a == 0
