"""Vectorized kernels vs the scalar reference, across both modulus strategies."""

import numpy as np
import pytest

from packsecagg import fastops
from packsecagg.field import MERSENNE61, is_probable_prime
from packsecagg.poly import lagrange_weights_at, matmul_mod_py, poly_eval


def _find_prime_above(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


# The Mersenne path, then three primes for the exact Python-int path: the
# small acceptance field F_31, the largest 31-bit prime, and one near 2^40.
MODULI = [MERSENNE61, 31, 2**31 - 1, _find_prime_above(2**40)]


@pytest.mark.parametrize("p", MODULI)
def test_elementwise_ops_match_scalar(p):
    rng = np.random.default_rng(101)
    a = fastops.rand_elems(rng, 257, p)
    b = fastops.rand_elems(rng, 257, p)
    mul = fastops.mul_mod(a, b, p)
    add = fastops.add_mod(a, b, p)
    sub = fastops.sub_mod(a, b, p)
    neg = fastops.neg_mod(a, p)
    for i in range(a.size):
        x, y = int(a[i]), int(b[i])
        assert int(mul[i]) == x * y % p
        assert int(add[i]) == (x + y) % p
        assert int(sub[i]) == (x - y) % p
        assert int(neg[i]) == -x % p


@pytest.mark.parametrize("p", MODULI)
def test_matmul_matches_reference(p):
    rng = np.random.default_rng(202)
    a = fastops.rand_elems(rng, (7, 23), p)
    b = fastops.rand_elems(rng, (23, 5), p)
    got = fastops.matmul_mod(a, b, p)
    want = matmul_mod_py([[int(v) for v in row] for row in a], [[int(v) for v in row] for row in b], p)
    assert [[int(v) for v in row] for row in got] == want


def test_matmul_long_inner_dimension_mersenne():
    p = MERSENNE61
    rng = np.random.default_rng(303)
    a = fastops.rand_elems(rng, (2, 4096), p)
    b = fastops.rand_elems(rng, (4096, 3), p)
    got = fastops.matmul_mod(a, b, p)
    for i in range(2):
        for j in range(3):
            want = sum(int(a[i, k]) * int(b[k, j]) for k in range(4096)) % p
            assert int(got[i, j]) == want


@pytest.mark.parametrize("p", MODULI)
def test_sum_mod(p):
    rng = np.random.default_rng(404)
    a = fastops.rand_elems(rng, 1000, p)
    assert int(fastops.sum_mod(a, p)) == sum(int(v) for v in a) % p
    m = fastops.rand_elems(rng, (6, 9), p)
    col = fastops.sum_mod(m, p, axis=0)
    for j in range(9):
        assert int(col[j]) == sum(int(m[i, j]) for i in range(6)) % p


@pytest.mark.parametrize("p", [MERSENNE61, 31])
def test_poly_eval_many(p):
    rng = np.random.default_rng(505)
    coeffs = fastops.rand_elems(rng, (4, 6), p)
    xs = list(range(1, 8))
    got = fastops.poly_eval_many(coeffs, xs, p)
    for r in range(4):
        for j, x in enumerate(xs):
            assert int(got[r, j]) == poly_eval([int(c) for c in coeffs[r]], x, p)


@pytest.mark.parametrize("p", MODULI)
def test_extraction_matrix_matches_the_lagrange_reference(p):
    xs, targets = (4, 5, 7, 9, 12), (1, 2, 3)
    m = fastops.extraction_matrix(xs, targets, p)
    for j, e in enumerate(targets):
        assert m[:, j].tolist() == lagrange_weights_at(list(xs), e, p)
    # cached, so callers must not write into them
    assert not m.flags.writeable and not fastops.interp_matrix(xs, p).flags.writeable


def test_powers_and_vandermonde():
    p = 31
    pw = fastops.powers_mod(3, 6, p)
    assert [int(v) for v in pw] == [1, 3, 9, 27, 81 % 31, 243 % 31]
    v = fastops.vandermonde([2, 5], 4, p)
    assert [int(x) for x in v[:, 0]] == [1, 2, 4, 8]
    assert [int(x) for x in v[:, 1]] == [1, 5, 25, 125 % 31]


def test_as_elems_handles_negatives_and_objects():
    p = 31
    arr = fastops.as_elems(np.array([-1, 32, 0], dtype=object), p)
    assert [int(v) for v in arr] == [30, 1, 0]


# Inner dimensions around the kernel's float64 chunk (42 columns of each limb
# pair), around 64, and long enough to need many chunks.
WORST_INNER = [1, 42, 43, 63, 64, 65, 683, 4096]


@pytest.mark.parametrize("inner", WORST_INNER)
def test_matmul_mersenne_worst_case_operands(inner):
    # every entry p-1 maximizes each limb and each float64 partial sum;
    # (p-1)^2 = 1 (mod p), so every output entry is inner mod p
    p = MERSENNE61
    a = np.full((3, inner), p - 1, dtype=np.uint64)
    b = np.full((inner, 2), p - 1, dtype=np.uint64)
    assert fastops.matmul_mod(a, b, p).tolist() == [[inner % p] * 2] * 3
    assert fastops.matmul_mod(b.T, a.T, p).tolist() == [[inner % p] * 3] * 2


@pytest.mark.parametrize("inner", [42, 43, 64, 65])
def test_matmul_mersenne_chunk_boundaries_match_reference(inner):
    p = MERSENNE61
    rng = np.random.default_rng(inner)
    a = fastops.rand_elems(rng, (4, inner), p)
    b = fastops.rand_elems(rng, (inner, 3), p)
    a[0] = p - 1
    b[:, 0] = p - 1
    want = matmul_mod_py(a.tolist(), b.tolist(), p)
    assert fastops.matmul_mod(a, b, p).tolist() == want


def test_matmul_mersenne_inner_beyond_a_million():
    # past 2^20 the old kernel fell back to Python-int object arrays
    p = MERSENNE61
    inner = (1 << 20) + 1
    a = np.full((1, inner), p - 1, dtype=np.uint64)
    b = np.full((inner, 1), p - 1, dtype=np.uint64)
    assert fastops.matmul_mod(a, b, p).tolist() == [[inner % p]]


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 9), (9, 1)])
def test_matmul_mersenne_vector_shapes(rows, cols):
    p = MERSENNE61
    rng = np.random.default_rng(rows * 10 + cols)
    a = fastops.rand_elems(rng, (rows, 50), p)
    b = fastops.rand_elems(rng, (50, cols), p)
    got = fastops.matmul_mod(a, b, p)
    assert got.shape == (rows, cols)
    assert got.tolist() == matmul_mod_py(a.tolist(), b.tolist(), p)


def test_sum_mod_mersenne_long_rows():
    p = MERSENNE61
    n = 1 << 20
    rows = np.full((2, n), p - 1, dtype=np.uint64)
    assert fastops.sum_mod(rows, p, axis=1).tolist() == [n * (p - 1) % p] * 2
    assert int(fastops.sum_mod(rows, p)) == 2 * n * (p - 1) % p
    # non-canonical inputs are reduced too
    ones = np.full((2, 1000), 2**64 - 1, dtype=np.uint64)
    assert fastops.sum_mod(ones, p, axis=1).tolist() == [1000 * (2**64 - 1) % p] * 2
