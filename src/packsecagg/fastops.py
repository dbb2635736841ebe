"""Vectorized mod-p kernels on numpy uint64 arrays.

numpy has no 128-bit integers, so products of 61-bit elements cannot be formed
directly.  Two strategies, picked per modulus:

* p = 2^61 - 1, the share field of every workload: elementwise products split
  each factor into 31/30-bit halves and use 2^61 = 1 (mod p), so every
  intermediate fits in uint64.  Matrix products run on float64 BLAS in the
  style of FFLAS-FFPACK (Dumas, Giorgi, Pernet, ACM TOMS 2008): the larger
  operand is split into 31/30-bit limbs, the smaller into four 16-bit limbs,
  so that every partial sum over an inner chunk stays below 2^53, where
  float64 arithmetic is exact.  The partial sums are converted to uint64 and
  recombined by rotation, since a shift by 2^k mod p is a rotation of the 61
  bits.  Sums add the 32-bit halves of the elements in uint64 and reduce once.
* any other prime: exact Python-int object arrays (correct, slow; only tests
  and the small-field acceptance criteria run one).

The interpolation matrices of the sharing and decoding layers are built here
too, from `poly.lagrange_basis`, and cached per point set.

Every kernel is checked against the scalar reference in `poly`/`field`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .field import MERSENNE61
from .poly import lagrange_basis

_M61 = np.uint64(MERSENNE61)
_MASK31 = np.uint64((1 << 31) - 1)
_MASK30 = np.uint64((1 << 30) - 1)
_MASK32 = np.uint64((1 << 32) - 1)
_MASK16 = np.uint64((1 << 16) - 1)
_SHIFTS16 = np.array([[0], [16], [32], [48]], dtype=np.uint64)

# A 2^61-1 matrix product sums 2 * _M61_CHUNK terms per float64 dot product,
# each below 2^31 * 2^16 or 2^30 * 2^16; 42 is the largest chunk whose sum
# stays below 2^53.  Chunk sums add up in uint64 and are reduced every
# _M61_FOLD chunks, which keeps the accumulator below 2^62.
_M61_CHUNK = 42
_M61_FOLD = 256


def as_elems(values, p: int) -> np.ndarray:
    """Canonical uint64 array of field elements."""
    arr = np.asarray(values)
    if arr.dtype == object:
        arr = np.array([int(v) % p for v in arr.reshape(-1)], dtype=np.uint64).reshape(arr.shape)
        return arr
    return arr.astype(np.uint64) % np.uint64(p)


def _m61_reduce(t: np.ndarray) -> np.ndarray:
    """t mod 2^61-1 for any uint64 t (arrays or scalars)."""
    r = (t >> np.uint64(61)) + (t & _M61)
    # subtract only where r >= p: a scalar r - p below zero would warn
    return r - _M61 * (r >= _M61)


def _m61_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ah = a >> np.uint64(31)
    al = a & _MASK31
    bh = b >> np.uint64(31)
    bl = b & _MASK31
    m = ah * bl + al * bh
    mh = m >> np.uint64(30)
    ml = m & _MASK30
    t = np.uint64(2) * (ah * bh) + mh + (ml << np.uint64(31)) + al * bl
    return _m61_reduce(_m61_reduce(t))


def _m61_shift(x: np.ndarray, k: int) -> np.ndarray:
    """A value congruent to x * 2^k mod 2^61-1, for any uint64 x and
    0 < k < 61: the low 61-k bits move up by k, the rest wrap around to the
    bottom.  The result is below 2^61 + 2^(k+3) and not reduced."""
    return ((x << np.uint64(k)) & _M61) + (x >> np.uint64(61 - k))


def mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Elementwise a*b mod p (broadcasting as numpy does)."""
    if p == MERSENNE61:
        a, b = np.broadcast_arrays(np.asarray(a, np.uint64), np.asarray(b, np.uint64))
        return _m61_mul(a, b)
    obj = (np.asarray(a).astype(object) * np.asarray(b).astype(object)) % p
    return as_elems(obj, p)


def add_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return (np.asarray(a, np.uint64) + np.asarray(b, np.uint64)) % np.uint64(p)


def sub_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return (np.asarray(a, np.uint64) + np.uint64(p) - np.asarray(b, np.uint64)) % np.uint64(p)


def neg_mod(a: np.ndarray, p: int) -> np.ndarray:
    return (np.uint64(p) - np.asarray(a, np.uint64)) % np.uint64(p)


def sum_mod(a: np.ndarray, p: int, axis=None) -> np.ndarray:
    """Overflow-safe sum of uint64 elements, reduced mod p."""
    arr = np.asarray(a, np.uint64)
    if arr.size == 0:
        return np.uint64(0)
    if p == MERSENNE61:
        # 32-bit halves sum exactly in uint64 for fewer than 2^32 terms
        lo = np.sum(arr & _MASK32, axis=axis, dtype=np.uint64)
        hi = np.sum(arr >> np.uint64(32), axis=axis, dtype=np.uint64)
        return _m61_reduce(_m61_reduce(lo) + _m61_shift(hi, 32))
    return as_elems(np.sum(arr.astype(object), axis=axis) % p, p)


def _m61_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact (a @ b) mod 2^61-1 for canonical 2-D uint64 operands."""
    if a.size < b.size:
        return _m61_matmul(b.T, a.T).T
    m, k = a.shape
    n = b.shape[1]
    # columns 2c and 2c+1 of `big` hold the low 31 and high 30 bits of a[:, c]
    big = np.empty((m, k, 2))
    np.bitwise_and(a, _MASK31, out=big[:, :, 0], casting="unsafe")
    np.right_shift(a, np.uint64(31), out=big[:, :, 1], casting="unsafe")
    big = big.reshape(m, 2 * k)
    # rows 2c and 2c+1 of `small` hold b[c] and b[c] * 2^31 (which the high
    # bits multiply), each as four 16-bit limbs in consecutive column blocks
    pair = np.stack([b, _m61_reduce(_m61_shift(b, 31))], axis=1)
    small = ((pair[:, :, None, :] >> _SHIFTS16) & _MASK16).astype(np.float64).reshape(2 * k, 4 * n)
    acc = np.zeros((m, 4 * n), dtype=np.uint64)
    step = 2 * _M61_CHUNK
    for i, c in enumerate(range(0, 2 * k, step)):
        acc += (big[:, c : c + step] @ small[c : c + step]).astype(np.uint64)
        if i % _M61_FOLD == _M61_FOLD - 1:
            acc = _m61_reduce(acc)
    # limb j of the smaller operand carries weight 2^(16 j)
    out = acc[:, :n].copy()
    for j in range(1, 4):
        out += _m61_shift(acc[:, j * n : (j + 1) * n], 16 * j)
    return _m61_reduce(out)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for canonical 2-D uint64 operands."""
    a = np.asarray(a, np.uint64)
    b = np.asarray(b, np.uint64)
    if p == MERSENNE61:
        return _m61_matmul(a, b)
    obj = (a.astype(object) @ b.astype(object)) % p
    return as_elems(obj, p)


def powers_mod(x: int, n: int, p: int) -> np.ndarray:
    """[x^0, x^1, ..., x^(n-1)] as uint64."""
    out = np.empty(n, dtype=np.uint64)
    acc = 1
    for i in range(n):
        out[i] = acc
        acc = acc * x % p
    return out


def vandermonde(xs, n_rows: int, p: int) -> np.ndarray:
    """Matrix V[r, j] = xs[j]^r, r < n_rows."""
    xs = as_elems(xs, p)
    out = np.empty((n_rows, xs.size), dtype=np.uint64)
    out[0] = 1
    for r in range(1, n_rows):
        out[r] = mul_mod(out[r - 1], xs, p)
    return out


def poly_eval_many(coeff_mat: np.ndarray, xs, p: int) -> np.ndarray:
    """Evaluate each row polynomial at every x: (m, deg+1) x (n,) -> (m, n)."""
    coeff_mat = np.asarray(coeff_mat, np.uint64)
    v = vandermonde(xs, coeff_mat.shape[1], p)
    return matmul_mod(coeff_mat, v, p)


@lru_cache(maxsize=256)
def interp_matrix(xs: tuple[int, ...], p: int) -> np.ndarray:
    """Read-only (n, n) map from values at the n distinct points xs to the
    coefficients of their interpolant: (values @ M)[r] is its x^r
    coefficient.  Row t holds the coefficients of the Lagrange basis
    polynomial L_t, so M is the inverse of `vandermonde(xs, n, p)`."""
    out = np.array(lagrange_basis(list(xs), p), dtype=np.uint64)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=256)
def extraction_matrix(xs: tuple[int, ...], targets: tuple[int, ...], p: int) -> np.ndarray:
    """Read-only (len(xs), len(targets)) map from values at the distinct
    points xs to their interpolant's values at `targets`: entry (t, j) is
    L_t(targets[j])."""
    out = matmul_mod(interp_matrix(xs, p), vandermonde(targets, len(xs), p), p)
    out.flags.writeable = False
    return out


def rand_elems(rng: np.random.Generator, shape, p: int) -> np.ndarray:
    """Uniform field elements from a seeded Generator."""
    return rng.integers(0, p, size=shape, dtype=np.uint64)


def encode_signed_arr(values, p: int) -> np.ndarray:
    """Vectorized signed embedding: negatives map to the upper half."""
    v = np.asarray(values, dtype=np.int64)
    half = (p - 1) // 2
    if v.size and (np.abs(v) > half).any():
        worst = int(v.flat[np.abs(v).argmax()])
        raise OverflowError(f"{worst} exceeds signed field capacity +-{half}")
    return np.mod(v, np.int64(p)).astype(np.uint64)


def decode_signed_arr(values, p: int) -> np.ndarray:
    """Vectorized inverse of encode_signed_arr, as int64."""
    u = np.asarray(values, dtype=np.uint64)
    if u.size and (u >= p).any():
        raise ValueError("input contains non-canonical field elements")
    half = (p - 1) // 2
    s = u.astype(np.int64)
    return np.where(s > half, s - np.int64(p), s)


def quantize_arr(x, scale: int) -> np.ndarray:
    """Vectorized toward-zero fixed-point map: floor(q*x), plus one for
    negative inputs.  Matches the scalar reference except on inputs where the
    float product q*x is not exactly representable at an integer boundary;
    deterministic either way."""
    x = np.asarray(x, dtype=np.float64)
    v = np.floor(x * scale)
    v = v + (x < 0)
    return v.astype(np.int64)
