"""Field arithmetic and quantization unit tests."""

import math
import random
from fractions import Fraction

import pytest

from packsecagg.field import (
    MERSENNE61,
    check_aggregate_capacity,
    check_capacity,
    decode_signed,
    dequantize,
    encode_signed,
    f_add,
    f_div,
    f_inv,
    f_mul,
    f_neg,
    f_pow,
    f_sub,
    is_probable_prime,
    quantize,
)


def test_primality_table():
    primes = [2, 3, 5, 31, 127, 2**31 - 1, MERSENNE61]
    composites = [1, 0, 4, 33, 2**61 - 2, 2**62 - 1, 561, 341550071728321 * 3]
    assert all(is_probable_prime(p) for p in primes)
    assert not any(is_probable_prime(c) for c in composites)


def test_exhaustive_small_field():
    p = 31
    for a in range(p):
        for b in range(p):
            assert f_add(a, b, p) == (a + b) % p
            assert f_sub(a, b, p) == (a - b) % p
            assert f_mul(a, b, p) == (a * b) % p
        assert f_neg(a, p) == (-a) % p
        if a:
            assert f_mul(a, f_inv(a, p), p) == 1
    with pytest.raises(ZeroDivisionError):
        f_inv(0, p)


def test_randomized_axioms_default_prime():
    p = MERSENNE61
    rnd = random.Random(0xF1E1D)
    for _ in range(2000):
        a, b, c = (rnd.randrange(p) for _ in range(3))
        assert f_add(a, b, p) == f_add(b, a, p)
        assert f_mul(a, b, p) == f_mul(b, a, p)
        assert f_mul(a, f_add(b, c, p), p) == f_add(f_mul(a, b, p), f_mul(a, c, p), p)
        assert f_sub(a, a, p) == 0
        if a:
            assert f_div(f_mul(a, b, p), a, p) == b
        assert f_pow(a, 5, p) == pow(a, 5, p)


def test_quantize_examples():
    assert quantize(0.567, 100) == 56
    assert quantize(-0.567, 100) == -56
    assert quantize(0.0, 100) == 0
    assert quantize(1.0, 100) == 100
    # negatives gain +1 even on the grid: rounding is strictly toward zero
    assert quantize(-1.0, 100) == -99
    assert dequantize(56, 100) == 0.56


def test_quantize_toward_zero_and_error_bound():
    rnd = random.Random(7)
    q = 1 << 16
    for _ in range(5000):
        x = rnd.uniform(-50, 50)
        v = quantize(x, q)
        # magnitude never grows, so norm bounds survive quantization
        assert abs(Fraction(v)) <= abs(Fraction(x)) * q
        assert abs(Fraction(v, q) - Fraction(x)) <= Fraction(1, q)


def test_quantize_odd_symmetry_off_grid():
    rnd = random.Random(8)
    q = 1000
    for _ in range(2000):
        x = rnd.uniform(0.0001, 20)
        if (Fraction(x) * q).denominator == 1:
            continue
        assert quantize(-x, q) == -quantize(x, q)


def test_signed_encoding_roundtrip():
    p = 31
    for v in range(-15, 16):
        assert decode_signed(encode_signed(v, p), p) == v
    with pytest.raises(OverflowError):
        encode_signed(16, p)
    with pytest.raises(OverflowError):
        encode_signed(-16, p)
    with pytest.raises(ValueError):
        decode_signed(31, p)
    big = MERSENNE61
    for v in [0, 1, -1, (big - 1) // 2, -(big - 1) // 2, 12345678901]:
        assert decode_signed(encode_signed(v, big), big) == v


def test_capacity_audits():
    check_capacity(MERSENNE61, 100, 1 << 17)
    with pytest.raises(OverflowError):
        check_capacity(31, 100, 4)
    check_aggregate_capacity(MERSENNE61, 100, 1 << 17)
    with pytest.raises(OverflowError):
        check_aggregate_capacity(MERSENNE61, 100, 1 << 20)


def test_quantize_matches_definition_exactly():
    # floor on the exact rational, plus one for negatives: spot-check against
    # a pure-Fraction recomputation on awkward floats
    rnd = random.Random(9)
    for _ in range(2000):
        x = rnd.uniform(-3, 3)
        q = rnd.choice([10, 100, 1 << 16])
        expect = math.floor(Fraction(x) * q)
        if x < 0:
            expect += 1
        assert quantize(x, q) == expect
