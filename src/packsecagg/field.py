"""Prime-field arithmetic with fixed-point quantization.

All protocol values live in F_P for an odd prime P (default the Mersenne prime
2^61 - 1, chosen so every element fits a machine word and products fit Python
ints cheaply).  Real-valued gradients enter the field through a fixed-point map
with scale q: quantization rounds toward zero, which guarantees the quantized
magnitude never exceeds the real magnitude (the norm-bound check in the
aggregation protocol relies on exactly this).  Signed integers are encoded with
the upper half of the field representing negatives.

Scalar operations here are the reference implementation; `fastops` provides
numpy-vectorized equivalents that are tested against these.
"""

from __future__ import annotations

import math
from fractions import Fraction

MERSENNE61 = (1 << 61) - 1

DEFAULT_SCALE_BITS = 16
DEFAULT_SCALE = 1 << DEFAULT_SCALE_BITS

# Witnesses that make Miller-Rabin deterministic below 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n < 3.3e24 (covers every field here)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def f_add(a: int, b: int, p: int = MERSENNE61) -> int:
    return (a + b) % p


def f_sub(a: int, b: int, p: int = MERSENNE61) -> int:
    return (a - b) % p


def f_neg(a: int, p: int = MERSENNE61) -> int:
    return -a % p


def f_mul(a: int, b: int, p: int = MERSENNE61) -> int:
    return a * b % p


def f_pow(a: int, e: int, p: int = MERSENNE61) -> int:
    return pow(a, e, p)


def f_inv(a: int, p: int = MERSENNE61) -> int:
    """Multiplicative inverse via Fermat; raises on zero."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return pow(a, p - 2, p)


def f_div(a: int, b: int, p: int = MERSENNE61) -> int:
    return a * f_inv(b, p) % p


# ---------------------------------------------------------------------------
# Fixed-point quantization (toward zero) and signed encoding
# ---------------------------------------------------------------------------


def quantize(x: float, scale: int = DEFAULT_SCALE) -> int:
    """Map a real to the integer numerator of its fixed-point value.

    Rounds toward zero: floor(q*x) for x >= 0 and floor(q*x) + 1 for x < 0, so
    |result| <= |q*x| and |result/q - x| <= 1/q.  Computed in exact rational
    arithmetic so floor lands on the true side of representable boundaries.
    """
    if x == 0:
        return 0
    qx = Fraction(x) * scale
    v = math.floor(qx)
    if x < 0:
        v += 1
    return v


def dequantize(v: int, scale: int = DEFAULT_SCALE) -> float:
    return v / scale


def encode_signed(v: int, p: int = MERSENNE61) -> int:
    """Embed a signed integer, negatives in the upper half of the field."""
    half = (p - 1) // 2
    if v > half or v < -half:
        raise OverflowError(f"{v} exceeds signed field capacity +-{half}")
    return v % p


def decode_signed(u: int, p: int = MERSENNE61) -> int:
    """Inverse of encode_signed."""
    if not 0 <= u < p:
        raise ValueError(f"{u} is not a canonical field element")
    half = (p - 1) // 2
    return u - p if u > half else u


def check_capacity(p: int, n_users: int, norm_q: int) -> None:
    """Audit that dot products and squared norms cannot wrap around.

    norm_q is the quantized root-gradient norm bound (q * ||g0||, rounded up).
    Reconstructed values are bounded by max(n_users * norm_q, norm_q^2) in
    magnitude, and both must stay within the signed field capacity.
    """
    half = (p - 1) // 2
    bound = max(n_users * norm_q, norm_q * norm_q)
    if bound > half:
        raise OverflowError(
            f"field capacity {half} cannot hold aggregate bound {bound} "
            f"(n_users={n_users}, norm_q={norm_q})"
        )


def check_aggregate_capacity(p: int, n_users: int, norm_q: int) -> None:
    """Audit the trust-weighted aggregate: numerators up to norm_q^2 scale
    coordinates up to norm_q, summed over n_users."""
    half = (p - 1) // 2
    bound = n_users * norm_q * norm_q * norm_q
    if bound > half:
        raise OverflowError(
            f"field capacity {half} cannot hold weighted aggregate bound {bound}"
        )
