"""Packed Shamir secret sharing over a prime field.

A packing of width l stores secrets (s_1..s_l) at the fixed points e_i = i of a
degree-d polynomial phi(x) = q(x) * Z(x) + sum_i s_i L_i(x), where Z is the
vanishing polynomial of the secret points, L_i the Lagrange basis over them,
and q is uniformly random of degree d - l.  Party j holds the evaluation at
alpha_j = l + j.  Any d+1 shares determine the polynomial; any d-l+1 or fewer
reveal nothing about the secrets.  Shares are linear in the secrets, and the
elementwise product of two share vectors is a share vector of the product
polynomial at doubled degree, which is what the dot-product pipeline exploits.

Dealing is batched: one call shares every row of a secret matrix, and draws
its shares and coefficients together, with a single modular matrix product.
Both interpolation matrices here are `poly.lagrange_basis` in the cached array
form of `fastops`: the dealing matrix holds the basis over the secret points,
and `reconstruct` multiplies by the extraction matrix, the basis over the
shareholders' points evaluated at the secret points.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fastops
from .field import is_probable_prime
from .poly import poly_from_roots


class ShareError(ValueError):
    """Raised for malformed sharing inputs or insufficient shares."""


@dataclass(frozen=True)
class SharingConfig:
    """Field and geometry of one packed-sharing context.

    Secrets sit at points 1..pack; party j (1-based) holds the evaluation at
    pack + j.  degree is the polynomial degree d of fresh shares.
    """

    prime: int
    n_parties: int
    pack: int
    degree: int

    def __post_init__(self) -> None:
        if not is_probable_prime(self.prime):
            raise ShareError(f"{self.prime} is not prime")
        if self.pack < 1:
            raise ShareError("pack width must be >= 1")
        if self.degree < self.pack - 1:
            raise ShareError(f"degree {self.degree} cannot pack {self.pack} secrets")
        if self.n_parties < self.degree + 1:
            raise ShareError(
                f"{self.n_parties} parties cannot reconstruct degree {self.degree}"
            )
        if self.pack + self.n_parties >= self.prime:
            raise ShareError("field too small for distinct evaluation points")

    @property
    def secret_points(self) -> tuple[int, ...]:
        return tuple(range(1, self.pack + 1))

    @property
    def eval_points(self) -> tuple[int, ...]:
        return tuple(range(self.pack + 1, self.pack + self.n_parties + 1))

    def eval_point(self, party: int) -> int:
        """Evaluation point of a 1-based party index."""
        if not 1 <= party <= self.n_parties:
            raise ShareError(f"party {party} out of range")
        return self.pack + party

    @cached_property
    def _deal_matrix(self) -> np.ndarray:
        """(degree+1, N+degree+1): maps a row [secrets | q] to [shares | coefficients].

        The right block holds coefficient rows: the Lagrange basis over the
        secret points, then x^r * Z(x) for r = 0..degree-pack.  The left block
        is the same rows evaluated at the parties' points.
        """
        p, d, l = self.prime, self.degree, self.pack
        coeffs = np.zeros((d + 1, d + 1), dtype=np.uint64)
        coeffs[:l, :l] = fastops.interp_matrix(self.secret_points, p)
        z = poly_from_roots(list(self.secret_points), p)
        for r in range(d - l + 1):
            coeffs[l + r, r : r + l + 1] = z
        evals = fastops.matmul_mod(coeffs, fastops.vandermonde(self.eval_points, d + 1, p), p)
        return np.hstack([evals, coeffs])


@dataclass
class ShareBatch:
    """Dealer output for a batch of polynomials.

    shares[k, j] is party j+1's evaluation of polynomial k; coeffs[k] its
    coefficient vector (needed for commitments).  degree_tag tracks the
    algebraic degree through linear and Hadamard operations.
    """

    config: SharingConfig
    shares: np.ndarray
    coeffs: np.ndarray
    degree_tag: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.degree_tag < 0:
            self.degree_tag = self.config.degree

    def column(self, party: int) -> np.ndarray:
        """All of one party's share values (one per polynomial)."""
        return self.shares[:, party - 1]


def share_batch(config: SharingConfig, secrets: np.ndarray, rng: np.random.Generator) -> ShareBatch:
    """Deal every row of a (m, pack) secret matrix with fresh randomness."""
    secrets = fastops.as_elems(np.atleast_2d(secrets), config.prime)
    if secrets.shape[1] != config.pack:
        raise ShareError(f"expected {config.pack} secrets per row, got {secrets.shape[1]}")
    p = config.prime
    n_rand = config.degree - config.pack + 1
    q = fastops.rand_elems(rng, (secrets.shape[0], n_rand), p)
    dealt = fastops.matmul_mod(np.hstack([secrets, q]), config._deal_matrix, p)
    n = config.n_parties
    return ShareBatch(config, dealt[:, :n], dealt[:, n:])


def share(config: SharingConfig, secrets: list[int], rng: np.random.Generator) -> ShareBatch:
    """Deal a single packed polynomial (pads short secret tuples with zeros)."""
    if len(secrets) > config.pack:
        raise ShareError(f"{len(secrets)} secrets exceed pack width {config.pack}")
    row = list(secrets) + [0] * (config.pack - len(secrets))
    return share_batch(config, np.array([row], dtype=np.uint64), rng)


def reconstruct(
    config: SharingConfig,
    parties: list[int],
    values: np.ndarray,
    degree_tag: int | None = None,
) -> np.ndarray:
    """Recover packed secrets from shares of the given parties.

    values may be (n_points,) for one polynomial or (m, n_points) for a batch;
    returns the matching (pack,) or (m, pack) secret array.  Requires at least
    degree_tag + 1 distinct shares.
    """
    d = config.degree if degree_tag is None else degree_tag
    if len(set(parties)) != len(parties):
        raise ShareError("duplicate shareholder")
    if len(parties) < d + 1:
        raise ShareError(f"need {d + 1} shares for degree {d}, got {len(parties)}")
    p = config.prime
    xs = tuple(config.eval_point(j) for j in parties)
    vals = fastops.as_elems(np.atleast_2d(values), p)
    if vals.shape[1] != len(parties):
        raise ShareError("one value per shareholder required")
    out = fastops.matmul_mod(vals, fastops.extraction_matrix(xs, config.secret_points, p), p)
    return out[0] if np.ndim(values) == 1 else out


def hadamard(a: ShareBatch, b: ShareBatch) -> ShareBatch:
    """Shares of the coefficient-wise product polynomials; degrees add."""
    if a.config is not b.config and a.config != b.config:
        raise ShareError("mismatched sharing configs")
    deg = a.degree_tag + b.degree_tag
    if deg >= a.config.n_parties:
        raise ShareError(f"product degree {deg} not reconstructible by {a.config.n_parties} parties")
    prod = fastops.mul_mod(a.shares, b.shares, a.config.prime)
    return ShareBatch(a.config, prod, np.zeros((prod.shape[0], 0), dtype=np.uint64), degree_tag=deg)


# ---------------------------------------------------------------------------
# Wire encoding: length-prefixed little-endian 8-byte elements
# ---------------------------------------------------------------------------


def serialize_elems(values) -> bytes:
    arr = np.asarray(values, dtype=np.uint64).reshape(-1)
    return struct.pack("<I", arr.size) + arr.astype("<u8").tobytes()


def deserialize_elems(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    (n,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    out = np.frombuffer(buf, dtype="<u8", count=n, offset=offset).astype(np.uint64)
    return out, offset + 8 * n
