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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fastops
from .field import is_probable_prime
from .poly import lagrange_weights_at, poly_from_roots, poly_mul


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

    # -- cached dealing matrices ------------------------------------------

    @cached_property
    def _basis_eval(self) -> np.ndarray:
        """(pack, N): L_i(alpha_j)."""
        p = self.prime
        rows = []
        for i in self.secret_points:
            others = [e for e in self.secret_points if e != i]
            num = poly_from_roots(list(others), p)
            den = 1
            for o in others:
                den = den * (i - o) % p
            inv = pow(den, p - 2, p)
            coeffs = [c * inv % p for c in num]
            rows.append([sum(c * pow(a, k, p) for k, c in enumerate(coeffs)) % p for a in self.eval_points])
        return np.array(rows, dtype=np.uint64)

    @cached_property
    def _basis_coeffs(self) -> np.ndarray:
        """(pack, degree+1): coefficients of L_i, zero padded."""
        p = self.prime
        rows = []
        for i in self.secret_points:
            others = [e for e in self.secret_points if e != i]
            num = poly_from_roots(list(others), p)
            den = 1
            for o in others:
                den = den * (i - o) % p
            inv = pow(den, p - 2, p)
            coeffs = [c * inv % p for c in num] + [0] * (self.degree + 1 - self.pack)
            rows.append(coeffs)
        return np.array(rows, dtype=np.uint64)

    @cached_property
    def _vanishing_eval(self) -> np.ndarray:
        """(N,): Z(alpha_j) with Z = prod (x - e_i)."""
        p = self.prime
        z = poly_from_roots(list(self.secret_points), p)
        return np.array(
            [sum(c * pow(a, k, p) for k, c in enumerate(z)) % p for a in self.eval_points],
            dtype=np.uint64,
        )

    @cached_property
    def _vanishing_conv(self) -> np.ndarray:
        """(degree-pack+1, degree+1): row r = coefficients of x^r * Z(x)."""
        p = self.prime
        z = poly_from_roots(list(self.secret_points), p)
        n_rows = self.degree - self.pack + 1
        mat = np.zeros((n_rows, self.degree + 1), dtype=np.uint64)
        for r in range(n_rows):
            shifted = [0] * r + z
            mat[r, : len(shifted)] = shifted
        return mat

    @cached_property
    def _rand_eval(self) -> np.ndarray:
        """(degree-pack+1, N): alpha_j^r * Z(alpha_j), the random part's map."""
        powers = fastops.vandermonde(self.eval_points, self.degree - self.pack + 1, self.prime)
        return fastops.mul_mod(powers, self._vanishing_eval[None, :], self.prime)

    @cached_property
    def _deal_matrix(self) -> np.ndarray:
        """(degree+1, N+degree+1): maps a row [secrets | q] to [shares | coefficients]."""
        return np.block(
            [[self._basis_eval, self._basis_coeffs], [self._rand_eval, self._vanishing_conv]]
        )


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
    xs = [config.eval_point(j) for j in parties]
    wmat = np.array(
        [lagrange_weights_at(xs, e, p) for e in config.secret_points], dtype=np.uint64
    ).T  # (n_points, pack)
    vals = fastops.as_elems(np.atleast_2d(values), p)
    if vals.shape[1] != len(parties):
        raise ShareError("one value per shareholder required")
    out = fastops.matmul_mod(vals, wmat, p)
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
