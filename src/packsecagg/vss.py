"""Polynomial commitments that make packed shares verifiable.

A dealer commits to each sharing polynomial; every shareholder then checks its
own evaluation against the broadcast commitment, so a dealer cannot hand out
off-polynomial shares without being caught by the recipient.  Two
interchangeable backends sit behind one interface:

* ``coefficient`` (default): one group element per coefficient, C_t = g^{c_t},
  over the subgroup of Z_q^* whose order equals the share field, so exponent
  arithmetic and share arithmetic coincide.  Verification checks
  g^value == prod_t C_t^(x^t); no witness is needed.
* ``constant``: a single-element commitment g^{phi(tau)} from a trusted power
  setup, with a per-share witness g^{psi(tau)} for the quotient
  psi = (phi - phi(x)) / (X - x), checked through the bilinear relation
  e(C / g^v, g) == e(W, g^tau / g^x).  The pairing group here is a trapdoor
  stand-in (elements are exponents, the pairing multiplies them): the
  completeness/soundness algebra and element counts are exactly the real
  scheme's, and it hides nothing.

Neither backend hides dealt values from share receivers.  For the share prime
2^61-1 the coefficient group's modulus is q = 52*(2^61-1) + 1, a 67-bit prime
(`_subgroup_modulus`), and its subgroup order is the share prime itself, so
Pollard rho recovers a committed coefficient in about 2^31 group operations.
The fast-simulation mode swaps the coefficient backend's group for exponents
in the clear, turning verification into plain polynomial evaluation with the
same contract.

Both backends commit a whole batch at once and return a `CommitmentBatch`: the
group elements as uint64 limbs, ready for the wire.  `verify_batch` checks the
share columns of many dealers against their batches in one call; Python ints
are built only for group arithmetic.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fastops
from .field import f_inv, is_probable_prime


class CommitmentError(ValueError):
    """Raised for malformed commitments or setup misuse."""


# ---------------------------------------------------------------------------
# Groups of order exactly the share field prime
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _subgroup_modulus(order: int) -> tuple[int, int]:
    """Smallest q = 2k*order + 1 prime, and a generator of the order-`order`
    subgroup of Z_q^*."""
    k = 1
    while True:
        q = 2 * k * order + 1
        if is_probable_prime(q):
            for h in range(2, 100):
                g = pow(h, 2 * k, q)
                if g != 1:
                    return q, g
        k += 1


@dataclass(frozen=True)
class ModGroup:
    """Prime-order multiplicative subgroup with order = share field prime."""

    order: int

    @property
    def modulus(self) -> int:
        return _subgroup_modulus(self.order)[0]

    @property
    def generator(self) -> int:
        return _subgroup_modulus(self.order)[1]

    @property
    def identity(self) -> int:
        return 1

    def exp_g(self, e: int) -> int:
        return pow(self.generator, e % self.order, self.modulus)

    def exp(self, base: int, e: int) -> int:
        return pow(base, e % self.order, self.modulus)

    def mul(self, a: int, b: int) -> int:
        return a * b % self.modulus

    @property
    def element_bytes(self) -> int:
        return (self.modulus.bit_length() + 7) // 8


@dataclass(frozen=True)
class PlainGroup:
    """Exponents in the clear: g^x is represented by x itself.

    Fast-simulation stand-in with the same algebraic contract (verification
    still fails on any wrong share) and none of the cost.
    """

    order: int

    @property
    def identity(self) -> int:
        return 0

    def exp_g(self, e: int) -> int:
        return e % self.order

    def exp(self, base: int, e: int) -> int:
        return base * e % self.order

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.order


# ---------------------------------------------------------------------------
# Commitment containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Commitment:
    """Broadcast commitment to one polynomial (1 element for the constant
    scheme, degree+1 elements for the coefficient scheme)."""

    elements: tuple[int, ...]


class CommitmentBatch(Sequence):
    """Commitments to a batch of polynomials as little-endian uint64 limbs of
    shape (polynomials, elements per commitment, limbs per element), the form
    that goes on the wire.  Indexing builds the Python-int `Commitment` that
    group arithmetic needs."""

    def __init__(self, limbs: np.ndarray):
        self.limbs = limbs
        self._exponents: dict[int, np.ndarray | None] = {}

    def __len__(self) -> int:
        return self.limbs.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return CommitmentBatch(self.limbs[i])
        return Commitment(tuple(limbs_to_ints(self.limbs[i]).tolist()))

    def exponents(self, prime: int) -> np.ndarray | None:
        """The elements read as exponents in the clear, reduced mod `prime`:
        a (polynomials, elements) uint64 matrix, or None if an element is
        wider than one limb.  Computed once per batch, so every receiver of
        one broadcast shares the work."""
        if prime not in self._exponents:
            wide = self.limbs.shape[2] > 1 and self.limbs[:, :, 1:].any()
            self._exponents[prime] = (
                None if wide else np.mod(self.limbs[:, :, 0], np.uint64(prime))
            )
        return self._exponents[prime]


def limbs_to_ints(limbs: np.ndarray) -> np.ndarray:
    """Python-int object array of the little-endian uint64 limbs on the last
    axis; all-zero high limbs are skipped."""
    n = limbs.shape[-1]
    while n > 1 and not limbs[..., n - 1].any():
        n -= 1
    out = limbs[..., n - 1].astype(object)
    for i in range(n - 2, -1, -1):
        out = (out << 64) | limbs[..., i].astype(object)
    return out


def ints_to_limbs(values: np.ndarray, n_limbs: int) -> np.ndarray:
    """Little-endian uint64 limbs, on a new last axis, of an object array of
    non-negative Python ints below 2^(64 n_limbs)."""
    out = np.empty(values.shape + (n_limbs,), dtype=np.uint64)
    for i in range(n_limbs):
        out[..., i] = (values >> (64 * i)) & ((1 << 64) - 1)
    return out


@dataclass(frozen=True)
class Witness:
    """Per-share opening data; None for schemes that need none."""

    element: int | None = None


def _well_formed(batch: CommitmentBatch, values, witnesses, width: int) -> bool:
    """One committed polynomial of `width` elements, and one witness, per
    share value."""
    n = len(values)
    return batch.limbs.shape[:2] == (n, width) and len(witnesses) == n


def _verify_each(scheme, width: int, batches, point: int, values, witnesses) -> np.ndarray:
    """`verify_batch` by one `verify` per polynomial; each dealer's batch is
    converted to Python ints in one pass."""
    ok = np.zeros(len(batches), dtype=bool)
    for i, (batch, vals, wits) in enumerate(zip(batches, values, witnesses)):
        if _well_formed(batch, vals, wits, width):
            rows = limbs_to_ints(batch.limbs).tolist()
            ok[i] = all(
                scheme.verify(Commitment(tuple(row)), point, int(v), w)
                for row, v, w in zip(rows, vals, wits)
            )
    return ok


# ---------------------------------------------------------------------------
# Coefficient backend (Feldman-style)
# ---------------------------------------------------------------------------


class CoefficientScheme:
    """Per-coefficient commitments; verification is evaluation in the exponent."""

    name = "coefficient"
    needs_witness = False

    def __init__(self, prime: int, max_degree: int, fast: bool = False):
        self.prime = prime
        self.max_degree = max_degree
        self.group = PlainGroup(prime) if fast else ModGroup(prime)

    def commit_batch(self, coeff_mat: np.ndarray) -> CommitmentBatch:
        coeff_mat = np.atleast_2d(fastops.as_elems(coeff_mat, self.prime))
        if coeff_mat.shape[1] > self.max_degree + 1:
            raise CommitmentError("polynomial exceeds setup degree")
        g = self.group
        if isinstance(g, PlainGroup):
            return CommitmentBatch(coeff_mat[:, :, None])
        elems = np.array(
            [[g.exp_g(c) for c in row] for row in coeff_mat.tolist()], dtype=object
        ).reshape(coeff_mat.shape)
        return CommitmentBatch(ints_to_limbs(elems, (g.element_bytes + 7) // 8))

    def open_batch(self, coeff_mat: np.ndarray, point: int) -> list[Witness]:
        return [Witness()] * np.atleast_2d(coeff_mat).shape[0]

    def verify(self, comm: Commitment, point: int, value: int, witness: Witness | None = None) -> bool:
        g = self.group
        acc = g.identity
        # Horner in the exponent: prod C_t^(x^t) == g^value
        for c in reversed(comm.elements):
            acc = g.mul(g.exp(acc, point), c)
        return acc == g.exp_g(value)

    def verify_batch(self, batches, point: int, values, witnesses) -> np.ndarray:
        """Per dealer: whether each of its canonical share values at `point`
        lies on the polynomial it committed.  Takes one `CommitmentBatch`, one
        value array and one witness list per dealer; a dealer whose batch has
        the wrong shape fails."""
        width = self.max_degree + 1
        if not isinstance(self.group, PlainGroup):
            return _verify_each(self, width, batches, point, values, witnesses)
        mats = [
            b.exponents(self.prime) if _well_formed(b, v, w, width) else None
            for b, v, w in zip(batches, values, witnesses)
        ]
        ok = np.array([m is not None for m in mats], dtype=bool)
        idx = np.flatnonzero(ok)
        if idx.size:
            evals = fastops.poly_eval_many(np.vstack([mats[i] for i in idx]), [point], self.prime)
            misses = evals[:, 0] != np.concatenate([values[i] for i in idx])
            dealer = np.repeat(np.arange(idx.size), [len(values[i]) for i in idx])
            ok[idx] = np.bincount(dealer[misses], minlength=idx.size) == 0
        return ok


# ---------------------------------------------------------------------------
# Constant-size backend (trusted power setup + quotient witnesses)
# ---------------------------------------------------------------------------


class ConstantScheme:
    """Single-element commitments with per-share quotient witnesses.

    setup() plays the trusted-setup ceremony once, centrally: powers
    g^(tau^i) are published and tau is discarded.  Elements live in a trapdoor
    pairing stand-in (see module docstring).
    """

    name = "constant"
    needs_witness = True

    def __init__(self, prime: int, max_degree: int, setup_seed: int = 0, fast: bool = False):
        self.prime = prime
        self.max_degree = max_degree
        rng = np.random.default_rng(np.random.SeedSequence([0x5E70, setup_seed]))
        tau = int(rng.integers(1, prime, dtype=np.uint64))
        self._powers = fastops.powers_mod(tau, max_degree + 1, prime)
        self._tau_elem = self._powers[1]  # g^tau as an element

    def commit_batch(self, coeff_mat: np.ndarray) -> CommitmentBatch:
        coeff_mat = np.atleast_2d(fastops.as_elems(coeff_mat, self.prime))
        if coeff_mat.shape[1] > self.max_degree + 1:
            raise CommitmentError("polynomial exceeds setup degree")
        vals = fastops.matmul_mod(coeff_mat, self._powers[: coeff_mat.shape[1], None], self.prime)
        return CommitmentBatch(vals[:, :, None])

    def open_batch(self, coeff_mat: np.ndarray, point: int) -> list[Witness]:
        """Witnesses for every row polynomial at one evaluation point, via
        synthetic division by (X - point), vectorized across rows."""
        coeff_mat = np.atleast_2d(fastops.as_elems(coeff_mat, self.prime))
        m, w = coeff_mat.shape
        p = self.prime
        quot = np.zeros((m, max(w - 1, 1)), dtype=np.uint64)
        carry = coeff_mat[:, w - 1].copy()
        for j in range(w - 2, -1, -1):
            quot[:, j] = carry
            carry = fastops.add_mod(coeff_mat[:, j], fastops.mul_mod(carry, np.uint64(point % p), p), p)
        vals = fastops.matmul_mod(quot, self._powers[: quot.shape[1], None], self.prime)
        return [Witness(int(v)) for v in vals[:, 0]]

    def verify(self, comm: Commitment, point: int, value: int, witness: Witness) -> bool:
        if witness is None or witness.element is None:
            return False
        p = self.prime
        # e(C / g^v, g) == e(W, g^tau / g^point): in the trapdoor stand-in the
        # pairing multiplies exponents, so both sides are plain field values.
        lhs = (comm.elements[0] - value) % p
        rhs = witness.element * ((int(self._tau_elem) - point) % p) % p
        return lhs == rhs

    def verify_batch(self, batches, point: int, values, witnesses) -> np.ndarray:
        """Per dealer: whether each of its share values at `point` opens its
        commitment with the matching witness (arguments as in
        `CoefficientScheme.verify_batch`)."""
        return _verify_each(self, 1, batches, point, values, witnesses)


def make_scheme(kind: str, prime: int, max_degree: int, fast: bool = False, setup_seed: int = 0):
    if kind == "coefficient":
        return CoefficientScheme(prime, max_degree, fast=fast)
    if kind == "constant":
        return ConstantScheme(prime, max_degree, setup_seed=setup_seed, fast=fast)
    raise CommitmentError(f"unknown commitment scheme {kind!r}")
