"""Polynomial commitments that make packed shares verifiable.

A dealer commits to each sharing polynomial; every shareholder then checks its
own evaluation against the broadcast commitment, so a dealer cannot hand out
off-polynomial shares without being caught by the recipient.  Two
interchangeable backends sit behind one interface:

* ``coefficient`` (default): one group element per coefficient, C_t = g^{c_t},
  over the subgroup of Z_q^* whose order equals the share field, so exponent
  arithmetic and share arithmetic coincide.  Verification checks
  g^value == prod_t C_t^(x^t) up to the torsion subgroup of order
  (q-1)/p: an element outside the order-p subgroup counts only through its
  order-p part, so a receiver's verdict does not depend on its evaluation
  point.  No witness is needed.
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
group elements as uint64 limbs, ready for the wire.  In the real group, g^c
comes from a fixed-base table (`_g_table`): for each 8-bit window i of a
uint64 exponent, the 256 powers g^(b * 2^(8 i)), 2,048 Python ints derived
from the public (q, g) and cached per order.  An exponentiation is then eight
lookups and their product mod q, taken over a whole array at once.

`open_batch` gives one uint64 witness per polynomial, zeros under the
coefficient scheme, which needs none.  `verify_batch` checks the share
columns of many dealers against their batches in one call; the constant
scheme's also takes the witnesses as one (dealers, polynomials) uint64
matrix, compared mod p.  The rows of every well-formed dealer are stacked,
and each scheme's check runs once over all of them: one Horner pass in the
exponent whose quotient by the table power g^value must lie in the torsion
subgroup, a cached set of (q-1)/p elements (real group), one matrix-vector
product (exponents in the clear), or one field relation (constant scheme).
A dealer fails exactly when one of its rows does.  In the real group each receiver
converts and checks its own batches; the public table is the only object
receivers share.  The scalar `verify` methods are the reference these passes
are tested against.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fastops
from .field import is_probable_prime


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


@lru_cache(maxsize=8)
def _torsion(order: int) -> frozenset[int]:
    """The k = (q-1)/order elements x of Z_q^* with x^k == 1: the subgroup
    that coefficient verification ignores."""
    q, _ = _subgroup_modulus(order)
    k = (q - 1) // order
    for h in itertools.count(2):
        roots = frozenset(pow(h, order * i, q) for i in range(k))
        if len(roots) == k:
            return roots


# Fixed-base table for g^e (Brickell, Gordon, McCurley, Wilson, EUROCRYPT
# 1992): one row per 8-bit window of a uint64 exponent, 8 x 256 entries.
_WINDOW_BITS = 8
_WINDOWS = 64 // _WINDOW_BITS


@lru_cache(maxsize=8)
def _g_table(order: int) -> np.ndarray:
    """Read-only object array T[i, b] = g^(b * 2^(8 i)) mod q, from the public
    (q, g)."""
    q, base = _subgroup_modulus(order)
    table = np.empty((_WINDOWS, 1 << _WINDOW_BITS), dtype=object)
    for i in range(_WINDOWS):
        acc = 1
        for b in range(1 << _WINDOW_BITS):
            table[i, b] = acc
            acc = acc * base % q
        base = acc
    table.flags.writeable = False
    return table


def _pow_small(base: np.ndarray, e: int, q: int) -> np.ndarray:
    """base^e mod q for every entry of an object array of ints below q, by
    left-to-right square-and-multiply over the bits of e."""
    if e == 0:
        return np.ones_like(base)
    out = base
    for bit in bin(e)[3:]:
        out = (out * out * base if bit == "1" else out * out) % q
    return out


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

    def exp_g_array(self, e) -> np.ndarray:
        """g^e mod q for every entry of a uint64 array, as Python ints: one
        table lookup per 8-bit window and a product of the lookups, reduced
        after every second factor."""
        e = np.asarray(e, dtype="<u8")
        digits = np.ascontiguousarray(e).reshape(-1).view(np.uint8).reshape(-1, _WINDOWS)
        table = _g_table(self.order)
        q = self.modulus
        out = 1
        for i in range(0, _WINDOWS, 2):
            out = out * table[i, digits[:, i]] * table[i + 1, digits[:, i + 1]] % q
        return out.reshape(e.shape)

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


def _well_formed(batch: CommitmentBatch, values, width: int) -> bool:
    """One committed polynomial of `width` elements per share value."""
    return batch.limbs.shape[:2] == (len(values), width)


def _dealers_without_misses(misses: np.ndarray, sizes) -> np.ndarray:
    """Per dealer, whether none of its rows missed; `misses` holds the rows of
    every dealer in turn, `sizes[i]` of them for dealer i."""
    dealer = np.repeat(np.arange(len(sizes)), sizes)
    return np.bincount(dealer[misses], minlength=len(sizes)) == 0


@lru_cache(maxsize=1024)
def _point_powers(point: int, width: int, prime: int) -> np.ndarray:
    """Read-only column [x^0, ..., x^(width-1)] that evaluates coefficient
    rows at x."""
    col = fastops.powers_mod(point % prime, width, prime)[:, None]
    col.flags.writeable = False
    return col


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
        return CommitmentBatch(ints_to_limbs(g.exp_g_array(coeff_mat), (g.element_bytes + 7) // 8))

    def open_batch(self, coeff_mat: np.ndarray, point: int) -> np.ndarray:
        """No witness is needed: zeros, one per row polynomial."""
        return np.zeros(np.atleast_2d(coeff_mat).shape[0], dtype=np.uint64)

    def verify(self, comm: Commitment, point: int, value: int, witness: int | None = None) -> bool:
        g = self.group
        acc = g.identity
        # Horner in the exponent: prod C_t^(x^t) == g^value
        for c in reversed(comm.elements):
            acc = g.mul(g.exp(acc, point), c)
        if isinstance(g, PlainGroup):
            return acc == g.exp_g(value)
        # only the order-p part of acc counts: acc / g^value may lie in the
        # torsion subgroup, so every receiver reaches the same verdict
        q = g.modulus
        return pow(acc * g.exp_g(-value) % q, (q - 1) // g.order, q) == 1

    def verify_batch(self, batches, point: int, values, witnesses) -> np.ndarray:
        """Per dealer: whether each of its canonical share values at `point`
        lies on the polynomial it committed.  Takes one `CommitmentBatch` and
        one value array per dealer, and the witness matrix that the constant
        scheme needs (ignored here); a dealer whose batch has the wrong shape
        fails.  Every row of every dealer is checked exactly, in one pass
        over all of them."""
        width = self.max_degree + 1
        plain = isinstance(self.group, PlainGroup)
        ok = np.array([_well_formed(b, v, width) for b, v in zip(batches, values)], dtype=bool)
        if plain:
            # an element wider than one limb is no exponent in the clear
            for i in np.flatnonzero(ok):
                ok[i] = batches[i].exponents(self.prime) is not None
        idx = np.flatnonzero(ok)
        if not idx.size:
            return ok
        vals = np.concatenate([values[i] for i in idx])
        if plain:
            mat = np.vstack([batches[i].exponents(self.prime) for i in idx])
            evals = fastops.matmul_mod(mat, _point_powers(point, width, self.prime), self.prime)
            misses = evals[:, 0] != vals
        else:
            elems = limbs_to_ints(np.concatenate([batches[i].limbs for i in idx]))
            p = self.prime
            inv = self.group.exp_g_array(fastops.neg_mod(fastops.as_elems(vals, p), p))
            ratios = self._horner(elems, point) * inv % self.group.modulus
            torsion = _torsion(p)
            misses = np.array([r not in torsion for r in ratios.tolist()], dtype=bool)
        ok[idx] = _dealers_without_misses(misses, [len(values[i]) for i in idx])
        return ok

    def _horner(self, elems: np.ndarray, point: int) -> np.ndarray:
        """prod_t C_t^(x^t) mod q for every row of a (rows, d+1) object array
        of group elements: `verify`'s Horner loop, run on all rows at once."""
        q = self.group.modulus
        x = point % self.group.order
        acc = elems[:, -1] % q
        for t in range(elems.shape[1] - 2, -1, -1):
            acc = _pow_small(acc, x, q) * elems[:, t] % q
        return acc


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

    def __init__(self, prime: int, max_degree: int, setup_seed: int = 0):
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

    def open_batch(self, coeff_mat: np.ndarray, point: int) -> np.ndarray:
        """Witnesses, one uint64 per row polynomial, at one evaluation point,
        via synthetic division by (X - point), vectorized across rows."""
        coeff_mat = np.atleast_2d(fastops.as_elems(coeff_mat, self.prime))
        m, w = coeff_mat.shape
        p = self.prime
        quot = np.zeros((m, max(w - 1, 1)), dtype=np.uint64)
        carry = coeff_mat[:, w - 1].copy()
        for j in range(w - 2, -1, -1):
            quot[:, j] = carry
            carry = fastops.add_mod(coeff_mat[:, j], fastops.mul_mod(carry, np.uint64(point % p), p), p)
        vals = fastops.matmul_mod(quot, self._powers[: quot.shape[1], None], self.prime)
        return vals[:, 0]

    def verify(self, comm: Commitment, point: int, value: int, witness: int) -> bool:
        p = self.prime
        # e(C / g^v, g) == e(W, g^tau / g^point): in the trapdoor stand-in the
        # pairing multiplies exponents, so both sides are plain field values.
        lhs = (comm.elements[0] - value) % p
        rhs = int(witness) * ((int(self._tau_elem) - point) % p) % p
        return lhs == rhs

    def verify_batch(self, batches, point: int, values, witnesses) -> np.ndarray:
        """Per dealer: whether each of its share values at `point` opens its
        commitment with the witness in the same place of `witnesses`, a
        (dealers, polynomials) uint64 matrix compared mod p (other arguments
        as in `CoefficientScheme.verify_batch`).  `verify`'s relation, checked
        on the stacked rows of every dealer at once."""
        ok = np.array([_well_formed(b, v, 1) for b, v in zip(batches, values)], dtype=bool)
        idx = np.flatnonzero(ok)
        if not idx.size:
            return ok
        p = self.prime
        comms = limbs_to_ints(np.concatenate([batches[i].limbs[:, 0] for i in idx])) % p
        wits = fastops.as_elems(np.concatenate([witnesses[i] for i in idx]), p)
        vals = fastops.as_elems(np.concatenate([values[i] for i in idx]), p)
        lhs = fastops.sub_mod(comms.astype(np.uint64), vals, p)
        rhs = fastops.mul_mod(wits, np.uint64((int(self._tau_elem) - point) % p), p)
        ok[idx] = _dealers_without_misses(lhs != rhs, [len(values[i]) for i in idx])
        return ok


def make_scheme(kind: str, prime: int, max_degree: int, fast: bool = False, setup_seed: int = 0):
    if kind == "coefficient":
        return CoefficientScheme(prime, max_degree, fast=fast)
    if kind == "constant":
        return ConstantScheme(prime, max_degree, setup_seed=setup_seed)
    raise CommitmentError(f"unknown commitment scheme {kind!r}")
