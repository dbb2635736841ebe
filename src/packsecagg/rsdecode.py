"""Reed-Solomon decoding of polynomial shares via Berlekamp-Welch.

A degree-d sharing evaluated at n distinct points is an RS codeword: with S
absent shares (erasures, simply omitted from the input) and E corrupted ones,
the polynomial is recoverable whenever S + 2E + d + 1 <= n.  The decoder finds
Q and L with Q(x_i) = y_i * L(x_i), deg Q <= d + e, deg L <= e, as a nonzero
kernel vector of the induced linear system; the codeword polynomial is their
exact quotient.  Honest inputs take a fast interpolate-and-verify path.

Batches of codewords over one point set (`rs_decode_batch`) are treated as an
interleaved code.  A party that computes wrongly corrupts its whole column, so
the dirty rows share one error support.  One Berlekamp-Welch run on a random
linear combination of the dirty rows locates that support: the union of the
rows' supports, unless the random coefficients make an error cancel, which
happens at each position with probability about 1/p.  The located positions
are then erased, and every dirty row is interpolated from kept points and
verified in one vectorized pass.  A row the pass cannot explain is decoded on its own, so the
result never depends on the random coefficients: see `rs_decode_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fastops
from .poly import (
    lagrange_basis,
    lagrange_coeffs,
    nullspace_vector,
    poly_deg,
    poly_divmod,
    poly_eval,
    poly_trim,
)


class DecodingError(ValueError):
    """No polynomial within the error budget explains the shares."""


@dataclass
class DecodeResult:
    """coeffs: recovered polynomial (low degree first, trimmed).
    error_positions: indices into the input arrays whose values disagree."""

    coeffs: list[int]
    error_positions: list[int]


def max_errors(n_points: int, degree: int) -> int:
    """Largest correctable error count for n present shares."""
    return max(0, (n_points - degree - 1) // 2)


def rs_decode(
    xs: list[int],
    ys: list[int],
    degree: int,
    p: int,
    error_budget: int | None = None,
) -> DecodeResult:
    """Decode shares (xs, ys) of a degree <= `degree` polynomial.

    error_budget defaults to the information-theoretic maximum
    (n - degree - 1) // 2.  Raises DecodingError when no polynomial of the
    stated degree agrees with all but error_budget shares.
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError("xs and ys must align")
    if len(set(xs)) != n:
        raise ValueError("evaluation points must be distinct")
    if n < degree + 1:
        raise DecodingError(f"{n} shares cannot determine degree {degree}")
    e_max = max_errors(n, degree) if error_budget is None else error_budget
    if e_max < 0 or degree + 2 * e_max + 1 > n:
        raise DecodingError(f"error budget {e_max} infeasible for n={n}, degree={degree}")

    xs = [x % p for x in xs]
    ys = [y % p for y in ys]

    # Fast path: interpolate the first degree+1 shares and verify the rest.
    probe = lagrange_coeffs(xs[: degree + 1], ys[: degree + 1], p)
    if poly_deg(probe) <= degree:
        bad = [i for i in range(n) if poly_eval(probe, xs[i], p) != ys[i]]
        if not bad:
            return DecodeResult(probe, [])
    if e_max == 0:
        raise DecodingError("shares are inconsistent and no error budget remains")

    # Berlekamp-Welch at the full budget: unknowns are Q (deg <= degree+e)
    # and L (deg <= e); each share contributes Q(x) - y L(x) = 0.
    e = e_max
    nq = degree + e + 1
    rows = []
    for x, y in zip(xs, ys):
        xp = 1
        row = []
        for _ in range(nq):
            row.append(xp)
            xp = xp * x % p
        xp = 1
        for _ in range(e + 1):
            row.append((-y * xp) % p)
            xp = xp * x % p
        rows.append(row)
    sol = nullspace_vector(rows, p)
    if sol is None:
        raise DecodingError("no candidate polynomial within the error budget")
    q_coeffs = poly_trim(sol[:nq])
    l_coeffs = poly_trim(sol[nq:])
    if poly_deg(l_coeffs) < 0:
        raise DecodingError("degenerate error locator")
    quot, rem = poly_divmod(q_coeffs, l_coeffs, p)
    if poly_deg(rem) >= 0 or poly_deg(quot) > degree:
        raise DecodingError("shares exceed the correctable error budget")
    bad = [i for i in range(n) if poly_eval(quot, xs[i], p) != ys[i]]
    if len(bad) > e_max:
        raise DecodingError(f"{len(bad)} disagreeing shares exceed budget {e_max}")
    return DecodeResult(quot if quot else [0], bad)


@lru_cache(maxsize=64)
def _interp_matrix(head: tuple[int, ...], p: int) -> np.ndarray:
    """Maps values at the `head` points to coefficients: (values @ M)[r] is
    the x^r coefficient of their interpolant."""
    return np.array(lagrange_basis(list(head), p), dtype=np.uint64)


def rs_decode_batch(
    xs: list[int],
    ys_mat: np.ndarray,
    degree: int,
    p: int,
    error_budget: int | None = None,
) -> list[DecodeResult]:
    """Decode many codewords sharing one evaluation-point set.

    Rows of ys_mat are independent codewords over the same xs.  The result
    equals `rs_decode` applied row by row: the same coefficients and error
    positions, and a DecodingError wherever a row raises one.

    Clean rows are recovered by one batched interpolate-and-verify pass.  The
    dirty rows then go through `_decode_located`: a single decode of a random
    combination of them locates the error positions E, and each dirty row is
    re-interpolated with E erased.  A row that agrees with its interpolant on
    every point outside E is within distance |E| <= error budget of a degree-d
    polynomial; that codeword is unique, so per-row Berlekamp-Welch would
    return it with the same disagreeing positions.  Rows the pass cannot
    explain, or all dirty rows if the combined decode raises, fall back to the
    per-row decoder.
    """
    ys_mat = np.atleast_2d(fastops.as_elems(ys_mat, p))
    n = len(xs)
    if ys_mat.shape[1] != n:
        raise ValueError("share matrix width must match point count")
    if n < degree + 1:
        raise DecodingError(f"{n} shares cannot determine degree {degree}")
    xs = [x % p for x in xs]
    interp = _interp_matrix(tuple(xs[: degree + 1]), p)
    coeff_mat = fastops.matmul_mod(ys_mat[:, : degree + 1], interp, p)
    evals = fastops.poly_eval_many(coeff_mat, xs, p)
    clean = (evals == ys_mat).all(axis=1)
    out = [
        DecodeResult(poly_trim([int(c) for c in row]), []) if ok else None
        for row, ok in zip(coeff_mat, clean)
    ]
    dirty = np.flatnonzero(~clean)
    if dirty.size:
        for r, res in zip(dirty, _decode_located(xs, ys_mat[dirty], degree, p, error_budget)):
            if res is None:
                res = rs_decode(xs, [int(v) for v in ys_mat[r]], degree, p, error_budget)
            out[r] = res
    return out


def _mixing_coeffs(n: int, p: int) -> np.ndarray:
    """Nonzero combination coefficients from unseeded OS entropy."""
    return np.random.default_rng().integers(1, p, size=n, dtype=np.uint64)


def _decode_located(
    xs: list[int], ys_mat: np.ndarray, degree: int, p: int, error_budget: int | None
) -> list[DecodeResult | None]:
    """Decode dirty rows with their errors located once for the whole batch.

    Returns one entry per row: its DecodeResult, or None where the row
    disagrees outside the located positions; all None when the combined row
    itself cannot be decoded.
    """
    mix = _mixing_coeffs(ys_mat.shape[0], p)
    combined = fastops.matmul_mod(mix[None, :], ys_mat, p)[0]
    try:
        erased = set(rs_decode(xs, combined.tolist(), degree, p, error_budget).error_positions)
    except DecodingError:
        return [None] * ys_mat.shape[0]
    kept = [i for i in range(len(xs)) if i not in erased]
    head = kept[: degree + 1]
    interp = _interp_matrix(tuple(xs[i] for i in head), p)
    coeff_mat = fastops.matmul_mod(ys_mat[:, head], interp, p)
    wrong = fastops.poly_eval_many(coeff_mat, xs, p) != ys_mat
    explained = ~wrong[:, kept].any(axis=1)
    return [
        DecodeResult(poly_trim(coeffs.tolist()), np.flatnonzero(bad).tolist()) if ok else None
        for coeffs, bad, ok in zip(coeff_mat, wrong, explained)
    ]
