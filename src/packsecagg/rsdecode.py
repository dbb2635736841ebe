"""Reed-Solomon decoding of polynomial shares via Berlekamp-Welch.

A degree-d sharing evaluated at n distinct points is an RS codeword: with S
absent shares (erasures, simply omitted from the input) and E corrupted ones,
the polynomial is recoverable whenever S + 2E + d + 1 <= n.  The decoder finds
Q and L with Q(x_i) = y_i * L(x_i), deg Q <= d + e, deg L <= e, as a nonzero
kernel vector of the induced linear system; the codeword polynomial is their
exact quotient.  `rs_decode` runs Berlekamp-Welch alone: at the full error
budget it returns a clean codeword too, since the kernel then holds (P*L, L)
for the codeword polynomial P, and at budget zero it rejects an inconsistent
one, since the kernel is then trivial.

Batches of codewords over one point set (`rs_decode_batch`) are treated as an
interleaved code.  A party that computes wrongly corrupts its whole column, so
the dirty rows share error columns.  The batch decoder grows a set of erased
columns: it interpolates every row from points outside the set in one
vectorized pass, accepts each row within the error budget of its interpolant,
decodes the first row left on its own, and erases that row's error positions.
Each single-row decode erases at least one new wrong column, so while d + 1
columns stay unerased a batch costs at most one Berlekamp-Welch run per
distinct wrong column, however the errors are spread over the rows.  The
result equals per-row decoding exactly.  The vectorized pass is the only
interpolate-and-check step: a row reaches `rs_decode` only after a pass
rejected it, or once fewer than d + 1 columns stay unerased.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fastops
from .poly import (
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


def rs_decode(xs: list[int], ys: list[int], degree: int, p: int) -> DecodeResult:
    """Decode shares (xs, ys) of a degree <= `degree` polynomial.

    The error budget is the information-theoretic maximum
    `max_errors(n, degree)` = (n - degree - 1) // 2.  Raises DecodingError
    when no polynomial of the stated degree agrees with all but that many
    shares.
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError("xs and ys must align")
    if len(set(xs)) != n:
        raise ValueError("evaluation points must be distinct")
    if n < degree + 1:
        raise DecodingError(f"{n} shares cannot determine degree {degree}")
    e_max = max_errors(n, degree)

    xs = [x % p for x in xs]
    ys = [y % p for y in ys]

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


def rs_decode_batch(xs: list[int], ys_mat: np.ndarray, degree: int, p: int) -> list[DecodeResult]:
    """Decode many codewords sharing one evaluation-point set.

    Rows of ys_mat are independent codewords over the same xs.  The result
    equals `rs_decode` applied row by row: the same coefficients and error
    positions, and a DecodingError wherever a row raises one.

    One loop grows an erased column set E, empty at first.  Each pass
    interpolates every undecoded row from the first degree+1 points outside
    E and accepts the rows that disagree with their interpolant in at most
    `max_errors` places.  Such a row is within the error budget of a
    degree-d polynomial; since n - d exceeds twice the budget, that codeword
    is unique, so `rs_decode` would return it with the same disagreeing
    positions.  The first row left is then decoded alone, its error
    positions join E, and the pass repeats on the rest.  A row whose errors
    all lie in E is always accepted, so each single-row decode adds a new
    wrong column to E: until E leaves fewer than degree+1 points, a batch
    costs at most one single-row decode per distinct wrong column.  After
    that, the rows left are decoded one by one.
    """
    ys_mat = np.atleast_2d(fastops.as_elems(ys_mat, p))
    n = len(xs)
    if ys_mat.shape[1] != n:
        raise ValueError("share matrix width must match point count")
    if len(set(xs)) != n:
        raise ValueError("evaluation points must be distinct")
    if n < degree + 1:
        raise DecodingError(f"{n} shares cannot determine degree {degree}")
    xs = [x % p for x in xs]
    budget = max_errors(n, degree)
    out: list[DecodeResult | None] = [None] * ys_mat.shape[0]
    todo, rows = np.arange(ys_mat.shape[0]), ys_mat
    erased: set[int] = set()
    while todo.size:
        head = [i for i in range(n) if i not in erased][: degree + 1]
        if len(head) > degree:
            interp = fastops.interp_matrix(tuple(xs[i] for i in head), p)
            coeff_mat = fastops.matmul_mod(rows[:, head], interp, p)
            wrong = fastops.poly_eval_many(coeff_mat, xs, p) != rows
            ok = wrong.sum(axis=1) <= budget
            for r, coeffs, bad in zip(todo[ok], coeff_mat[ok], wrong[ok]):
                out[r] = DecodeResult(poly_trim(coeffs.tolist()), np.flatnonzero(bad).tolist())
            todo, rows = todo[~ok], rows[~ok]
        if todo.size:
            out[todo[0]] = rs_decode(xs, rows[0].tolist(), degree, p)
            erased.update(out[todo[0]].error_positions)
            todo, rows = todo[1:], rows[1:]
    return out
