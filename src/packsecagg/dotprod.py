"""Secure dot products between packed-shared vectors, with degree reduction.

A length-M vector is split into l interleaved groups of width G = ceil(M/l)
and dealt as G packed polynomials: polynomial k carries, at secret slot m, the
element at position m*G + k.  With this layout, when every holder multiplies
its share column of a user's vector against its share column of a reference
vector and sums over the G polynomials, the results lie on a degree-2d
polynomial whose value at secret slot m is exactly the dot product of group m.
Summing the slots gives the full dot product; using the user's own column
twice gives its squared norm.

The degree-2d products are brought back to degree d in one round: each holder
re-shares its per-user partials (packed consecutively, p users per
polynomial), and every holder then applies a public weight vector to the
re-shares it received.  The weights are the row sums of the extraction matrix
of the surviving holders' evaluation points (`fastops.extraction_matrix`, the
Lagrange basis over those points evaluated at the l secret slots), so the
weighted combination is again a degree-d packed sharing, now of the complete
per-user dot products.  A matrix form of the same extraction (shifted
Vandermonde inverse, first column) is provided as a cross-check.

The final degree-d share vectors are Reed-Solomon codewords across holders;
the recovery step decodes them with error correction, so holders that turned
in wrong values are both survivable and identifiable.
"""

from __future__ import annotations

import numpy as np

from . import fastops
from .poly import matinv_mod
from .rsdecode import DecodingError, rs_decode_batch
from .sharing import ShareBatch, SharingConfig, share_batch


# ---------------------------------------------------------------------------
# Packing layouts
# ---------------------------------------------------------------------------


def group_width(length: int, pack: int) -> int:
    return -(-length // pack)


def pack_strided(vec: np.ndarray, pack: int) -> np.ndarray:
    """(G, pack) secret matrix: row k, slot m holds vec[m*G + k], zero padded."""
    vec = np.asarray(vec, dtype=np.uint64)
    g = group_width(len(vec), pack)
    padded = np.zeros(g * pack, dtype=np.uint64)
    padded[: len(vec)] = vec
    return padded.reshape(pack, g).T.copy()


def unpack_strided(mat: np.ndarray, length: int) -> np.ndarray:
    return np.asarray(mat, dtype=np.uint64).T.reshape(-1)[:length].copy()


def pack_consecutive(vec: np.ndarray, pack: int) -> np.ndarray:
    """(ceil(n/pack), pack) secret matrix: row k holds vec[k*pack : (k+1)*pack]."""
    vec = np.asarray(vec, dtype=np.uint64)
    rows = group_width(len(vec), pack)
    padded = np.zeros(rows * pack, dtype=np.uint64)
    padded[: len(vec)] = vec
    return padded.reshape(rows, pack)


def unpack_consecutive(mat: np.ndarray, length: int) -> np.ndarray:
    return np.asarray(mat, dtype=np.uint64).reshape(-1)[:length].copy()


# ---------------------------------------------------------------------------
# Holder-side computation
# ---------------------------------------------------------------------------


def partial_products(columns: np.ndarray, root_column: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-user share products at one holder.

    columns: (n_users, G) share columns, root_column: (G,).  Returns the
    dot-product partials against the root and the squared-norm partials, both
    shares of degree-2d packed polynomials.
    """
    columns = np.atleast_2d(fastops.as_elems(columns, p))
    root_column = fastops.as_elems(root_column, p)
    cs = fastops.sum_mod(fastops.mul_mod(columns, root_column[None, :], p), p, axis=1)
    nr = fastops.sum_mod(fastops.mul_mod(columns, columns, p), p, axis=1)
    return cs, nr


def reduction_weights(grad_cfg: SharingConfig, senders: tuple[int, ...]) -> np.ndarray:
    """Public combination weights, indexed like `senders` (party ids): the
    row sums of the senders' extraction matrix at the secret slots.

    Valid whenever the senders can interpolate degree-2d products, i.e.
    len(senders) >= 2*degree + 1.
    """
    if len(senders) < 2 * grad_cfg.degree + 1:
        raise DecodingError(
            f"{len(senders)} senders cannot interpolate degree {2 * grad_cfg.degree}"
        )
    points = tuple(grad_cfg.eval_point(s) for s in senders)
    extract = fastops.extraction_matrix(points, grad_cfg.secret_points, grad_cfg.prime)
    return fastops.sum_mod(extract, grad_cfg.prime, axis=1)


def reshare_partials(
    reshare_cfg: SharingConfig, columns: np.ndarray, root_column: np.ndarray, rng: np.random.Generator
) -> ShareBatch:
    """One holder's re-share of its per-user partials: the dot-product
    partials, then the squared-norm partials, each packed consecutively, dealt
    in one batch."""
    cs, nr = partial_products(columns, root_column, reshare_cfg.prime)
    secrets = np.vstack([pack_consecutive(cs, reshare_cfg.pack), pack_consecutive(nr, reshare_cfg.pack)])
    return share_batch(reshare_cfg, secrets, rng)


def combine_reshares(weights: np.ndarray, reshare_rows: np.ndarray, p: int) -> np.ndarray:
    """weights: (n_senders,), reshare_rows: (n_senders, n_polys) of one
    holder's received re-share values; returns the holder's final degree-d
    share of every per-user total."""
    return fastops.matmul_mod(weights[None, :], np.atleast_2d(reshare_rows), p)[0]


# ---------------------------------------------------------------------------
# Matrix form of the extraction (cross-check / reference)
# ---------------------------------------------------------------------------


def shifted_vandermonde(points: list[int], e: int, p: int) -> list[list[int]]:
    """V[r][t] = (points[t] - e)^r; interpolation in the basis (x - e)^r."""
    n = len(points)
    out = []
    row = [1] * n
    shifted = [(x - e) % p for x in points]
    for _ in range(n):
        out.append(list(row))
        row = [r * s % p for r, s in zip(row, shifted)]
    return out


def extraction_weights_matrix(points: list[int], e: int, p: int) -> list[int]:
    """First column of the shifted Vandermonde inverse: applying it to share
    values yields the constant term of the shifted expansion, i.e. the value
    at e.  Agrees with the column of `fastops.extraction_matrix` at e."""
    inv = matinv_mod(shifted_vandermonde(points, e, p), p)
    return [inv[t][0] for t in range(len(points))]


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def recover_packed_values(
    cfg: SharingConfig,
    parties: list[int],
    share_matrix: np.ndarray,
    n_values: int,
) -> tuple[np.ndarray, list[int]]:
    """Decode consecutive-packed degree-d sharings back to their values.

    share_matrix: (n_parties_present, n_polys); party `parties[i]` contributed
    row i, one share per polynomial.  Returns (values (n_values,) field
    elements, offending party ids whose shares disagreed with the decoded
    codewords).
    """
    share_matrix = np.atleast_2d(share_matrix)
    xs = [cfg.eval_point(pid) for pid in parties]
    results = rs_decode_batch(xs, share_matrix.T, cfg.degree, cfg.prime)
    offenders: set[int] = set()
    coeff_mat = np.zeros((len(results), cfg.degree + 1), dtype=np.uint64)
    for k, res in enumerate(results):
        coeff_mat[k, : len(res.coeffs)] = res.coeffs
        offenders.update(parties[i] for i in res.error_positions)
    secrets = fastops.poly_eval_many(coeff_mat, list(cfg.secret_points), cfg.prime)
    return unpack_consecutive(secrets, n_values), sorted(offenders)


def dots_and_norms(values: np.ndarray, n_users: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed per-user dot products and squared norms from the decoded values
    of the re-shares `reshare_partials` dealt: the dot products fill the
    first half, the norms the second, each padded to whole groups."""
    half = np.asarray(values).reshape(2, -1)
    return (
        fastops.decode_signed_arr(half[0][:n_users], p),
        fastops.decode_signed_arr(half[1][:n_users], p),
    )


# ---------------------------------------------------------------------------
# End-to-end pipeline without transport (oracle target and protocol core)
# ---------------------------------------------------------------------------


def share_vector(cfg: SharingConfig, vec_signed: np.ndarray, rng: np.random.Generator) -> ShareBatch:
    """Deal a signed integer vector as G strided packed polynomials."""
    elems = fastops.encode_signed_arr(vec_signed, cfg.prime)
    return share_batch(cfg, pack_strided(elems, cfg.pack), rng)


def pipeline_dot_products(
    grad_cfg: SharingConfig,
    reshare_cfg: SharingConfig,
    user_vecs: np.ndarray,
    root_vec: np.ndarray,
    rng: np.random.Generator,
    final_senders: list[int] | None = None,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Run the whole share/multiply/re-share/reduce/decode pipeline in one
    process: every party is simulated honestly, no transport or crypto.

    user_vecs: (n_users, M) signed ints; root_vec: (M,) signed ints.
    final_senders: parties that deliver final shares (default: all); the rest
    are treated as dropouts at the last step.
    Returns (dots, norms) as signed ints and the offender list (empty here).
    """
    p = grad_cfg.prime
    n_parties = grad_cfg.n_parties
    n_users, m = np.atleast_2d(user_vecs).shape
    user_vecs = np.atleast_2d(user_vecs)

    batches = [share_vector(grad_cfg, v, rng) for v in user_vecs]
    root_batch = share_vector(grad_cfg, root_vec, rng)

    all_parties = list(range(1, n_parties + 1))
    senders = tuple(all_parties)
    weights = reduction_weights(grad_cfg, senders)

    # each party re-shares its partials: (2*n_groups, N) share matrix per sender
    n_groups = group_width(n_users, reshare_cfg.pack)
    reshare_shares = []
    for i in all_parties:
        cols = np.stack([b.column(i) for b in batches])
        reshare_shares.append(reshare_partials(reshare_cfg, cols, root_batch.column(i), rng).shares)

    # each receiving party combines the re-shares with the public weights
    recipients = final_senders if final_senders is not None else all_parties
    finals = np.zeros((len(recipients), 2 * n_groups), dtype=np.uint64)
    for row, i in enumerate(recipients):
        received = np.stack([reshare_shares[s - 1][:, i - 1] for s in senders])
        finals[row] = combine_reshares(weights, received, p)

    values, offenders = recover_packed_values(
        reshare_cfg, recipients, finals, 2 * n_groups * reshare_cfg.pack
    )
    dots, norms = dots_and_norms(values, n_users, p)
    return dots, norms, offenders
