"""Packed Shamir sharing: roundtrip, linearity, products, secrecy shape."""

import itertools
from collections import Counter

import numpy as np
import pytest

from packsecagg import fastops
from packsecagg.field import MERSENNE61
from packsecagg.poly import lagrange_coeffs, lagrange_weights_at, matmul_mod_py, poly_eval
from packsecagg.sharing import (
    ShareError,
    SharingConfig,
    deserialize_elems,
    hadamard,
    reconstruct,
    serialize_elems,
    share,
    share_batch,
)

CFG_SMALL = SharingConfig(prime=127, n_parties=9, pack=2, degree=3)
CFG_BIG = SharingConfig(prime=MERSENNE61, n_parties=12, pack=3, degree=5)
CFG_NO_RANDOMNESS = SharingConfig(prime=MERSENNE61, n_parties=5, pack=3, degree=2)


def deal_blocks(cfg):
    """The four blocks of the dealing matrix: the secrets' and the random
    part's rows, evaluated at the parties' points and as coefficients."""
    m, n, l = cfg._deal_matrix, cfg.n_parties, cfg.pack
    return m[:l, :n], m[l:, :n], m[:l, n:], m[l:, n:]


def test_config_validation():
    with pytest.raises(ShareError):
        SharingConfig(prime=32, n_parties=5, pack=1, degree=2)
    with pytest.raises(ShareError):
        SharingConfig(prime=31, n_parties=5, pack=3, degree=1)
    with pytest.raises(ShareError):
        SharingConfig(prime=31, n_parties=3, pack=1, degree=3)
    with pytest.raises(ShareError):
        SharingConfig(prime=31, n_parties=29, pack=2, degree=4)
    with pytest.raises(ShareError):
        SharingConfig(prime=31, n_parties=5, pack=0, degree=2)


@pytest.mark.parametrize("cfg", [CFG_SMALL, CFG_BIG])
def test_share_reconstruct_roundtrip(cfg):
    rng = np.random.default_rng(11)
    secrets = fastops.rand_elems(rng, (5, cfg.pack), cfg.prime)
    batch = share_batch(cfg, secrets, rng)
    # shares are evaluations of the committed coefficients
    for k in range(5):
        for j in range(1, cfg.n_parties + 1):
            assert int(batch.shares[k, j - 1]) == poly_eval(
                [int(c) for c in batch.coeffs[k]], cfg.eval_point(j), cfg.prime
            )
    all_parties = list(range(1, cfg.n_parties + 1))
    got = reconstruct(cfg, all_parties, batch.shares)
    assert np.array_equal(got, secrets)
    # minimal subsets reconstruct too
    subset = all_parties[: cfg.degree + 1]
    got = reconstruct(cfg, subset, batch.shares[:, : cfg.degree + 1])
    assert np.array_equal(got, secrets)


def test_every_minimal_subset_agrees():
    cfg = CFG_SMALL
    rng = np.random.default_rng(12)
    batch = share(cfg, [7, 99], rng)
    parties = range(1, cfg.n_parties + 1)
    for subset in itertools.combinations(parties, cfg.degree + 1):
        vals = batch.shares[:, [j - 1 for j in subset]]
        got = reconstruct(cfg, list(subset), vals)
        assert [int(v) for v in got[0]] == [7, 99]


def test_short_secret_rows_pad_with_zeros():
    cfg = CFG_SMALL
    rng = np.random.default_rng(13)
    batch = share(cfg, [5], rng)
    got = reconstruct(cfg, list(range(1, 5)), batch.shares[:, :4])
    assert [int(v) for v in got[0]] == [5, 0]
    with pytest.raises(ShareError):
        share(cfg, [1, 2, 3], rng)


def test_linearity():
    cfg = CFG_SMALL
    p = cfg.prime
    rng = np.random.default_rng(14)
    a = share(cfg, [3, 4], rng)
    b = share(cfg, [10, 20], rng)
    combo = fastops.add_mod(
        fastops.mul_mod(np.uint64(5), a.shares, p), fastops.mul_mod(np.uint64(2), b.shares, p), p
    )
    got = reconstruct(cfg, list(range(1, cfg.n_parties + 1)), combo)
    assert [int(v) for v in got[0]] == [(5 * 3 + 2 * 10) % p, (5 * 4 + 2 * 20) % p]


def test_hadamard_product_reconstructs_elementwise_products():
    cfg = CFG_SMALL
    rng = np.random.default_rng(15)
    a = share(cfg, [3, 4], rng)
    b = share(cfg, [10, 20], rng)
    prod = hadamard(a, b)
    assert prod.degree_tag == 6
    got = reconstruct(cfg, list(range(1, cfg.n_parties + 1)), prod.shares, degree_tag=prod.degree_tag)
    assert [int(v) for v in got[0]] == [30, 80]


def test_hadamard_degree_overflow_rejected():
    cfg = SharingConfig(prime=127, n_parties=5, pack=1, degree=3)
    rng = np.random.default_rng(16)
    a = share(cfg, [2], rng)
    with pytest.raises(ShareError):
        hadamard(a, a)


def test_insufficient_shares_rejected():
    cfg = CFG_SMALL
    rng = np.random.default_rng(17)
    batch = share(cfg, [1, 2], rng)
    with pytest.raises(ShareError):
        reconstruct(cfg, [1, 2, 3], batch.shares[:, :3])
    with pytest.raises(ShareError):
        reconstruct(cfg, [1, 1, 2, 3], batch.shares[:, [0, 0, 1, 2]])


def test_small_subsets_leak_nothing():
    # over all dealer randomness, any d-l+1 share positions have identical
    # joint distributions whatever the secrets (exhaustive, tiny field)
    cfg = SharingConfig(prime=31, n_parties=6, pack=2, degree=3)
    p = cfg.prime
    basis_eval, rand_eval, _, _ = deal_blocks(cfg)

    def distribution(secrets, positions):
        counts = Counter()
        base = fastops.matmul_mod(
            fastops.as_elems(np.array([secrets]), p), basis_eval, p
        )[0]
        for q0 in range(p):
            for q1 in range(p):
                qv = fastops.matmul_mod(
                    np.array([[q0, q1]], dtype=np.uint64), rand_eval, p
                )[0]
                sh = fastops.add_mod(base, qv, p)
                counts[tuple(int(sh[j]) for j in positions)] += 1
        return counts

    ref = distribution([0, 0], (0, 3))
    assert distribution([17, 5], (0, 3)) == ref
    assert distribution([1, 30], (2, 5)) == distribution([0, 0], (2, 5))


def test_serialization_roundtrip():
    vals = np.array([0, 1, MERSENNE61 - 1, 12345], dtype=np.uint64)
    buf = serialize_elems(vals)
    assert len(buf) == 4 + 8 * 4
    got, off = deserialize_elems(buf)
    assert off == len(buf)
    assert np.array_equal(got, vals)
    two = buf + serialize_elems([7])
    first, off = deserialize_elems(two)
    second, off = deserialize_elems(two, off)
    assert off == len(two) and int(second[0]) == 7


@pytest.mark.parametrize("cfg", [CFG_SMALL, CFG_BIG])
def test_fused_dealing_matches_the_four_product_formula(cfg):
    # shares = S L(alpha) + Q R and coeffs = S L + Q Z, with q drawn from the
    # same generator state that share_batch uses
    p = cfg.prime
    secrets = fastops.rand_elems(np.random.default_rng(1), (6, cfg.pack), p)
    batch = share_batch(cfg, secrets, np.random.default_rng(2))
    q = fastops.rand_elems(np.random.default_rng(2), (6, cfg.degree - cfg.pack + 1), p)

    def two_products(left, right):
        x = matmul_mod_py(secrets.tolist(), left.tolist(), p)
        y = matmul_mod_py(q.tolist(), right.tolist(), p)
        return [[(u + v) % p for u, v in zip(rx, ry)] for rx, ry in zip(x, y)]

    basis_eval, rand_eval, basis_coeffs, vanishing_conv = deal_blocks(cfg)
    assert batch.shares.tolist() == two_products(basis_eval, rand_eval)
    assert batch.coeffs.tolist() == two_products(basis_coeffs, vanishing_conv)


@pytest.mark.parametrize(
    "cfg", [CFG_SMALL, CFG_BIG, CFG_NO_RANDOMNESS], ids=["small", "big", "no_randomness"]
)
def test_deal_matrix_blocks_match_poly_references(cfg):
    # each block against an independent pure-Python reference: the secrets'
    # rows are the Lagrange basis over the secret points, the random part's
    # row r is x^r * Z(x) with Z the vanishing polynomial of those points
    p, d, es = cfg.prime, cfg.degree, list(cfg.secret_points)
    basis_eval, rand_eval, basis_coeffs, vanishing_conv = deal_blocks(cfg)
    assert rand_eval.shape == (d - cfg.pack + 1, cfg.n_parties)
    assert vanishing_conv.shape == (d - cfg.pack + 1, d + 1)

    def x_r_z(r, x):
        out = pow(x, r, p)
        for e in es:
            out = out * (x - e) % p
        return out

    for j, a in enumerate(cfg.eval_points):
        assert basis_eval[:, j].tolist() == lagrange_weights_at(es, a, p)
        for r in range(d - cfg.pack + 1):
            assert int(rand_eval[r, j]) == x_r_z(r, a)
            assert poly_eval(vanishing_conv[r].tolist(), a, p) == x_r_z(r, a)
    for i in range(cfg.pack):
        unit = [int(k == i) for k in range(cfg.pack)]
        ref = lagrange_coeffs(es, unit, p)
        assert basis_coeffs[i].tolist() == ref + [0] * (d + 1 - len(ref))


def test_dealing_without_random_part_reconstructs():
    # degree pack-1 leaves no random coefficients: the polynomial is the
    # secrets' interpolant, and any degree+1 shares recover it
    cfg = CFG_NO_RANDOMNESS
    secrets = fastops.rand_elems(np.random.default_rng(5), (4, cfg.pack), cfg.prime)
    batch = share_batch(cfg, secrets, np.random.default_rng(6))
    for parties in itertools.combinations(range(1, cfg.n_parties + 1), cfg.degree + 1):
        got = reconstruct(cfg, list(parties), batch.shares[:, [j - 1 for j in parties]])
        assert np.array_equal(got, secrets)
