"""Tests for polynomial commitments over both backends.

Covers group construction, completeness (honest shares always verify),
soundness against wrong values / points / witnesses, and a malicious-dealer
drill where shares are drawn from a second polynomial and every off-polynomial
share must be caught by its recipient.
"""

import numpy as np
import pytest

from packsecagg import fastops, poly
from packsecagg.field import MERSENNE61, is_probable_prime
from packsecagg.sharing import SharingConfig, share_batch
from packsecagg.vss import (
    CoefficientScheme,
    Commitment,
    CommitmentBatch,
    CommitmentError,
    ConstantScheme,
    ModGroup,
    PlainGroup,
    Witness,
    limbs_to_ints,
    make_scheme,
)

PRIMES = [127, MERSENNE61]


@pytest.mark.parametrize("p", PRIMES)
def test_modgroup_has_prime_order_subgroup(p):
    g = ModGroup(p)
    assert is_probable_prime(g.modulus)
    assert (g.modulus - 1) % p == 0
    assert g.generator != 1
    # generator has order exactly p (p prime, so any non-identity power works)
    assert pow(g.generator, p, g.modulus) == 1


def test_modgroup_exponent_arithmetic_matches_field():
    g = ModGroup(127)
    for a in range(0, 127, 13):
        for b in range(0, 127, 17):
            assert g.mul(g.exp_g(a), g.exp_g(b)) == g.exp_g((a + b) % 127)
            assert g.exp(g.exp_g(a), b) == g.exp_g(a * b % 127)


def test_plaingroup_mirrors_modgroup_contract():
    g = PlainGroup(127)
    assert g.mul(g.exp_g(5), g.exp_g(9)) == g.exp_g(14)
    assert g.exp(g.exp_g(5), 9) == g.exp_g(45)
    assert g.identity == g.exp_g(0)


def _deal(p, n, pack, degree, seed):
    cfg = SharingConfig(prime=p, n_parties=n, pack=pack, degree=degree)
    rng = np.random.default_rng(seed)
    secrets = fastops.rand_elems(rng, (3, pack), p)
    batch = share_batch(cfg, secrets, rng)
    return cfg, batch


@pytest.mark.parametrize("kind", ["coefficient", "constant"])
@pytest.mark.parametrize("fast", [False, True])
def test_completeness_all_shares_verify(kind, fast):
    p = MERSENNE61
    cfg, batch = _deal(p, n=8, pack=2, degree=4, seed=11)
    scheme = make_scheme(kind, p, max_degree=4, fast=fast)
    comms = scheme.commit_batch(batch.coeffs)
    for party in range(1, cfg.n_parties + 1):
        x = cfg.eval_point(party)
        wits = scheme.open_batch(batch.coeffs, x)
        col = batch.column(party)
        for k in range(len(comms)):
            assert scheme.verify(comms[k], x, int(col[k]), wits[k])
        assert scheme.verify_batch([comms], x, [col], [wits]).tolist() == [True]


@pytest.mark.parametrize("kind", ["coefficient", "constant"])
def test_wrong_value_rejected(kind):
    p = MERSENNE61
    cfg, batch = _deal(p, n=6, pack=2, degree=3, seed=5)
    scheme = make_scheme(kind, p, max_degree=3)
    comms = scheme.commit_batch(batch.coeffs)
    x = cfg.eval_point(3)
    wits = scheme.open_batch(batch.coeffs, x)
    good = int(batch.column(3)[0])
    for delta in (1, 2, p - 1):
        assert not scheme.verify(comms[0], x, (good + delta) % p, wits[0])


@pytest.mark.parametrize("kind", ["coefficient", "constant"])
def test_share_for_other_point_rejected(kind):
    p = MERSENNE61
    cfg, batch = _deal(p, n=6, pack=2, degree=3, seed=7)
    scheme = make_scheme(kind, p, max_degree=3)
    comms = scheme.commit_batch(batch.coeffs)
    x3, x4 = cfg.eval_point(3), cfg.eval_point(4)
    wits4 = scheme.open_batch(batch.coeffs, x4)
    # value (and witness) for party 4 must not verify at party 3's point
    assert not scheme.verify(comms[0], x3, int(batch.column(4)[0]), wits4[0])


def test_constant_scheme_wrong_witness_rejected():
    p = MERSENNE61
    cfg, batch = _deal(p, n=6, pack=2, degree=3, seed=9)
    scheme = ConstantScheme(p, max_degree=3)
    comms = scheme.commit_batch(batch.coeffs)
    x = cfg.eval_point(2)
    wits = scheme.open_batch(batch.coeffs, x)
    good_val = int(batch.column(2)[0])
    bad = Witness((wits[0].element + 1) % p)
    assert not scheme.verify(comms[0], x, good_val, bad)
    assert not scheme.verify(comms[0], x, good_val, Witness(None))
    # witness for poly 1 does not open poly 0
    assert not scheme.verify(comms[0], x, good_val, wits[1])


def test_constant_scheme_is_constant_size():
    p = MERSENNE61
    scheme = ConstantScheme(p, max_degree=40)
    coeffs = np.arange(1, 42, dtype=np.uint64).reshape(1, 41)
    (comm,) = scheme.commit_batch(coeffs)
    assert len(comm.elements) == 1


def test_constant_witness_matches_quotient_commitment():
    # the batched synthetic division must equal an explicit polynomial division
    p = 127
    scheme = ConstantScheme(p, max_degree=5, setup_seed=3)
    coeffs = [3, 0, 7, 126, 2, 9]
    z = 11
    v = poly.poly_eval(coeffs, z, p)
    shifted = list(coeffs)
    shifted[0] = (shifted[0] - v) % p
    quot, rem = poly.poly_divmod(shifted, [(-z) % p, 1], p)
    assert poly.poly_deg(rem) == -1
    (expect,) = scheme.commit_batch(np.array([quot + [0] * (6 - len(quot))], dtype=np.uint64))
    (wit,) = scheme.open_batch(np.array([coeffs], dtype=np.uint64), z)
    assert wit.element == expect.elements[0]


def test_degree_overflow_rejected():
    scheme = make_scheme("coefficient", 127, max_degree=2)
    with pytest.raises(CommitmentError):
        scheme.commit_batch(np.array([[1, 2, 3, 4]], dtype=np.uint64))
    with pytest.raises(CommitmentError):
        make_scheme("nope", 127, 2)


def malicious_dealer_trial(scheme, cfg, rng):
    """Deal commitments for one polynomial but serve some recipients shares of
    another; return True iff every off-polynomial share is rejected and every
    on-polynomial share still verifies."""
    p = cfg.prime
    honest = share_batch(cfg, fastops.rand_elems(rng, (1, cfg.pack), p), rng)
    forged = share_batch(cfg, fastops.rand_elems(rng, (1, cfg.pack), p), rng)
    comms = scheme.commit_batch(honest.coeffs)
    victims = set(
        int(v) for v in rng.choice(cfg.n_parties, size=rng.integers(1, cfg.n_parties), replace=False) + 1
    )
    ok = True
    for party in range(1, cfg.n_parties + 1):
        x = cfg.eval_point(party)
        served = forged if party in victims else honest
        val = int(served.column(party)[0])
        wits = scheme.open_batch(served.coeffs, x)
        accepted = scheme.verify(comms[0], x, val, wits[0])
        # a forged share could coincide with the honest polynomial's value
        should_accept = val == int(honest.column(party)[0])
        ok = ok and (accepted == should_accept)
    return ok


@pytest.mark.parametrize("kind,fast", [("coefficient", False), ("coefficient", True), ("constant", False)])
def test_malicious_dealer_detected(kind, fast):
    p = MERSENNE61
    cfg = SharingConfig(prime=p, n_parties=8, pack=2, degree=4)
    scheme = make_scheme(kind, p, max_degree=4, fast=fast)
    rng = np.random.default_rng(421)
    assert all(malicious_dealer_trial(scheme, cfg, rng) for _ in range(50))


@pytest.mark.parametrize(
    "kind,fast",
    [("coefficient", True), ("coefficient", False), ("constant", False)],
    ids=["coefficient-fast", "coefficient-real", "constant"],
)
def test_verify_batch_flags_exact_positions(kind, fast):
    p = MERSENNE61
    cfg, batch = _deal(p, n=8, pack=2, degree=4, seed=13)
    scheme = make_scheme(kind, p, max_degree=4, fast=fast)
    comms = scheme.commit_batch(batch.coeffs)
    x = cfg.eval_point(5)
    wits = scheme.open_batch(batch.coeffs, x)
    vals = batch.column(5).copy()
    vals[1] = (vals[1] + 3) % p
    # one dealer per polynomial: only the tampered position fails
    out = scheme.verify_batch([comms[k : k + 1] for k in range(3)], x,
                              [vals[k : k + 1] for k in range(3)], [wits[k : k + 1] for k in range(3)])
    assert out.tolist() == [True, False, True]
    # whole batches: an honest dealer, the tampered one, and one whose
    # commitments lack their last element
    short = CommitmentBatch(comms.limbs[:, :-1])
    good = batch.column(5)
    out = scheme.verify_batch([comms, comms, short], x, [good, vals, good], [wits] * 3)
    assert out.tolist() == [True, False, False]


def _int_commits(limbs):
    """Limb-by-limb Python-int conversion, the reference for limbs_to_ints."""
    return [
        tuple(sum(int(v) << (64 * i) for i, v in enumerate(elem)) for elem in row)
        for row in limbs
    ]


def test_limbs_to_ints_matches_per_element_conversion():
    rng = np.random.default_rng(8)
    limbs = rng.integers(0, 2**64, size=(40, 9, 4), dtype=np.uint64, endpoint=False)
    limbs[0] = 2**64 - 1  # all-ones limbs
    limbs[1, :, 1:] = 0  # one limb used
    limbs[2, :, 3] = 0
    low_only = limbs.copy()
    low_only[:, :, 1:] = 0  # every high limb zero, as in fast mode
    for case in (limbs, low_only):
        want = _int_commits(case)
        assert [tuple(row) for row in limbs_to_ints(case).tolist()] == want
        assert [c.elements for c in CommitmentBatch(case)] == want
