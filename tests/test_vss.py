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
    CommitmentBatch,
    CommitmentError,
    ConstantScheme,
    ModGroup,
    PlainGroup,
    ints_to_limbs,
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
        assert scheme.verify_batch([comms], x, [col], wits[None, :]).tolist() == [True]


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
    assert not scheme.verify(comms[0], x, good_val, (int(wits[0]) + 1) % p)
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
    assert wit == expect.elements[0]


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
                              [vals[k : k + 1] for k in range(3)], wits[:, None])
    assert out.tolist() == [True, False, True]
    # whole batches: an honest dealer, the tampered one, and one whose
    # commitments lack their last element
    short = CommitmentBatch(comms.limbs[:, :-1])
    good = batch.column(5)
    out = scheme.verify_batch([comms, comms, short], x, [good, vals, good], np.stack([wits] * 3))
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


@pytest.mark.parametrize(
    "e", [0, 1, 255, 256, 2**56 - 1, 2**56, MERSENNE61 - 1, MERSENNE61, 2**64 - 1]
)
def test_table_exponentiation_matches_pow(e):
    g = ModGroup(MERSENNE61)
    got = g.exp_g_array(np.array([e, e], dtype=np.uint64))
    assert got.tolist() == [pow(g.generator, e, g.modulus)] * 2


def test_real_commit_batch_matches_per_element_exp_g():
    scheme = CoefficientScheme(MERSENNE61, max_degree=6)
    coeffs = fastops.rand_elems(np.random.default_rng(17), (9, 7), MERSENNE61)
    coeffs[0, :3] = [0, 1, MERSENNE61 - 1]
    comms = scheme.commit_batch(coeffs)
    want = [tuple(scheme.group.exp_g(c) for c in row) for row in coeffs.tolist()]
    assert [c.elements for c in comms] == want


def _hostile_dealers(scheme, point, rng):
    """Dealers of 3 polynomials each at `point`, as (name, batch, values,
    witnesses, whether verification must pass).  Every batch has the wire's
    four limbs per element, so hostile elements up to 2^256 fit; where an
    element is only rewritten to a congruent value, the dealer still
    verifies."""
    p = scheme.prime
    width = scheme.max_degree + 1
    coeffs = fastops.rand_elems(rng, (3, width), p)
    vals = fastops.poly_eval_many(coeffs, [point], p)[:, 0]
    wits = scheme.open_batch(coeffs, point)
    elems = limbs_to_ints(scheme.commit_batch(coeffs).limbs)
    comms = CommitmentBatch(ints_to_limbs(elems, 4))
    # the modulus the elements live under: q for the group, p for the stand-in
    q = p if scheme.needs_witness else scheme.group.modulus

    def with_elem(row, col, value):
        out = elems.copy()
        out[row, col] = value
        return CommitmentBatch(ints_to_limbs(out, 4))

    bumped = vals.copy()
    bumped[1] = (bumped[1] + 1) % p
    last = elems.shape[1] - 1
    dealers = [
        ("honest", comms, vals, wits, True),
        ("tampered value", comms, bumped, wits, False),
        ("tampered element", with_elem(2, last, elems[2, last] * 7 % q), vals, wits, False),
        ("zero element", with_elem(0, 0, 0), vals, wits, False),
        ("element plus modulus", with_elem(1, last, elems[1, last] + q), vals, wits, True),
        ("wide element", with_elem(1, 0, (1 << 255) + 12345), vals, wits, False),
    ]
    if scheme.needs_witness:
        wide = wits.copy()
        wide[2] += np.uint64(p)
        wrong = wits.copy()
        wrong[0] = (wrong[0] + np.uint64(1)) % np.uint64(p)
        dealers += [
            ("witness plus p", comms, vals, wide, True),
            ("tampered witness", comms, vals, wrong, False),
        ]
    else:
        # q - 1 has order 2 and h^((q-1)/13) order 13, so both lie outside
        # the order-p subgroup; on the x^1 coefficient each would cancel only
        # at points its order divides, but only the order-p part counts, so
        # every receiver accepts
        order13 = next(z for z in (pow(h, (q - 1) // 13, q) for h in range(2, 99)) if z != 1)
        dealers += [
            ("outside subgroup", with_elem(0, 1, elems[0, 1] * (q - 1) % q), vals, wits, True),
            ("order-13 factor", with_elem(1, 1, elems[1, 1] * order13 % q), vals, wits, True),
        ]
        dealers.append(("order-2 element", with_elem(2, 2, q - 1), vals, wits, False))
    return dealers


@pytest.mark.parametrize("kind", ["coefficient", "constant"])
@pytest.mark.parametrize("point", [1, 2, 13, 19, 20, 31])
def test_real_verify_batch_matches_scalar_verify(kind, point):
    scheme = make_scheme(kind, MERSENNE61, max_degree=4)
    dealers = _hostile_dealers(scheme, point, np.random.default_rng(point))
    names, batches, values, witnesses, want = zip(*dealers)
    got = scheme.verify_batch(list(batches), point, list(values), np.stack(witnesses))
    scalar = [
        all(scheme.verify(batch[k], point, int(v[k]), w[k]) for k in range(len(v)))
        for batch, v, w in zip(batches, values, witnesses)
    ]
    assert dict(zip(names, got.tolist())) == dict(zip(names, want))
    assert got.tolist() == scalar
    # each dealer alone reads the same as in the stacked call
    for i in range(len(dealers)):
        one = scheme.verify_batch([batches[i]], point, [values[i]], witnesses[i][None, :])
        assert one.tolist() == [want[i]]
