"""Tests for the four-round aggregation state machine.

The reference point everywhere is ``plaintext_trust_step``: the trust-weighted
aggregation rule computed directly on the submitted gradients.  A protocol run
over the mailbox must reproduce its integer numerators, denominator, and float
update exactly, whatever mix of dropouts, corrupted dealers, and wrong
computations the run contains, as long as the surviving honest set stays above
the configured thresholds.
"""

import hashlib
import struct
import sys
from collections import Counter

import numpy as np
import pytest

from packsecagg import dotprod, fastops
from packsecagg.channel import (
    MAX_ITERATIONS,
    SERVER_ID,
    SIGNATURE_BYTES,
    Directory,
    Envelope,
    PairwiseBox,
    PartyCrypto,
    ServerMailbox,
    TamperRule,
)
from packsecagg.field import MERSENNE61
from packsecagg.protocol import (
    BROADCAST,
    COMMITMENT_BYTES,
    ClientFlags,
    ClientSession,
    ProtocolAbort,
    ProtocolConfig,
    ProtocolError,
    R_AGG,
    R_FINAL,
    R_MODEL,
    R_RESHARE,
    R_SHARE,
    T_COMMIT,
    _HEADER,
    _commit_blob,
    _ids_blob,
    _read_commit_limbs,
    _Reader,
    _sig_context,
    build_sessions,
    normalize_and_quantize,
    plaintext_trust_step,
    run_iteration,
    trust_numerator,
)
from packsecagg.sharing import SharingConfig, deserialize_elems, reconstruct, serialize_elems, share_batch
from packsecagg.vss import CommitmentBatch, ints_to_limbs, limbs_to_ints, make_scheme

BASE = dict(n_clients=20, dim=64, pack=4, reshare_pack=4, degree=8, seed=3)


def make_inputs(cfg, seed=7, ref_norm=1.3):
    rng = np.random.default_rng(seed)
    grads = {u: rng.normal(0, 1, cfg.dim) for u in range(1, cfg.n_clients + 1)}
    root = rng.normal(0, 1, cfg.dim)
    root *= ref_norm / np.linalg.norm(root)
    weights = rng.normal(0, 1, cfg.dim)
    return weights, grads, root


def run_once(cfg, flags=None, silenced=None, tamper=None, seed=7):
    server, clients = build_sessions(cfg, flags)
    mailbox = ServerMailbox(silenced=silenced, tamper_rules=tamper)
    weights, grads, root = make_inputs(cfg, seed)
    res = run_iteration(cfg, server, clients, mailbox, 0, weights, grads, root)
    return res, grads, root, mailbox


def assert_matches_oracle(res, grads, root, scale, roster=None):
    ids = roster if roster is not None else sorted(grads)
    oracle = plaintext_trust_step({u: grads[u] for u in ids}, root, scale)
    assert res.numerators == oracle.numerators
    assert res.denominator == oracle.denominator
    assert np.array_equal(res.update, oracle.update)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_config_rejects_inconsistent_parameters():
    with pytest.raises(ProtocolError):
        ProtocolConfig(n_clients=10, dim=8, pack=2, reshare_pack=2, degree=5)
    with pytest.raises(ProtocolError):
        ProtocolConfig(n_clients=20, dim=0, pack=2, reshare_pack=2, degree=5)
    with pytest.raises(ProtocolError):
        ProtocolConfig(**BASE, crypto_mode="bogus")
    with pytest.raises(ProtocolError):
        ProtocolConfig(n_clients=20, dim=8, pack=2, reshare_pack=2, degree=5,
                       response_threshold=4)  # below degree+1
    with pytest.raises(ProtocolError):
        ProtocolConfig(n_clients=20, dim=8, pack=2, reshare_pack=2, degree=5,
                       report_threshold=20)  # would need more votes than clients


def test_config_derived_thresholds():
    cfg = ProtocolConfig(**BASE)
    assert cfg.min_respondents == 16  # ceil(0.8 * 20)
    assert cfg.exclusion_votes == 6  # floor(0.3 * 20)
    assert cfg.privacy_threshold == cfg.degree - cfg.pack + 1 == 5
    assert cfg.n_poly == 16  # ceil(64 / 4)
    assert cfg.norm_bound == cfg.norm_q**2
    cfg2 = ProtocolConfig(**BASE | dict(seed=9), response_threshold=12, report_threshold=2)
    assert cfg2.min_respondents == 12
    assert cfg2.exclusion_votes == 2


def test_normalize_and_quantize_respects_bound():
    rng = np.random.default_rng(5)
    scale = 2**16
    for _ in range(25):
        dim = int(rng.integers(3, 200))
        ref = float(rng.uniform(0.1, 2.0))
        bound = (int(scale * ref) + int(np.sqrt(dim)) + 2) ** 2
        g = rng.normal(0, rng.uniform(0.01, 50), dim)
        ints = normalize_and_quantize(g, ref, scale, bound)
        assert int(np.dot(ints.astype(object), ints.astype(object))) <= bound
    assert normalize_and_quantize(np.zeros(7), 1.0, scale, 10**12).tolist() == [0] * 7


def test_trust_numerator_clips_and_zeroes():
    assert trust_numerator(450, 100, 1000) == 450
    assert trust_numerator(-5, 100, 1000) == 0  # negative similarity clipped
    assert trust_numerator(450, 1001, 1000) == 0  # norm violation zeroed
    assert trust_numerator(450, -1, 1000) == 0  # wrapped negative norm zeroed


# ---------------------------------------------------------------------------
# Clean runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mode,scheme",
    [("fast", "coefficient"), ("real", "coefficient"),
     ("fast", "constant"), ("real", "constant")],
)
def test_clean_iteration_matches_plaintext(mode, scheme):
    cfg = ProtocolConfig(
        n_clients=12, dim=40, pack=3, reshare_pack=3, degree=5,
        crypto_mode=mode, commitment=scheme, seed=1,
    )
    res, grads, root, _ = run_once(cfg)
    assert res.roster == list(range(1, 13))
    assert res.excluded == [] and res.offenders == [] and res.flagged == []
    assert_matches_oracle(res, grads, root, cfg.scale)
    assert all(0.0 <= t for t in res.trust.values())


def test_crypto_calls_per_iteration_are_per_client(monkeypatch):
    # every signature, check, seal and open is still made by each party for
    # each message it handles: no work is shared across clients beyond the
    # broadcast checks `_MEMO` already shares
    calls = Counter()

    def count(cls, name):
        fn = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    for cls, name in ((Directory, "verify"), (PartyCrypto, "sign"),
                      (PairwiseBox, "seal"), (PairwiseBox, "open_in")):
        count(cls, name)
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3, seed=3)
    res, grads, root, _ = run_once(cfg)
    assert_matches_oracle(res, grads, root, cfg.scale)
    n = cfg.n_clients
    bundles = 2 * n * (n - 1)  # rounds 1 and 2, one per ordered client pair
    # signed: n model messages, 2n broadcasts, the bundles, n finals, one
    # trust broadcast and n aggregates
    assert calls["sign"] == n + 2 * n + bundles + n + 1 + n == 231
    # checked: n model messages by their clients, 2n broadcasts by the
    # server and once more by the receivers, the bundles, n finals, the
    # trust message by each client and n aggregates
    assert calls["verify"] == n + 4 * n + bundles + n + n + n == 260
    assert calls["seal"] == calls["open_in"] == n + bundles == 190


@pytest.mark.parametrize("mode", ["fast", "real"])
def test_signed_body_verifies_over_the_documented_context(mode):
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3,
                         crypto_mode=mode, seed=3)
    _, clients = build_sessions(cfg)
    sender, receiver = clients[3], clients[4]
    sender.iteration = receiver.iteration = 5
    bind = hashlib.sha256(b"broadcast").digest()
    signed = sender._signed(BROADCAST, R_SHARE, T_COMMIT, b"payload", bind=bind)
    body, sig = signed[:-SIGNATURE_BYTES], signed[-SIGNATURE_BYTES:]
    assert body == _HEADER.pack(T_COMMIT, 5) + b"payload"
    ctx = _sig_context(3, BROADCAST, R_SHARE, 5, body + bind)
    assert sender.directory.verify(3, ctx, sig)
    env = Envelope(3, 4, R_SHARE, signed)
    r = receiver._checked(env, T_COMMIT, BROADCAST, bind=bind)
    assert r is not None and bytes(r.raw(7)) == b"payload"
    r.done()
    assert receiver._checked(env, T_COMMIT, BROADCAST, bind=bind[::-1]) is None
    assert receiver._checked(env, T_COMMIT, 4, bind=bind) is None


def test_repeat_run_is_deterministic():
    cfg = ProtocolConfig(**BASE)
    res1, _, _, mb1 = run_once(cfg)
    res2, _, _, mb2 = run_once(cfg)
    assert res1.numerators == res2.numerators
    assert res1.denominator == res2.denominator
    assert np.array_equal(res1.update, res2.update)
    assert mb1.round_totals() == mb2.round_totals()
    assert mb1.message_count == mb2.message_count


def test_fast_and_real_modes_agree_on_values_and_bytes():
    cfg_f = ProtocolConfig(n_clients=10, dim=24, pack=2, reshare_pack=2, degree=4,
                           crypto_mode="fast", seed=2)
    cfg_r = ProtocolConfig(n_clients=10, dim=24, pack=2, reshare_pack=2, degree=4,
                           crypto_mode="real", seed=2)
    res_f, _, _, mb_f = run_once(cfg_f)
    res_r, _, _, mb_r = run_once(cfg_r)
    assert res_f.numerators == res_r.numerators
    assert res_f.denominator == res_r.denominator
    assert np.array_equal(res_f.update, res_r.update)
    # the fast mode pads commitments, witnesses, and signatures to the real
    # sizes, so the metered traffic must be byte-identical
    assert mb_f.round_totals() == mb_r.round_totals()
    assert mb_f.message_count == mb_r.message_count


def test_multi_iteration_descent_reuses_sessions():
    cfg = ProtocolConfig(**BASE)
    server, clients = build_sessions(cfg)
    mailbox = ServerMailbox()
    weights, grads, root = make_inputs(cfg)
    for it in range(3):
        res = run_iteration(cfg, server, clients, mailbox, it, weights, grads, root)
        oracle = plaintext_trust_step(grads, root, cfg.scale)
        assert res.numerators == oracle.numerators
        assert np.array_equal(res.update, oracle.update)
        weights = weights - 0.5 * res.update
        grads = {u: g * 0.9 for u, g in grads.items()}


# ---------------------------------------------------------------------------
# Dropouts
# ---------------------------------------------------------------------------


def test_final_round_dropouts_decode_as_erasures():
    cfg = ProtocolConfig(**BASE)
    # four clients vanish right before sending final shares; everyone still
    # contributed gradients, so the aggregate is unchanged
    res, grads, root, _ = run_once(cfg, silenced={u: R_FINAL for u in (2, 5, 11, 17)})
    assert res.roster == list(range(1, 21))
    assert sorted(res.respondents[R_FINAL]) == [u for u in range(1, 21) if u not in (2, 5, 11, 17)]
    assert_matches_oracle(res, grads, root, cfg.scale)


def test_share_round_dropouts_shrink_the_roster():
    cfg = ProtocolConfig(**BASE)
    res, grads, root, _ = run_once(cfg, silenced={1: R_SHARE, 2: R_SHARE})
    assert res.roster == list(range(3, 21))
    assert_matches_oracle(res, grads, root, cfg.scale, roster=res.roster)


def test_dropouts_below_quorum_abort():
    cfg = ProtocolConfig(**BASE)
    with pytest.raises(ProtocolAbort, match="below threshold"):
        run_once(cfg, silenced={u: R_SHARE for u in range(1, 7)})


def test_too_few_reshare_senders_abort():
    # degree 8 needs 17 re-share senders; silencing four of 20 at round two
    # leaves 16, which passes the 0.8 quorum but cannot reduce the degree, so
    # every client goes quiet at round three and the server aborts on quorum
    cfg = ProtocolConfig(**BASE)
    with pytest.raises(ProtocolAbort, match="below threshold"):
        run_once(cfg, silenced={u: R_RESHARE for u in (1, 2, 3, 4)})


# ---------------------------------------------------------------------------
# Corruption
# ---------------------------------------------------------------------------


def test_invalid_share_dealers_are_voted_out():
    cfg = ProtocolConfig(**BASE)
    flags = {u: ClientFlags(invalid_shares=True) for u in (1, 2, 3)}
    res, grads, root, _ = run_once(cfg, flags)
    assert res.excluded == [1, 2, 3]
    assert res.roster == list(range(4, 21))
    assert res.offenders == []
    assert_matches_oracle(res, grads, root, cfg.scale, roster=res.roster)


def test_wrong_computation_is_corrected_and_attributed():
    cfg = ProtocolConfig(**BASE)
    flags = {u: ClientFlags(wrong_computation=True) for u in (4, 5, 6)}
    res, grads, root, _ = run_once(cfg, flags)
    # their dealt gradients are honest, so they stay in the aggregate; only
    # their corrupted holder computations are flagged
    assert res.roster == list(range(1, 21))
    assert res.excluded == []
    assert res.offenders == [4, 5, 6]
    assert_matches_oracle(res, grads, root, cfg.scale)


def test_production_paths_never_call_the_reference_interpolators(monkeypatch):
    # `lagrange_weights_at` and `lagrange_coeffs` are test references: with
    # every module binding of them made to raise, reconstruction, the
    # degree-reduction weights and an iteration that decodes a wrong
    # computation must still succeed
    def refuse(*_args):
        raise AssertionError("a reference interpolator ran on a production path")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "packsecagg":
            for ref in ("lagrange_weights_at", "lagrange_coeffs"):
                if hasattr(module, ref):
                    monkeypatch.setattr(module, ref, refuse)
    p = MERSENNE61
    sharing = SharingConfig(p, n_parties=11, pack=3, degree=5)
    secrets = np.arange(12, dtype=np.uint64).reshape(4, 3) * 1000
    batch = share_batch(sharing, secrets, np.random.default_rng(5))
    parties = [2, 3, 5, 7, 8, 10]
    got = reconstruct(sharing, parties, batch.shares[:, [j - 1 for j in parties]])
    assert np.array_equal(got, secrets)
    senders = (1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12)
    grad_cfg = SharingConfig(p, n_parties=12, pack=2, degree=5)
    points = [grad_cfg.eval_point(s) for s in senders]
    want = [sum(col) % p for col in zip(*(dotprod.extraction_weights_matrix(points, e, p) for e in (1, 2)))]
    assert dotprod.reduction_weights(grad_cfg, senders).tolist() == want
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3, seed=3)
    res, grads, root, _ = run_once(cfg, {6: ClientFlags(wrong_computation=True)})
    assert res.offenders == [6]
    assert_matches_oracle(res, grads, root, cfg.scale)


def test_byzantine_mix_matches_surviving_roster_oracle():
    cfg = ProtocolConfig(**BASE | dict(degree=5, pack=2, reshare_pack=2),
                         report_threshold=6)
    flags = {u: ClientFlags(invalid_shares=True) for u in (1, 2, 3)}
    flags |= {u: ClientFlags(wrong_computation=True) for u in (4, 5, 6)}
    res, grads, root, _ = run_once(cfg, flags)
    assert res.excluded == [1, 2, 3]
    assert res.offenders == [4, 5, 6]
    assert res.roster == list(range(4, 21))
    assert_matches_oracle(res, grads, root, cfg.scale, roster=res.roster)


def flip_byte(offset):
    return lambda wire: wire[:offset] + bytes([wire[offset] ^ 0x01]) + wire[offset + 1 :]


def test_corrupted_reshare_link_is_corrected_and_attributed():
    cfg = ProtocolConfig(**BASE)
    # corrupt the sealed re-share travelling from 7 to 12: holder 12 rejects
    # it, combines over one sender fewer than everyone else, and its final
    # share becomes the decoding error; the aggregate itself is untouched
    rule = TamperRule(round=R_RESHARE, sender=7, recipient=12, mutate=flip_byte(40))
    res, grads, root, _ = run_once(cfg, tamper=[rule])
    assert rule.hits == 1
    assert res.excluded == []
    assert res.roster == list(range(1, 21))
    assert res.offenders == [12]
    assert_matches_oracle(res, grads, root, cfg.scale)


def test_corrupted_share_link_cannot_frame_or_spread():
    cfg = ProtocolConfig(**BASE)
    # corrupt the round-1 share from dealer 7 to holder 12: a single report
    # is far below the exclusion threshold, so the dealer keeps its slot, and
    # the one zeroed column skews only that slot's decoded products, which
    # the norm check catches and zeroes
    rule = TamperRule(round=R_SHARE, sender=7, recipient=12, mutate=flip_byte(40))
    res, grads, root, _ = run_once(cfg, tamper=[rule])
    assert rule.hits == 1
    assert res.excluded == []
    assert res.roster == list(range(1, 21))
    oracle = plaintext_trust_step(grads, root, cfg.scale)
    assert res.flagged == [7] and res.numerators[7] == 0
    for u in range(1, 21):
        if u != 7:
            assert res.numerators[u] == oracle.numerators[u]


@pytest.mark.parametrize(
    "reported,threshold", [([7] * 4, None), ([99], 0)], ids=["repeated target", "unknown target"]
)
def test_one_reporter_cannot_frame_through_its_report_list(reported, threshold):
    # client 4 reports client 7 four times, past the exclusion threshold of
    # 3, or names id 99, outside the layout, where one report would exceed
    # a threshold of 0; before, each entry of the list counted as a vote
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3,
                         report_threshold=threshold, seed=3)
    server, clients = build_sessions(cfg)
    honest = clients[4]._verify_bundles

    def framing(*args):
        seen, cols, _ = honest(*args)
        return seen, cols, list(reported)

    clients[4]._verify_bundles = framing
    weights, grads, root = make_inputs(cfg)
    res = run_iteration(cfg, server, clients, ServerMailbox(), 0, weights, grads, root)
    assert clients[4].reported == reported
    assert res.excluded == []
    assert res.roster == list(range(1, 11))
    assert_matches_oracle(res, grads, root, cfg.scale)


def edit_and_resign(signer, sender, context_recipient, rnd, edit):
    """Mutation that applies `edit` to a body and signs the result again with
    the sender's own key, so the signature check cannot reject it."""

    def mutate(wire):
        env = Envelope.from_wire(wire)
        body = edit(env.body[: len(env.body) - SIGNATURE_BYTES])
        sig = signer.sign(_sig_context(sender, context_recipient, rnd, 0, body))
        return Envelope(env.sender, env.recipient, env.round, body + sig).to_wire()

    return mutate


def truncate_and_resign(signer, sender, context_recipient, rnd):
    """Mutation that cuts 3 bytes off a body and re-signs it, so only the
    parse can reject it."""
    return edit_and_resign(signer, sender, context_recipient, rnd, lambda body: body[:-3])


def flip_sealed_byte(body):
    # the sealed box ends the model body; flip one byte inside its ciphertext
    out = bytearray(body)
    out[-5] ^= 0x01
    return bytes(out)


def test_truncated_signed_reshare_broadcast_makes_a_non_respondent():
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3, seed=3)
    server, clients = build_sessions(cfg)
    # a validly signed body that ends inside its reported-ids list
    mutate = truncate_and_resign(clients[4].crypto, 4, BROADCAST, R_RESHARE)
    rule = TamperRule(round=R_RESHARE, sender=4, recipient=SERVER_ID, mutate=mutate)
    mailbox = ServerMailbox(tamper_rules=[rule])
    weights, grads, root = make_inputs(cfg)
    res = run_iteration(cfg, server, clients, mailbox, 0, weights, grads, root)
    assert rule.hits == 1
    for rnd in (R_RESHARE, R_FINAL, R_AGG):
        assert 4 not in res.respondents[rnd]
    assert_matches_oracle(res, grads, root, cfg.scale)


def add_one_off_residue(k, m=4):
    """Body edit that adds 1 to every final-vector entry j with j mod m != k."""

    def edit(body):
        vals, _ = deserialize_elems(body, _HEADER.size)
        hit = np.arange(vals.size) % m != k
        vals[hit] = (vals[hit] + 1) % np.uint64(MERSENNE61)
        return body[: _HEADER.size] + serialize_elems(vals)

    return edit


def test_spread_final_vector_errors_are_corrected_in_few_decodes(nullspace_calls):
    # four clients re-sign round-3 final vectors, each sparing one residue
    # class of entries: every codeword then has 3 errors against a budget of
    # 3, but the union of wrong columns is 4, beyond any one codeword's budget
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3, seed=3)
    server, clients = build_sessions(cfg)
    rules = []
    for k, u in enumerate((2, 5, 7, 9)):
        mutate = edit_and_resign(clients[u].crypto, u, SERVER_ID, R_FINAL, add_one_off_residue(k))
        rules.append(TamperRule(round=R_FINAL, sender=u, recipient=SERVER_ID, mutate=mutate))
    mailbox = ServerMailbox(tamper_rules=rules)
    weights, grads, root = make_inputs(cfg)
    res = run_iteration(cfg, server, clients, mailbox, 0, weights, grads, root)
    assert [rule.hits for rule in rules] == [1, 1, 1, 1]
    assert res.offenders == [2, 5, 7, 9]
    assert_matches_oracle(res, grads, root, cfg.scale, roster=res.roster)
    assert len(nullspace_calls) <= 5  # the erased-set loop makes 2


def test_twelve_of_forty_spread_final_vectors_are_corrected_in_few_decodes(nullspace_calls):
    # 12 of 40 clients re-sign their round-3 final vectors so that every
    # entry spares one of them: each of the 20 codewords has 11 errors, the
    # whole budget at degree 16, while the wrong columns number 12
    cfg = ProtocolConfig(n_clients=40, dim=80, pack=4, reshare_pack=4, degree=16, seed=3)
    server, clients = build_sessions(cfg)
    attackers = list(range(3, 37, 3))
    rules = []
    for k, u in enumerate(attackers):
        edit = add_one_off_residue(k, len(attackers))
        mutate = edit_and_resign(clients[u].crypto, u, SERVER_ID, R_FINAL, edit)
        rules.append(TamperRule(round=R_FINAL, sender=u, recipient=SERVER_ID, mutate=mutate))
    mailbox = ServerMailbox(tamper_rules=rules)
    weights, grads, root = make_inputs(cfg)
    res = run_iteration(cfg, server, clients, mailbox, 0, weights, grads, root)
    assert all(rule.hits == 1 for rule in rules)
    assert res.offenders == attackers
    assert_matches_oracle(res, grads, root, cfg.scale, roster=res.roster)
    assert len(nullspace_calls) <= len(attackers) + 1


@pytest.mark.parametrize(
    "mode,scheme", [("fast", "coefficient"), ("real", "coefficient"), ("fast", "constant")]
)
def test_dealer_with_short_commitments_is_excluded(mode, scheme):
    # client 5 signs commitments one element short per polynomial; receivers
    # must reject it as a dealer rather than fail while stacking the batches
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3,
                         crypto_mode=mode, commitment=scheme, seed=3)
    server, clients = build_sessions(cfg)
    honest_commit = clients[5].scheme.commit_batch
    clients[5].scheme.commit_batch = lambda coeffs: CommitmentBatch(
        honest_commit(coeffs).limbs[:, :-1]
    )
    weights, grads, root = make_inputs(cfg)
    res = run_iteration(cfg, server, clients, ServerMailbox(), 0, weights, grads, root)
    assert res.excluded == [5]
    assert res.roster == [u for u in range(1, 11) if u != 5]
    assert_matches_oracle(res, grads, root, cfg.scale, roster=res.roster)


def test_dealer_with_commitments_outside_the_subgroup_is_judged_alike_everywhere():
    # client 7 multiplies its x^1 commitments by q - 1, which has order 2;
    # before, receivers at even points accepted it and those at odd points
    # did not, so they combined different re-share sender sets and round 3
    # aborted.  Only the order-p part of an element counts, so all accept.
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3,
                         crypto_mode="real", seed=3)
    server, clients = build_sessions(cfg)
    honest_commit = clients[7].scheme.commit_batch
    q = clients[7].scheme.group.modulus

    def commit(coeffs):
        limbs = honest_commit(coeffs).limbs
        elems = limbs_to_ints(limbs)
        elems[:, 1] = elems[:, 1] * (q - 1) % q
        return CommitmentBatch(ints_to_limbs(elems, limbs.shape[2]))

    clients[7].scheme.commit_batch = commit
    weights, grads, root = make_inputs(cfg)
    res = run_iteration(cfg, server, clients, ServerMailbox(), 0, weights, grads, root)
    assert res.excluded == [] and res.offenders == []
    assert res.roster == list(range(1, 11))
    assert_matches_oracle(res, grads, root, cfg.scale)


# message kind -> (sender, round, recipient of the envelope, signed-for recipient)
FUZZ_MESSAGES = {
    "model": (SERVER_ID, R_MODEL, 4, 4),
    "commit": (4, R_SHARE, SERVER_ID, BROADCAST),
    "recommit": (4, R_RESHARE, SERVER_ID, BROADCAST),
    "final": (4, R_FINAL, SERVER_ID, SERVER_ID),
    "trust": (SERVER_ID, R_FINAL, 4, BROADCAST),
    "aggregate": (4, R_AGG, SERVER_ID, SERVER_ID),
}


def _bump_u32(body, offset, value=None):
    (old,) = struct.unpack_from("<I", body, offset)
    new = (old + 1) % 2**32 if value is None else value
    return body[:offset] + struct.pack("<I", new) + body[offset + 4 :]


# edits to a body without its signature; the header is the type byte and the
# u32 iteration, and the u32 after it is the first count of most payloads
FUZZ_EDITS = {
    "cut 1": lambda b: b[:-1],
    "cut to half": lambda b: b[: len(b) // 2],
    "cut to header": lambda b: b[:5],
    "append 9": lambda b: b + bytes(9),
    "type + 1": lambda b: bytes([(b[0] + 1) % 256]) + b[1:],
    "iteration + 1": lambda b: _bump_u32(b, 1),
    "u32 max": lambda b: _bump_u32(b, 5, 2**32 - 1),
    "u32 + 1": lambda b: _bump_u32(b, 5),
    "bytes 9-10 max": lambda b: b[:9] + b"\xff\xff" + b[11:],
    "last 8 max": lambda b: b[:-8] + b"\xff" * 8,
}


@pytest.mark.parametrize("edit", list(FUZZ_EDITS))
@pytest.mark.parametrize("message", list(FUZZ_MESSAGES))
def test_resigned_mutation_of_any_message_keeps_the_result_oracle_exact(message, edit):
    # each message kind, mutated and signed again with its sender's key, so
    # only the receiver's header and parse checks stand between it and the
    # state machine; losing client 4 leaves quorum, so no abort is expected
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3, seed=3)
    server, clients = build_sessions(cfg)
    sender, rnd, recipient, signed_for = FUZZ_MESSAGES[message]
    signer = server.crypto if sender == SERVER_ID else clients[sender].crypto
    mutate = edit_and_resign(signer, sender, signed_for, rnd, FUZZ_EDITS[edit])
    rule = TamperRule(round=rnd, sender=sender, recipient=recipient, mutate=mutate)
    mailbox = ServerMailbox(tamper_rules=[rule])
    weights, grads, root = make_inputs(cfg)
    res = run_iteration(cfg, server, clients, mailbox, 0, weights, grads, root)
    assert rule.hits == 1
    assert_matches_oracle(res, grads, root, cfg.scale, roster=res.roster)


@pytest.mark.parametrize("rnd", [R_FINAL, R_AGG], ids=["final", "aggregate"])
def test_truncated_signed_share_upload_makes_a_non_respondent(rnd):
    # the body ends inside its element vector; before the reads were
    # length-checked this raised a raw ValueError out of run_iteration
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3, seed=3)
    server, clients = build_sessions(cfg)
    mutate = truncate_and_resign(clients[4].crypto, 4, SERVER_ID, rnd)
    rule = TamperRule(round=rnd, sender=4, recipient=SERVER_ID, mutate=mutate)
    mailbox = ServerMailbox(tamper_rules=[rule])
    weights, grads, root = make_inputs(cfg)
    res = run_iteration(cfg, server, clients, mailbox, 0, weights, grads, root)
    assert rule.hits == 1
    assert 4 not in res.respondents[rnd]
    assert_matches_oracle(res, grads, root, cfg.scale)


@pytest.mark.parametrize("rnd", [R_SHARE, R_FINAL], ids=["broadcast", "final"])
def test_relay_cut_that_breaks_the_envelope_framing_makes_a_non_respondent(rnd):
    # the relay cuts the last byte off client 4's wire envelope, so its
    # length field no longer matches; before, the mailbox raised ChannelError
    # out of run_iteration
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3, seed=3)
    rule = TamperRule(round=rnd, sender=4, recipient=SERVER_ID, mutate=lambda wire: wire[:-1])
    res, grads, root, mailbox = run_once(cfg, tamper=[rule])
    _, _, _, honest = run_once(cfg)
    assert rule.hits == 1
    assert mailbox.up_bytes[(4, rnd)] == honest.up_bytes[(4, rnd)] - 1
    assert 4 not in res.respondents[rnd]
    assert_matches_oracle(res, grads, root, cfg.scale, roster=res.roster)


def test_share_bundle_cut_after_its_witness_count_gets_its_dealer_voted_out():
    # client 4 seals each peer a count-prefixed share column and a witness
    # count, a bundle of an earlier layout; before, reading the first witness
    # flag past the end of the bundle raised IndexError out of run_iteration
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3, seed=3)
    server, clients = build_sessions(cfg)
    dealer = clients[4]

    def seal(rnd, sharing, batch, shares, aad, bad_witnesses=False):
        for peer in dealer.roster0:
            if peer != dealer.id:
                plain = serialize_elems(shares[:, peer - 1]) + struct.pack("<I", shares.shape[0])
                box = dealer.crypto.box_with(peer, dealer.directory)
                yield peer, box.seal(rnd, dealer.iteration, plain, aad=aad)

    dealer._seal_columns = seal
    weights, grads, root = make_inputs(cfg)
    res = run_iteration(cfg, server, clients, ServerMailbox(), 0, weights, grads, root)
    assert all(clients[u].reported == [4] for u in clients if u != 4)
    assert res.excluded == [4]
    assert_matches_oracle(res, grads, root, cfg.scale, roster=res.roster)


def _box_offset(body, rnd):
    """Offset of the u32 box length in a dealt message body without its
    signature: after the model fields and the commitment block in round 0,
    right after the header in the dealing rounds."""
    r = _Reader(body, _HEADER.size)
    if rnd == R_MODEL:
        r.raw(8 * r.u32())  # weights
        r.f64(), r.u64(), r.ids()
        _read_commit_limbs(r)
    return r.off


def reseal_bundle(server, clients, intake, receiver, edit, trailer=b""):
    """Mutation of the dealt message to `receiver` in `intake`: the server's
    round-0 model message ("model") or client 4's round-1 share message
    ("share").  It opens the sealed bundle, applies `edit` to the plaintext,
    seals it again, puts `trailer` after the box, and signs the message again
    (over the dealer's broadcast digest in round 1), so that only the bundle
    layout stands between it and the receiver."""
    if intake == "model":
        dealer, src, rnd = SERVER_ID, server, R_MODEL
    else:
        dealer, src, rnd = 4, clients[4], R_SHARE
    dst = clients[receiver]

    def mutate(wire):
        env = Envelope.from_wire(wire)
        aad = b"model" if rnd == R_MODEL else hashlib.sha256(src.own_commit_body).digest()
        bind = b"" if rnd == R_MODEL else aad
        body = env.body[: len(env.body) - SIGNATURE_BYTES]
        at = _box_offset(body, rnd)
        plain = dst.crypto.box_with(dealer, dst.directory).open_in(rnd, 0, body[at + 4 :], aad=aad)
        sealed = src.crypto.box_with(receiver, src.directory).seal(rnd, 0, edit(plain), aad=aad)
        body = body[:at] + struct.pack("<I", len(sealed)) + sealed + trailer
        sig = src.crypto.sign(_sig_context(dealer, receiver, rnd, 0, body + bind))
        return Envelope(env.sender, env.recipient, env.round, body + sig).to_wire()

    return mutate, dealer, rnd


# edits to a bundle plaintext of n polynomials: n field elements, then n
# 32-byte witness slots if the scheme has `witnesses`
BUNDLE_EDITS = {
    "honest": lambda p, n, witnesses: p,
    "one byte short": lambda p, n, witnesses: p[:-1],
    "one byte long": lambda p, n, witnesses: p + b"\x00",
    "one element more": lambda p, n, witnesses: p[: 8 * n] + bytes(8) + p[8 * n :],
    "one element fewer": lambda p, n, witnesses: p[: 8 * (n - 1)] + p[8 * n :],
    "non-canonical element": lambda p, n, witnesses: struct.pack(
        "<Q", struct.unpack_from("<Q", p)[0] + MERSENNE61
    )
    + p[8:],
    "other scheme's witness block": lambda p, n, witnesses: p[: 8 * n]
    + (b"" if witnesses else bytes(32 * n)),
}
TRAILING_BYTE = "trailing byte after the box"


@pytest.mark.parametrize("intake", ["model", "share"])
@pytest.mark.parametrize("scheme", ["coefficient", "constant"])
@pytest.mark.parametrize("case", [*BUNDLE_EDITS, TRAILING_BYTE])
def test_share_bundle_off_the_layout_is_reported(case, scheme, intake):
    # the server's round-0 bundle to client 7, or client 4's round-1 bundle
    # to it, is re-sealed and re-signed in each malformed form; only the
    # honest bundle may pass.  A full block of witness elements under the
    # coefficient scheme used to be accepted and ignored.  A bad share
    # bundle gets its dealer reported; a bad model bundle makes client 7 a
    # non-respondent.
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3,
                         commitment=scheme, seed=3)
    server, clients = build_sessions(cfg)
    edit = BUNDLE_EDITS.get(case, BUNDLE_EDITS["honest"])
    trailer = b"\x00" if case == TRAILING_BYTE else b""
    witnesses = scheme == "constant"
    mutate, dealer, rnd = reseal_bundle(
        server, clients, intake, 7, lambda p: edit(p, cfg.n_poly, witnesses), trailer
    )
    rule = TamperRule(round=rnd, sender=dealer, recipient=7, mutate=mutate)
    weights, grads, root = make_inputs(cfg)
    res = run_iteration(cfg, server, clients, ServerMailbox(tamper_rules=[rule]), 0, weights, grads, root)
    assert rule.hits == 1
    assert res.excluded == []
    if case == "honest":
        assert all(clients[u].reported == [] for u in clients)
        assert_matches_oracle(res, grads, root, cfg.scale)
    elif intake == "share":
        assert clients[7].reported == [4]
        assert all(clients[u].reported == [] for u in clients if u != 7)
    else:
        for r in (R_SHARE, R_RESHARE, R_FINAL, R_AGG):
            assert 7 not in res.respondents[r]
        assert_matches_oracle(res, grads, root, cfg.scale, roster=[u for u in grads if u != 7])


def _resign_to_every_client(server, cfg, rnd, signed_for, edit):
    """One rule per client that applies `edit` to the server's message in
    round `rnd` and signs the result again with the server's key."""
    return [
        TamperRule(
            round=rnd,
            sender=SERVER_ID,
            recipient=u,
            mutate=edit_and_resign(
                server.crypto, SERVER_ID, u if signed_for is None else signed_for, rnd, edit
            ),
        )
        for u in range(1, cfg.n_clients + 1)
    ]


def test_model_roster_naming_an_unknown_client_aborts():
    # the server signs a roster with an extra id 99; before, every client
    # raised IndexError while sealing a share column for party 99
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3, seed=3)
    server, clients = build_sessions(cfg)
    # header, weights (u32 count, f64 each), reference norm, norm bound
    at = 5 + 4 + 8 * cfg.dim + 8 + 8

    def add_unknown_id(body):
        (n,) = struct.unpack_from("<I", body, at)
        end = at + 4 + 4 * n
        return body[:at] + struct.pack("<I", n + 1) + body[at + 4 : end] + struct.pack("<I", 99) + body[end:]

    rules = _resign_to_every_client(server, cfg, R_MODEL, None, add_unknown_id)
    weights, grads, root = make_inputs(cfg)
    with pytest.raises(ProtocolAbort, match=f"round {R_SHARE}: 0 respondents"):
        run_iteration(cfg, server, clients, ServerMailbox(tamper_rules=rules), 0, weights, grads, root)
    assert all(rule.hits == 1 for rule in rules)


def test_trust_message_with_a_numerator_missing_aborts():
    # the server signs one trust numerator fewer than its roster names;
    # before, every client's aggregate product raised ValueError
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3, seed=3)
    server, clients = build_sessions(cfg)

    def drop_last_numerator(body):
        (n_ids,) = struct.unpack_from("<I", body, 5)
        at = 5 + 4 + 4 * n_ids
        (n,) = struct.unpack_from("<I", body, at)
        end = at + 4 + 8 * n
        return body[:at] + struct.pack("<I", n - 1) + body[at + 4 : end - 8] + body[end:]

    rules = _resign_to_every_client(server, cfg, R_FINAL, BROADCAST, drop_last_numerator)
    weights, grads, root = make_inputs(cfg)
    with pytest.raises(ProtocolAbort, match=f"round {R_AGG}: 0 respondents"):
        run_iteration(cfg, server, clients, ServerMailbox(tamper_rules=rules), 0, weights, grads, root)
    assert all(rule.hits == 1 for rule in rules)


def relay_deals_as_party_zero(server, cfg, rounds):
    """Make the relay deal in each of `rounds` after forwarding the clients'
    broadcasts: a commitment broadcast and a sealed bundle for every client,
    built as a client builds them but signed and sealed with the server's
    keys as sender 0, which is in the key directory."""
    forward = server.forward_commits
    server.flags = ClientFlags()

    def forward_and_deal(mailbox, rnd):
        respondents = forward(mailbox, rnd)
        if rnd in rounds:
            if rnd == R_SHARE:
                sharing, n_polys, trailer = cfg.grad_cfg, cfg.n_poly, b""
            else:
                # the bundle size the clients expect once the relay is in the layout
                n_polys = 2 * dotprod.group_width(len(server.layout) + 1, cfg.reshare_pack)
                sharing, trailer = cfg.reshare_cfg, _ids_blob([])
            secrets = np.zeros((n_polys, sharing.pack), dtype=np.uint64)
            batch = share_batch(sharing, secrets, np.random.default_rng(rnd))
            envs, _, _ = ClientSession._deal(server, rnd, sharing, batch, trailer)
            for env in envs:
                for peer in server.roster0 if env.recipient == SERVER_ID else [env.recipient]:
                    mailbox.forward(env, peer)
        return respondents

    server.forward_commits = forward_and_deal


@pytest.mark.parametrize("rounds", [(R_SHARE,), (R_SHARE, R_RESHARE)], ids=["round 1", "rounds 1 and 2"])
def test_a_relay_dealing_as_party_zero_is_ignored(rounds):
    # the server's signature verifies and id 0 has keys, but 0 is not in the
    # signed round-0 roster; before, clients took the relay into their
    # layout, so the iteration aborted in round 3 (round 1 alone) or
    # `reduction_weights` raised ShareError for party 0 (both rounds)
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3, seed=3)
    server, clients = build_sessions(cfg)
    relay_deals_as_party_zero(server, cfg, rounds)
    weights, grads, root = make_inputs(cfg)
    res = run_iteration(cfg, server, clients, ServerMailbox(), 0, weights, grads, root)
    assert res.roster == list(range(1, 11))
    assert res.offenders == [] and res.excluded == []
    assert all(clients[u].layout == list(range(1, 11)) for u in clients)
    assert_matches_oracle(res, grads, root, cfg.scale)


def test_too_many_wrong_computations_abort_naming_the_round():
    # four wrong final vectors among ten exceed the decoder's budget of three
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3, seed=3)
    flags = {u: ClientFlags(wrong_computation=True) for u in (2, 5, 7, 9)}
    with pytest.raises(ProtocolAbort, match=f"round {R_FINAL}: "):
        run_once(cfg, flags=flags)


def test_iteration_beyond_the_nonce_range_is_refused():
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3, seed=3)
    server, clients = build_sessions(cfg)
    weights, grads, root = make_inputs(cfg)
    for iteration in (MAX_ITERATIONS, -1):
        with pytest.raises(ProtocolError, match="rekey"):
            run_iteration(cfg, server, clients, ServerMailbox(), iteration, weights, grads, root)


def test_envelopes_for_a_silent_client_are_dropped_not_kept():
    # client 4 falls silent from round 3, so the round-2 traffic queued for it
    # is never collected; the iteration drops it without changing the meters
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3, seed=3)
    res, grads, root, mailbox = run_once(cfg, silenced={4: R_FINAL})
    assert mailbox.discard_undelivered() == 0
    up, down = Counter(), Counter()
    for (_, rnd), n in mailbox.up_bytes.items():
        up[rnd] += n
    for (_, rnd), n in mailbox.down_bytes.items():
        down[rnd] += n
    # per-round totals as metered before queued envelopes were dropped
    assert up == {0: 17040, 1: 31140, 2: 31180, 3: 3456, 4: 1494}
    assert down == {0: 17040, 1: 167940, 2: 152914, 3: 3456, 4: 1494}
    assert (mailbox.bytes_up(4), mailbox.bytes_down(4)) == (6232, 17130)
    assert res.respondents[R_FINAL] == [u for u in range(1, 11) if u != 4]


@pytest.mark.parametrize("message", ["model", "trust", "sealed"])
def test_client_that_cannot_parse_the_server_message_goes_quiet(message):
    # a validly signed server message to client 4 that ends 3 bytes early, or
    # whose sealed shares fail to open; before, the client's ProtocolError or
    # DecryptionError escaped run_iteration
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3, seed=3)
    server, clients = build_sessions(cfg)
    rnd, context_recipient = (R_FINAL, BROADCAST) if message == "trust" else (R_MODEL, 4)
    if message == "sealed":
        mutate = edit_and_resign(server.crypto, SERVER_ID, 4, rnd, flip_sealed_byte)
    else:
        mutate = truncate_and_resign(server.crypto, SERVER_ID, context_recipient, rnd)
    rule = TamperRule(round=rnd, sender=SERVER_ID, recipient=4, mutate=mutate)
    mailbox = ServerMailbox(tamper_rules=[rule])
    weights, grads, root = make_inputs(cfg)
    res = run_iteration(cfg, server, clients, mailbox, 0, weights, grads, root)
    assert rule.hits == 1
    later = (R_AGG,) if message == "trust" else (R_SHARE, R_RESHARE, R_FINAL, R_AGG)
    for r in later:
        assert 4 not in res.respondents[r]
    survivors = None if message == "trust" else [u for u in grads if u != 4]
    assert_matches_oracle(res, grads, root, cfg.scale, roster=survivors)


@pytest.mark.parametrize(
    "field,value",
    [("ref_norm", float("nan")), ("ref_norm", float("inf")), ("ref_norm", 1e30),
     ("ref_norm", -1.0), ("norm_bound", 2**64 - 1)],
)
def test_client_refuses_a_reference_norm_or_bound_beyond_the_caps(field, value):
    # the server re-signs client 4's model message with a reference norm or a
    # norm bound no honest server sends; before, client 4 quantized with a
    # RuntimeWarning (an error under this suite's warning filter) or shared
    # under the inflated bound instead of going quiet
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3, seed=3)
    server, clients = build_sessions(cfg)
    # header, then weights (u32 count, f64 each); the norm (f64) and bound (u64) follow
    at = 5 + 4 + 8 * cfg.dim
    if field == "ref_norm":
        packed = struct.pack("<d", value)
    else:
        at, packed = at + 8, struct.pack("<Q", value)

    def overwrite(body):
        return body[:at] + packed + body[at + len(packed) :]

    mutate = edit_and_resign(server.crypto, SERVER_ID, 4, R_MODEL, overwrite)
    rule = TamperRule(round=R_MODEL, sender=SERVER_ID, recipient=4, mutate=mutate)
    weights, grads, root = make_inputs(cfg)
    res = run_iteration(cfg, server, clients, ServerMailbox(tamper_rules=[rule]), 0, weights, grads, root)
    assert rule.hits == 1
    for r in (R_SHARE, R_RESHARE, R_FINAL, R_AGG):
        assert 4 not in res.respondents[r]
    assert_matches_oracle(res, grads, root, cfg.scale, roster=[u for u in grads if u != 4])


def test_reference_shares_for_another_dimension_make_clients_quiet():
    # a server built for dim 40 deals every client twice the reference shares
    # it expects, under matching commitments; before, round 2 raised a raw
    # ValueError out of run_iteration
    small = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3, seed=3)
    wide = ProtocolConfig(n_clients=10, dim=40, pack=2, reshare_pack=2, degree=3, seed=3)
    server, _ = build_sessions(wide)
    _, clients = build_sessions(small)
    weights, grads, _ = make_inputs(small)
    _, _, root = make_inputs(wide)
    with pytest.raises(ProtocolAbort, match="respondents"):
        run_iteration(small, server, clients, ServerMailbox(), 0, weights, grads, root)


@pytest.mark.parametrize("mode", ["fast", "real"])
def test_non_canonical_reference_share_makes_the_client_quiet(mode):
    # the server hands client 4 one reference share as v + p; real mode's
    # generator has order p, so g^(v+p) == g^v and only a range check sees it
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3,
                         crypto_mode=mode, seed=3)
    server, clients = build_sessions(cfg)
    honest_seal = server._seal_columns

    def seal(rnd, sharing, batch, shares, aad, bad_witnesses=False):
        shares = shares.copy()
        shares[0, 3] += np.uint64(MERSENNE61)
        return honest_seal(rnd, sharing, batch, shares, aad, bad_witnesses)

    server._seal_columns = seal
    weights, grads, root = make_inputs(cfg)
    res = run_iteration(cfg, server, clients, ServerMailbox(), 0, weights, grads, root)
    for r in (R_SHARE, R_RESHARE, R_FINAL, R_AGG):
        assert 4 not in res.respondents[r]
    assert_matches_oracle(res, grads, root, cfg.scale, roster=[u for u in grads if u != 4])


@pytest.mark.parametrize(
    "kind,fast", [("coefficient", True), ("coefficient", False), ("constant", True)]
)
def test_commit_blob_matches_per_element_encoding(kind, fast):
    scheme = make_scheme(kind, MERSENNE61, max_degree=5, fast=fast)
    coeffs = fastops.rand_elems(np.random.default_rng(4), (7, 6), MERSENNE61)
    comms = scheme.commit_batch(coeffs)
    want = struct.pack("<IH", len(comms), len(comms[0].elements)) + b"".join(
        int(e).to_bytes(COMMITMENT_BYTES, "little") for c in comms for e in c.elements
    )
    blob = _commit_blob(comms)
    assert blob == want
    parsed = _read_commit_limbs(_Reader(blob))
    assert [c.elements for c in parsed] == [c.elements for c in comms]


def test_commit_blob_refuses_an_element_wider_than_the_wire_width():
    # five uint64 limbs hold 40 bytes; a non-zero fifth limb does not fit in 32
    limbs = np.zeros((2, 3, 5), dtype=np.uint64)
    limbs[1, 2, 4] = 1
    assert COMMITMENT_BYTES == 32
    with pytest.raises(ProtocolError, match="wider than 32 bytes"):
        _commit_blob(CommitmentBatch(limbs))
    limbs[1, 2, 4] = 0
    assert len(_commit_blob(CommitmentBatch(limbs))) == 6 + 2 * 3 * 32
