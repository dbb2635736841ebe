"""Tests for the four-round aggregation state machine.

The reference point everywhere is ``plaintext_trust_step``: the trust-weighted
aggregation rule computed directly on the submitted gradients.  A protocol run
over the mailbox must reproduce its integer numerators, denominator, and float
update exactly, whatever mix of dropouts, corrupted dealers, and wrong
computations the run contains, as long as the surviving honest set stays above
the configured thresholds.
"""

import struct
from collections import Counter

import numpy as np
import pytest

from packsecagg import fastops
from packsecagg.channel import (
    MAX_ITERATIONS,
    SERVER_ID,
    SIGNATURE_BYTES,
    Envelope,
    ServerMailbox,
    TamperRule,
)
from packsecagg.field import MERSENNE61
from packsecagg.protocol import (
    BROADCAST,
    ClientFlags,
    ProtocolAbort,
    ProtocolConfig,
    ProtocolError,
    R_AGG,
    R_FINAL,
    R_MODEL,
    R_RESHARE,
    R_SHARE,
    _commit_blob,
    _read_commit_limbs,
    _Reader,
    _sig_context,
    build_sessions,
    normalize_and_quantize,
    plaintext_trust_step,
    run_iteration,
    trust_numerator,
)
from packsecagg.vss import CommitmentBatch, make_scheme

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
    assert up == {0: 17400, 1: 32940, 2: 32980, 3: 3456, 4: 1494}
    assert down == {0: 17400, 1: 171540, 2: 156172, 3: 3456, 4: 1494}
    assert (mailbox.bytes_up(4), mailbox.bytes_down(4)) == (6592, 17508)
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
    "kind,fast", [("coefficient", True), ("coefficient", False), ("constant", True)]
)
def test_commit_blob_matches_per_element_encoding(kind, fast):
    width = 32
    scheme = make_scheme(kind, MERSENNE61, max_degree=5, fast=fast)
    coeffs = fastops.rand_elems(np.random.default_rng(4), (7, 6), MERSENNE61)
    comms = scheme.commit_batch(coeffs)
    want = struct.pack("<I", len(comms)) + b"".join(
        struct.pack("<H", len(c.elements))
        + b"".join(int(e).to_bytes(width, "little") for e in c.elements)
        for c in comms
    )
    blob = _commit_blob(comms, width)
    assert blob == want
    parsed = _read_commit_limbs(_Reader(blob), width)
    assert [c.elements for c in parsed] == [c.elements for c in comms]
