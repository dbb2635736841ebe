"""Tests for the authenticated transport and the metering relay."""

import pytest

from packsecagg.channel import (
    DEFAULT_SIZE_MODEL,
    SIGNATURE_BYTES,
    AuthenticationError,
    ChannelError,
    DecryptionError,
    Envelope,
    ServerMailbox,
    SizeModel,
    TamperRule,
    pad_to,
    setup_keys,
)


def test_envelope_wire_roundtrip():
    env = Envelope(sender=3, recipient=7, round=2, body=b"hello world")
    wire = env.to_wire()
    assert len(wire) == env.wire_bytes == 13 + 11
    assert Envelope.from_wire(wire) == env
    with pytest.raises(ChannelError):
        Envelope.from_wire(wire[:-1])


@pytest.mark.parametrize("mode", ["fast", "real"])
def test_key_setup_is_deterministic(mode):
    a1, d1 = setup_keys([0, 1, 2], mode=mode, seed=9)
    a2, d2 = setup_keys([0, 1, 2], mode=mode, seed=9)
    b1, _ = setup_keys([0, 1, 2], mode=mode, seed=10)
    msg = b"probe"
    assert a1[1].sign(msg) == a2[1].sign(msg)
    assert a1[1].sign(msg) != b1[1].sign(msg)
    assert d1.verify(1, msg, a2[1].sign(msg))


@pytest.mark.parametrize("mode", ["fast", "real"])
def test_seal_open_roundtrip_and_failures(mode):
    parties, directory = setup_keys([1, 2], mode=mode, seed=1)
    box12 = parties[1].box_with(2, directory)
    box21 = parties[2].box_with(1, directory)
    ct = box12.seal(3, 0, b"secret share", aad=b"hdr")
    assert box21.open_in(3, 0, ct, aad=b"hdr") == b"secret share"
    with pytest.raises(DecryptionError):
        box21.open_in(3, 0, ct, aad=b"other")
    flipped = ct[:-1] + bytes([ct[-1] ^ 1])
    with pytest.raises(DecryptionError):
        box21.open_in(3, 0, flipped, aad=b"hdr")
    with pytest.raises(DecryptionError):
        box21.open_in(4, 0, ct, aad=b"hdr")  # wrong round -> wrong nonce
    with pytest.raises(DecryptionError):
        box12.open_in(3, 0, ct, aad=b"hdr")  # reflected back at the sender


def test_nonces_distinct_across_rounds_and_iterations():
    parties, directory = setup_keys([1, 2], mode="fast", seed=2)
    box = parties[1].box_with(2, directory)
    nonces = {box.seal(r, it, b"x")[:12] for r in range(5) for it in range(5)}
    assert len(nonces) == 25


@pytest.mark.parametrize("mode", ["fast", "real"])
def test_signatures(mode):
    parties, directory = setup_keys([0, 1, 2], mode=mode, seed=4)
    sig = parties[1].sign(b"payload")
    assert len(sig) == SIGNATURE_BYTES
    assert directory.verify(1, b"payload", sig)
    assert not directory.verify(2, b"payload", sig)
    assert not directory.verify(1, b"payload!", sig)
    assert not directory.verify(1, b"payload", sig[:-1] + bytes([sig[-1] ^ 0x80]))
    assert not directory.verify(99, b"payload", sig)


def test_mailbox_orders_and_meters():
    mb = ServerMailbox()
    for sender in (5, 2, 9):
        mb.submit(Envelope(sender, 0, 1, bytes(10 * sender)))
    got = mb.deliver(0, 1)
    assert [e.sender for e in got] == [2, 5, 9]
    assert mb.bytes_up(5) == 13 + 50
    assert mb.bytes_down(0) == sum(13 + 10 * s for s in (2, 5, 9))
    assert mb.deliver(0, 1) == []  # drained
    assert mb.round_totals() == {1: sum(13 + 10 * s for s in (2, 5, 9))}


def test_mailbox_silences_scheduled_dropouts():
    mb = ServerMailbox(silenced={7: 2})
    assert mb.submit(Envelope(7, 0, 1, b"early"))  # round 1 < cutoff
    assert not mb.submit(Envelope(7, 0, 2, b"late"))
    mb.submit(Envelope(0, 7, 2, b"to the dead"))
    assert mb.deliver(7, 2) == []
    assert mb.bytes_up(0) > 0  # upload still happened
    assert mb.bytes_down(7) == 0


def test_mailbox_tamper_rule_applies():
    def flip(wire: bytes) -> bytes:
        i = len(wire) - 1
        return wire[:i] + bytes([wire[i] ^ 0x01])

    rule = TamperRule(round=1, sender=3, recipient=4, mutate=flip)
    mb = ServerMailbox(tamper_rules=[rule])
    mb.submit(Envelope(3, 4, 1, b"\x00\x00"))
    mb.submit(Envelope(3, 5, 1, b"\x00\x00"))
    (env,) = mb.deliver(4, 1)
    assert env.body == b"\x00\x01"
    (clean,) = mb.deliver(5, 1)
    assert clean.body == b"\x00\x00"
    assert rule.hits == 1


def test_record_transfer_matches_real_submission():
    real = ServerMailbox()
    env = Envelope(1, 2, 3, bytes(100))
    real.submit(env)
    real.deliver(2, 3)
    acct = ServerMailbox()
    acct.record_transfer(1, 2, 3, env.wire_bytes)
    assert real.up_bytes == acct.up_bytes
    assert real.down_bytes == acct.down_bytes
    assert real.message_count == acct.message_count


def test_size_model_arithmetic():
    m = SizeModel()
    assert m.elems(10) == 4 + 80
    assert m.ids(3) == 4 + 12
    assert m.sealed(100) == 128
    assert DEFAULT_SIZE_MODEL.header_bytes == 13
    with pytest.raises(ChannelError):
        pad_to(b"12345", 4)
    assert pad_to(b"ab", 4) == b"ab\x00\x00"
