"""Authenticated point-to-point messaging through an untrusted relay server.

Every client holds a signing identity and a key-agreement identity.  Pairwise
symmetric keys come from X25519 agreement run through HKDF; payloads that must
stay hidden from the server travel inside AES-GCM with a deterministic
never-reused nonce derived from (sender, recipient, round, iteration).  The
nonce holds the iteration in 3 bytes, so one set of keys serves iterations
0 .. MAX_ITERATIONS - 1; going further would reuse nonces and needs new keys.
Signatures cover header and body so the relay cannot alter, redirect, or
replay a message without detection.

Two crypto modes share one wire format and identical byte counts:

* ``real``: Ed25519 signatures, actual X25519 + AES-GCM.
* ``fast``: HMAC-SHA256 tags padded to the Ed25519 signature width (the
  verification key is the shared secret, fine for single-process simulation);
  encryption stays real AES-GCM.

The ``ServerMailbox`` is the relay: it stores envelopes, delivers them in a
deterministic order, enforces dropout schedules, applies test-injected
tampering, and meters every byte per (party, round, direction).
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

SERVER_ID = 0

HEADER_STRUCT = struct.Struct("<IIBI")  # sender, recipient, round, body length
SIGNATURE_BYTES = 64
GCM_TAG_BYTES = 16
GCM_NONCE_BYTES = 12
# iterations one set of pairwise keys can serve: the nonce's iteration field is 3 bytes
MAX_ITERATIONS = 1 << 24


class ChannelError(Exception):
    """Base class for transport failures."""


class DecryptionError(ChannelError):
    """Ciphertext failed authentication or decryption."""


def pad_to(data: bytes, width: int) -> bytes:
    if len(data) > width:
        raise ChannelError(f"value needs {len(data)} bytes, width is {width}")
    return data + b"\x00" * (width - len(data))


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    sender: int
    recipient: int
    round: int
    body: bytes

    def to_wire(self) -> bytes:
        return HEADER_STRUCT.pack(self.sender, self.recipient, self.round, len(self.body)) + self.body

    @classmethod
    def from_wire(cls, data: bytes) -> "Envelope":
        if len(data) < HEADER_STRUCT.size:
            raise ChannelError("short envelope")
        sender, recipient, rnd, blen = HEADER_STRUCT.unpack_from(data)
        body = data[HEADER_STRUCT.size :]
        if len(body) != blen:
            raise ChannelError("envelope length mismatch")
        return cls(sender, recipient, rnd, body)

    @property
    def wire_bytes(self) -> int:
        return HEADER_STRUCT.size + len(self.body)


# ---------------------------------------------------------------------------
# Identities and pairwise boxes
# ---------------------------------------------------------------------------


def _seeded_bytes(seed: int, *context: int) -> bytes:
    h = hashlib.sha256(b"packsecagg-key")
    for part in (seed, *context):
        h.update(int(part).to_bytes(8, "little", signed=False))
    return h.digest()


@dataclass
class Directory:
    """Public view of every party's identities."""

    mode: str
    sig_public: dict[int, object] = field(default_factory=dict)
    kx_public: dict[int, X25519PublicKey] = field(default_factory=dict)

    def verify(self, sender: int, data: bytes, signature: bytes) -> bool:
        try:
            key = self.sig_public[sender]
        except KeyError:
            return False
        if self.mode == "fast":
            want = pad_to(hmac.digest(key, data, "sha256"), SIGNATURE_BYTES)
            return hmac.compare_digest(want, signature)
        try:
            key.verify(signature, data)
            return True
        except InvalidSignature:
            return False


class PairwiseBox:
    """AES-GCM channel between two parties with deterministic nonces."""

    def __init__(self, my_id: int, peer_id: int, key: bytes):
        self._me = my_id
        self._peer = peer_id
        self._gcm = AESGCM(key)

    @staticmethod
    def _nonce(src: int, dst: int, rnd: int, iteration: int) -> bytes:
        """12 bytes: sender, recipient, round, then iteration < MAX_ITERATIONS."""
        return struct.pack("<IIB", src, dst, rnd & 0xFF) + int(iteration).to_bytes(3, "little")

    def seal(self, rnd: int, iteration: int, plaintext: bytes, aad: bytes = b"") -> bytes:
        nonce = self._nonce(self._me, self._peer, rnd, iteration)
        return nonce + self._gcm.encrypt(nonce, plaintext, aad)

    def open_in(self, rnd: int, iteration: int, ciphertext: bytes, aad: bytes = b"") -> bytes:
        want = self._nonce(self._peer, self._me, rnd, iteration)
        if len(ciphertext) < GCM_NONCE_BYTES + GCM_TAG_BYTES or ciphertext[:GCM_NONCE_BYTES] != want:
            raise DecryptionError("bad or replayed nonce")
        try:
            return self._gcm.decrypt(want, ciphertext[GCM_NONCE_BYTES:], aad)
        except InvalidTag as exc:
            raise DecryptionError("ciphertext failed authentication") from exc


class PartyCrypto:
    """One party's private keys plus cached pairwise boxes."""

    def __init__(self, party_id: int, mode: str, seed: int):
        self.party_id = party_id
        self.mode = mode
        if mode == "fast":
            self._sig_key = _seeded_bytes(seed, party_id, 1)
        else:
            self._sig_key = Ed25519PrivateKey.from_private_bytes(_seeded_bytes(seed, party_id, 1))
        self._kx_key = X25519PrivateKey.from_private_bytes(_seeded_bytes(seed, party_id, 2))
        self._boxes: dict[int, PairwiseBox] = {}

    def sig_public(self):
        if self.mode == "fast":
            return self._sig_key
        return self._sig_key.public_key()

    def kx_public(self) -> X25519PublicKey:
        return self._kx_key.public_key()

    def sign(self, data: bytes) -> bytes:
        if self.mode == "fast":
            return pad_to(hmac.digest(self._sig_key, data, "sha256"), SIGNATURE_BYTES)
        return self._sig_key.sign(data)

    def box_with(self, peer_id: int, directory: Directory) -> PairwiseBox:
        box = self._boxes.get(peer_id)
        if box is None:
            shared = self._kx_key.exchange(directory.kx_public[peer_id])
            lo, hi = sorted((self.party_id, peer_id))
            key = HKDF(
                algorithm=SHA256(),
                length=32,
                salt=b"packsecagg-box",
                info=struct.pack("<II", lo, hi),
            ).derive(shared)
            box = PairwiseBox(self.party_id, peer_id, key)
            self._boxes[peer_id] = box
        return box


def setup_keys(
    party_ids: Iterable[int], mode: str = "fast", seed: int = 0
) -> tuple[dict[int, PartyCrypto], Directory]:
    """Deterministic identities for every party (server included)."""
    if mode not in ("fast", "real"):
        raise ChannelError(f"unknown crypto mode {mode!r}")
    parties = {pid: PartyCrypto(pid, mode, seed) for pid in party_ids}
    directory = Directory(mode=mode)
    for pid, pc in parties.items():
        directory.sig_public[pid] = pc.sig_public()
        directory.kx_public[pid] = pc.kx_public()
    return parties, directory


# ---------------------------------------------------------------------------
# Relay server mailbox
# ---------------------------------------------------------------------------


@dataclass
class TamperRule:
    """Mutate matching envelopes in transit (for integrity tests)."""

    round: int
    sender: int
    recipient: int
    mutate: Callable[[bytes], bytes]
    hits: int = 0

    def matches(self, env: Envelope) -> bool:
        return env.round == self.round and env.sender == self.sender and env.recipient == self.recipient


class ServerMailbox:
    """Store-and-forward relay with byte metering.

    ``silenced`` maps a party id to the first round index at which it stops
    communicating (both directions), which is how dropouts are simulated.
    """

    def __init__(
        self,
        silenced: dict[int, int] | None = None,
        tamper_rules: list[TamperRule] | None = None,
    ):
        self.silenced = dict(silenced or {})
        self.tamper_rules = list(tamper_rules or [])
        self._store: dict[tuple[int, int], list[Envelope]] = defaultdict(list)
        self.up_bytes: dict[tuple[int, int], int] = defaultdict(int)
        self.down_bytes: dict[tuple[int, int], int] = defaultdict(int)
        self.message_count = 0

    def is_silent(self, party: int, rnd: int) -> bool:
        cutoff = self.silenced.get(party)
        return cutoff is not None and rnd >= cutoff

    def submit(self, env: Envelope) -> bool:
        """Accept an envelope for forwarding; drops silently if the sender or
        the recipient is scheduled as dropped.  The envelope itself is stored,
        unless a tamper rule rewrites its wire form: then the rewritten form
        is metered and stored, or dropped if it no longer parses as an
        envelope.  Returns acceptance."""
        if self.is_silent(env.sender, env.round):
            return False
        size = env.wire_bytes
        stored: Envelope | None = env
        rules = [rule for rule in self.tamper_rules if rule.matches(env)]
        if rules:
            wire = env.to_wire()
            for rule in rules:
                wire = rule.mutate(wire)
                rule.hits += 1
            size = len(wire)
            try:
                stored = Envelope.from_wire(wire)
            except ChannelError:
                stored = None
        self.up_bytes[(env.sender, env.round)] += size
        self.message_count += 1
        if stored is None:
            return False
        if not self.is_silent(env.recipient, env.round):
            self._store[(env.recipient, env.round)].append(stored)
        return True

    def submit_all(self, envs: Iterable[Envelope]) -> None:
        for env in envs:
            self.submit(env)

    def forward(self, env: Envelope, recipient: int) -> None:
        """Relay a stored broadcast-type envelope to another recipient.  The
        upload was already metered at submission; only the recipient's
        download will be counted, at delivery."""
        if not self.is_silent(recipient, env.round):
            self._store[(recipient, env.round)].append(Envelope(env.sender, recipient, env.round, env.body))

    def deliver(self, recipient: int, rnd: int) -> list[Envelope]:
        """Hand over everything queued for (recipient, round), ordered by
        sender id, and meter the download."""
        envs = sorted(self._store.pop((recipient, rnd), []), key=attrgetter("sender"))
        if envs:
            self.down_bytes[(recipient, rnd)] += sum(env.wire_bytes for env in envs)
        return envs

    def discard_undelivered(self) -> int:
        """Drop every envelope still queued (addressed to a party that never
        collected it) and return how many there were.  Downloads are metered
        at delivery, so the byte counters do not change."""
        dropped = sum(len(q) for q in self._store.values())
        self._store.clear()
        return dropped

    # -- queries ------------------------------------------------------------

    def bytes_up(self, party: int) -> int:
        return sum(v for (pid, _), v in self.up_bytes.items() if pid == party)

    def bytes_down(self, party: int) -> int:
        return sum(v for (pid, _), v in self.down_bytes.items() if pid == party)

    def party_total(self, party: int) -> int:
        return self.bytes_up(party) + self.bytes_down(party)

    def round_totals(self) -> dict[int, int]:
        out: dict[int, int] = defaultdict(int)
        for (_, rnd), v in self.up_bytes.items():
            out[rnd] += v
        return dict(out)
