"""Robust privacy-preserving federated aggregation.

Clients share quantized gradients with packed verifiable secret sharing,
compute pairwise products against a server-trusted reference gradient, and
re-share the results so the server can decode per-client dot products and
norms (never the gradients themselves) with Reed-Solomon error correction.
Trust scores derived from those dot products weight the aggregate, which
makes the update robust to poisoned gradients while a crypto layer of
commitments, signatures, and authenticated encryption makes every share
bundle tamper-evident.

Layers, bottom up:

- ``field`` / ``poly``: prime-field scalars, exact polynomial and matrix
  routines.
- ``fastops``: vectorized arrays, the cached interpolation matrices,
  fixed-point quantization.
- ``sharing`` / ``rsdecode``: packed Shamir dealing and reconstruction,
  error-locating decoding.
- ``vss`` / ``channel``: commitment schemes, signed + sealed envelopes, and
  the metered server mailbox.
- ``dotprod``: the share / multiply / re-share / reduce / decode pipeline.
- ``protocol``: the four-round client/server state machines and the
  plaintext oracle they must match.
- ``simulation`` / ``bench`` / ``cli``: multi-party training runs with
  configurable adversaries, cost accounting, and the command line.
"""

from .bench import predict_comm, sweep_comm, sweep_comp
from .channel import ServerMailbox
from .dotprod import pipeline_dot_products
from .field import DEFAULT_SCALE, MERSENNE61
from .protocol import (
    ClientFlags,
    ProtocolConfig,
    RoundResult,
    build_sessions,
    plaintext_trust_step,
    run_iteration,
)
from .rsdecode import rs_decode
from .sharing import SharingConfig, reconstruct, share_batch
from .simulation import Behavior, Metrics, SyntheticTask, run_experiment
from .vss import make_scheme

__all__ = [
    "DEFAULT_SCALE",
    "MERSENNE61",
    "Behavior",
    "ClientFlags",
    "Metrics",
    "ProtocolConfig",
    "RoundResult",
    "ServerMailbox",
    "SharingConfig",
    "SyntheticTask",
    "build_sessions",
    "make_scheme",
    "pipeline_dot_products",
    "plaintext_trust_step",
    "predict_comm",
    "reconstruct",
    "rs_decode",
    "run_experiment",
    "run_iteration",
    "share_batch",
    "sweep_comm",
    "sweep_comp",
]

__version__ = "0.1.0"
