"""Communication and computation accounting for the aggregation protocol.

Two instruments, kept deliberately independent of each other:

* A closed-form byte predictor (`predict_comm`): per-role, per-round wire
  bytes for one honest iteration, written out as arithmetic over the message
  layouts and the fixed wire widths (`protocol.COMMITMENT_BYTES` and
  `WITNESS_BYTES`, the channel's header, signature and AES-GCM sizes).  It
  never touches the serializers.
* A measured run (`measure_comm`): the real protocol driven through a
  metering mailbox, byte counts read off the mailbox's counters.

Tests assert the two agree to the byte at desk scale, which is what licenses
using the predictor alone for sweep points too large to materialize (the
predictor is a bit-exact function of population size, vector length, packing
widths, degree, and the commitment scheme).

The sweep helpers compare the packed protocol against its unpacked
single-secret-per-polynomial variant (the "unpacked baseline"): same wire
format, same commitment scheme, packing widths forced to 1.  Sweeps emit CSV
rows carrying a config hash and seed; infeasible points become "skipped"
rows with the reason, never silent holes.

Communication sweeps default to the constant-size commitment scheme, whose
broadcasts do not grow with the polynomial degree; under the
coefficient-vector scheme commitment traffic dominates and scales with the
population, which the predictor reproduces equally well.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass

import numpy as np

from .channel import GCM_NONCE_BYTES, GCM_TAG_BYTES, HEADER_STRUCT, SERVER_ID, SIGNATURE_BYTES, ServerMailbox
from .protocol import (
    COMMITMENT_BYTES,
    PHASES,
    R_AGG,
    R_FINAL,
    R_MODEL,
    R_RESHARE,
    R_SHARE,
    ProtocolConfig,
    ProtocolError,
    WITNESS_BYTES,
    build_sessions,
    run_iteration,
)
from .simulation import packing_rule

ROUNDS = (R_MODEL, R_SHARE, R_RESHARE, R_FINAL, R_AGG)


def config_hash(params: dict) -> str:
    """Short stable digest of a parameter mapping, for provenance columns."""
    blob = json.dumps(params, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Closed-form communication predictor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommPlan:
    """Predicted bytes for one honest, dropout-free iteration.

    `client_up`/`client_down` are for one (any) client; `server_up`/
    `server_down` are totals for the relay.  Keys are wire round indices.
    """

    client_up: dict[int, int]
    client_down: dict[int, int]
    server_up: dict[int, int]
    server_down: dict[int, int]

    @property
    def client_total(self) -> int:
        return sum(self.client_up.values()) + sum(self.client_down.values())

    @property
    def server_total(self) -> int:
        return sum(self.server_up.values()) + sum(self.server_down.values())


def predict_comm(
    n_clients: int,
    dim: int,
    pack: int,
    reshare_pack: int,
    degree: int,
    commitment: str = "constant",
) -> CommPlan:
    """Byte counts for one honest iteration, from the message layouts and the
    fixed wire widths alone.

    Layout recap (header = sender, recipient, round, length; every message
    ends with one signature; counts are u32 and field elements, floats and
    the norm bound 8 bytes each; a commitment block is a u32 polynomial
    count and a u16 element count, then every element in COMMITMENT_BYTES;
    a sealed bundle is the receiver's share column, then one WITNESS_BYTES
    slot per polynomial only under the constant scheme):

    * round 0, server to each client: type+iteration, model floats, reference
      norm, norm bound, roster ids, commitment block for the reference
      shares, and a sealed box holding this client's bundle.
    * rounds 1 and 2, each client: one broadcast commitment block (round 2
      appends a reported-ids list, empty when honest) that the server echoes
      to all N clients, plus a sealed bundle to each of the N-1 peers.
    * round 3, each client: final shares in the clear (two polynomials per
      re-share group); server replies with the roster, trust numerators, and
      denominator to every client.
    * round 4, each client: trust-weighted aggregate shares in the clear.
    """
    n = n_clients
    groups1 = -(-dim // pack)  # gradient polynomials per client
    groups2 = 2 * (-(-n // reshare_pack))  # dot + norm re-share polynomials
    if commitment == "coefficient":
        commit_elems, witness_bytes = degree + 1, 0
    elif commitment == "constant":
        commit_elems, witness_bytes = 1, WITNESS_BYTES
    else:
        raise ProtocolError(f"unknown commitment scheme {commitment!r}")

    def counted(n_items: int, item_bytes: int) -> int:
        return 4 + n_items * item_bytes  # u32 count, then the items

    def commit_blob(n_polys: int) -> int:
        return 6 + n_polys * commit_elems * COMMITMENT_BYTES  # u32 and u16 header, elements

    def wire(body: int) -> int:
        return HEADER_STRUCT.size + body + SIGNATURE_BYTES

    def sealed_column(n_polys: int) -> int:
        # u32 box length, nonce, share column, witness slots, tag
        return 4 + GCM_NONCE_BYTES + n_polys * (8 + witness_bytes) + GCM_TAG_BYTES

    type_iter = 5  # one type byte + four iteration bytes

    model = wire(
        type_iter
        + counted(dim, 8)  # weights
        + 8  # reference norm (float)
        + 8  # norm bound (uint)
        + counted(n, 4)  # roster
        + commit_blob(groups1)
        + sealed_column(groups1)
    )
    commit1 = wire(type_iter + commit_blob(groups1))
    direct1 = wire(type_iter + sealed_column(groups1))
    commit2 = wire(type_iter + commit_blob(groups2) + counted(0, 4))
    direct2 = wire(type_iter + sealed_column(groups2))
    final = wire(type_iter + counted(groups2, 8))
    trust = wire(type_iter + counted(n, 4) + counted(n, 8) + 8)
    agg = wire(type_iter + counted(groups1, 8))

    return CommPlan(
        client_up={
            R_SHARE: commit1 + (n - 1) * direct1,
            R_RESHARE: commit2 + (n - 1) * direct2,
            R_FINAL: final,
            R_AGG: agg,
        },
        client_down={
            R_MODEL: model,
            R_SHARE: n * commit1 + (n - 1) * direct1,
            R_RESHARE: n * commit2 + (n - 1) * direct2,
            R_FINAL: trust,
        },
        server_up={R_MODEL: n * model, R_FINAL: n * trust},
        server_down={
            R_SHARE: n * commit1,
            R_RESHARE: n * commit2,
            R_FINAL: n * final,
            R_AGG: n * agg,
        },
    )


def predict_for(cfg: ProtocolConfig) -> CommPlan:
    return predict_comm(
        cfg.n_clients,
        cfg.dim,
        cfg.pack,
        cfg.reshare_pack,
        cfg.degree,
        cfg.commitment,
    )


# ---------------------------------------------------------------------------
# Measured runs
# ---------------------------------------------------------------------------


def _honest_inputs(cfg: ProtocolConfig, seed: int):
    rng = np.random.default_rng([0xBE9C, seed])
    weights = rng.normal(size=cfg.dim)
    grads = {pid: rng.normal(size=cfg.dim) for pid in range(1, cfg.n_clients + 1)}
    root = rng.normal(size=cfg.dim)
    root *= 0.9 * cfg.max_norm / np.linalg.norm(root)
    return weights, grads, root


def measure_comm(cfg: ProtocolConfig, seed: int = 0):
    """Run one honest iteration and return (up, down) byte dicts keyed by
    (party, round), exactly as the mailbox metered them."""
    server, clients = build_sessions(cfg)
    mailbox = ServerMailbox()
    weights, grads, root = _honest_inputs(cfg, seed)
    result = run_iteration(cfg, server, clients, mailbox, 0, weights, grads, root)
    return dict(mailbox.up_bytes), dict(mailbox.down_bytes), result


def expand_plan(plan: CommPlan, n_clients: int):
    """The (party, round) dicts a fault-free measured run must produce."""
    up: dict[tuple[int, int], int] = {}
    down: dict[tuple[int, int], int] = {}
    for rnd, v in plan.server_up.items():
        up[(SERVER_ID, rnd)] = v
    for rnd, v in plan.server_down.items():
        down[(SERVER_ID, rnd)] = v
    for pid in range(1, n_clients + 1):
        for rnd, v in plan.client_up.items():
            up[(pid, rnd)] = v
        for rnd, v in plan.client_down.items():
            down[(pid, rnd)] = v
    return up, down


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass
class CostRecord:
    phase: str
    role: str
    seconds: float
    n_clients: int
    dim: int
    pack: int
    degree: int
    kind: str


@dataclass(frozen=True)
class SweepPoint:
    n_clients: int
    dim: int
    pack: int | None = None  # None: packing rule
    degree: int | None = None
    kind: str = "packed"  # "packed" or "unpacked"

    def resolve(self) -> tuple[int, int]:
        pack, degree = packing_rule(self.n_clients)
        if self.pack is not None:
            pack = self.pack
        if self.degree is not None:
            degree = self.degree
        if self.kind == "unpacked":
            pack = 1
        return pack, degree


def comparison_points(n_values, dim) -> list[SweepPoint]:
    """A packed/unpacked pair per population size, at the packing rule."""
    out = []
    for n in n_values:
        out.append(SweepPoint(n, dim, kind="packed"))
        out.append(SweepPoint(n, dim, kind="unpacked"))
    return out


# measuring is only attempted when the materialized share matrices stay small
MEASURE_LIMIT_ELEMS = 4_000_000


def _point_config(point: SweepPoint, commitment: str, seed: int) -> ProtocolConfig:
    pack, degree = point.resolve()
    return ProtocolConfig(
        n_clients=point.n_clients,
        dim=point.dim,
        pack=pack,
        reshare_pack=pack,
        degree=degree,
        commitment=commitment,
        crypto_mode="fast",
        seed=seed,
    )


def sweep_comm(
    points: list[SweepPoint],
    commitment: str = "constant",
    seed: int = 0,
    measure: bool = False,
) -> list[dict]:
    """Predicted (optionally cross-measured) per-client and server bytes for
    one iteration at each sweep point."""
    rows = []
    for point in points:
        pack, degree = point.resolve()
        params = {
            "n_clients": point.n_clients,
            "dim": point.dim,
            "pack": pack,
            "degree": degree,
            "kind": point.kind,
            "commitment": commitment,
        }
        row = dict(params, seed=seed, config=config_hash(params), status="ok", note="")
        try:
            cfg = _point_config(point, commitment, seed)
        except ProtocolError as exc:
            row.update(status="skipped", note=str(exc))
            rows.append(row)
            continue
        plan = predict_for(cfg)
        row.update(
            client_bytes=plan.client_total,
            server_bytes=plan.server_total,
            source="predicted",
        )
        cost = point.n_clients * -(-point.dim // pack)
        if measure:
            if cost <= MEASURE_LIMIT_ELEMS:
                up, down = expand_plan(plan, cfg.n_clients)
                got_up, got_down, _ = measure_comm(cfg, seed)
                if (got_up, got_down) != (up, down):
                    raise ProtocolError(
                        f"predictor mismatch at {params}: measured counters disagree"
                    )
                row.update(source="measured")
            else:
                row.update(note=f"too large to materialize ({cost} share elements); predicted")
        rows.append(row)
    return rows


def sweep_comp(
    points: list[SweepPoint],
    seed: int = 0,
    iterations: int = 1,
) -> list[CostRecord]:
    """Measured per-phase wall clock at each (feasible, desk-scale) point,
    as clocked by `run_iteration` during `measure_comm`, under the
    coefficient-vector commitment scheme."""
    records: list[CostRecord] = []
    for point in points:
        pack, degree = point.resolve()
        try:
            cfg = _point_config(point, "coefficient", seed)
        except ProtocolError:
            continue
        totals: dict[str, float] = {}
        for it in range(iterations):
            _, _, result = measure_comm(cfg, seed + it)
            for phase, s in result.phase_seconds.items():
                totals[phase] = totals.get(phase, 0.0) + s
        for phase, role in PHASES.items():
            records.append(
                CostRecord(
                    phase,
                    role,
                    totals.get(phase, 0.0) / iterations,
                    point.n_clients,
                    point.dim,
                    pack,
                    degree,
                    point.kind,
                )
            )
    return records


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def rows_to_csv(rows: list[dict], columns: list[str] | None = None) -> str:
    """Plain-column CSV (gnuplot-friendly); missing cells are empty."""
    if not rows:
        return ""
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def records_to_rows(records: list[CostRecord]) -> list[dict]:
    return [
        {
            "phase": r.phase,
            "role": r.role,
            "seconds": f"{r.seconds:.6f}",
            "n_clients": r.n_clients,
            "dim": r.dim,
            "pack": r.pack,
            "degree": r.degree,
            "kind": r.kind,
        }
        for r in records
    ]
