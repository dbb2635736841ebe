"""Federated logistic-regression workloads with configurable misbehavior.

The module builds desk-scale training populations for the aggregation
protocol and its baselines:

* `SyntheticTask` draws a two-class (optionally multi-class) Gaussian-blob
  classification problem, splits it across clients either uniformly or with a
  Dirichlet label-skew, and holds out a clean reference dataset for the
  server plus a test set for accuracy measurement.  Everything is a pure
  function of the task seed.
* Each client gets exactly one `Behavior` per experiment: honest training,
  one of two gradient-level poisoning attacks (random large gradients, or
  flipped training labels), one of two share-level attacks handled inside the
  protocol (garbage shares, garbled combine step), or a scheduled dropout.
* `run_experiment` trains a linear model for a fixed number of iterations
  under one of five aggregation rules -- the packed secure protocol, its
  unpacked single-secret variant, plain averaging, plaintext trust-weighted
  averaging, and a coordinate-wise trimmed mean -- and records a `Metrics`
  trajectory: per-iteration test accuracy, trust scores, exclusions and
  corrected offenders, per-party byte counts, and aborts.

Metrics serialize to a byte-deterministic CSV (wall-clock timings are kept
out of it), so identical inputs yield identical metric streams.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .channel import SERVER_ID, ServerMailbox
from .field import DEFAULT_SCALE
from .protocol import (
    ClientFlags,
    ProtocolAbort,
    ProtocolConfig,
    ProtocolError,
    build_sessions,
    plaintext_trust_step,
    run_iteration,
)

ATTACK_STD = 200.0

PROTOCOLS = ("secure", "unpacked", "fedavg", "trust", "trimmed_mean")

BEHAVIOR_KINDS = (
    "honest",
    "gradient_manipulation",
    "label_flip",
    "invalid_shares",
    "wrong_computation",
    "dropout",
)

# behaviors that poison the training signal itself (as opposed to the share
# layer or availability); used to split trust-score distributions
GRADIENT_ATTACKS = ("gradient_manipulation", "label_flip")


# ---------------------------------------------------------------------------
# Model: binary logistic regression with a bias column
# ---------------------------------------------------------------------------


def _with_bias(x: np.ndarray) -> np.ndarray:
    return np.hstack([x, np.ones((x.shape[0], 1))])


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of p = sigmoid([x | 1] w) against labels in {0,1}."""
    z = _with_bias(x) @ np.asarray(weights, dtype=np.float64)
    # log(1 + exp(-z*sign)) written stably: softplus(-yz) with y in {-1,+1}
    yz = np.where(np.asarray(y) > 0, z, -z)
    return float(np.mean(np.logaddexp(0.0, -yz)))


def local_gradient(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact gradient of the mean logistic loss at `weights`.

    At the zero model this reduces to the closed form mean(x_i (1/2 - y_i))
    per coordinate, which the tests check directly.
    """
    xb = _with_bias(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if xb.shape[0] == 0:
        raise ValueError("client dataset is empty")
    p = sigmoid(xb @ np.asarray(weights, dtype=np.float64))
    return xb.T @ (p - y) / xb.shape[0]


def predict_accuracy(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    z = _with_bias(x) @ np.asarray(weights, dtype=np.float64)
    return float(np.mean((z > 0).astype(np.int64) == np.asarray(y)))


# ---------------------------------------------------------------------------
# Attacks
# ---------------------------------------------------------------------------


def attack_gradient_manipulation(
    rng: np.random.Generator, dim: int, std: float = ATTACK_STD
) -> np.ndarray:
    """A poisoned update: independent zero-mean Gaussians with a huge spread,
    submitted in place of the true local gradient."""
    return rng.normal(0.0, std, size=dim)


def attack_label_flip(label: int, n_classes: int) -> int:
    """Mirror a training label across the class range: l -> C - 1 - l."""
    if not 0 <= label < n_classes:
        raise ValueError(f"label {label} outside [0, {n_classes})")
    return n_classes - 1 - label


def flip_labels(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Vectorized label mirror for a whole dataset."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError("labels outside class range")
    return n_classes - 1 - labels


# ---------------------------------------------------------------------------
# Behaviors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Behavior:
    """Exactly one per client per experiment.

    `dropout` takes the wire-round index (0..4) at which the client goes
    silent; it applies from that exchange onward in every iteration.
    """

    kind: str = "honest"
    dropout_round: int | None = None

    def __post_init__(self):
        if self.kind not in BEHAVIOR_KINDS:
            raise ValueError(f"unknown behavior {self.kind!r}")
        if (self.kind == "dropout") != (self.dropout_round is not None):
            raise ValueError("dropout_round is set if and only if kind is 'dropout'")
        if self.dropout_round is not None and not 0 <= self.dropout_round <= 4:
            raise ValueError("dropout_round outside [0, 4]")

    @classmethod
    def dropout(cls, rnd: int) -> "Behavior":
        return cls("dropout", rnd)


def behavior_map(n_clients: int, assigned: dict[int, Behavior] | None) -> dict[int, Behavior]:
    """Fill in honest behavior for every unassigned client id."""
    assigned = dict(assigned or {})
    for pid in assigned:
        if not 1 <= pid <= n_clients:
            raise ValueError(f"behavior assigned to unknown client {pid}")
    return {pid: assigned.get(pid, Behavior()) for pid in range(1, n_clients + 1)}


# ---------------------------------------------------------------------------
# Synthetic task
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClientData:
    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class SyntheticTask:
    """Gaussian-blob classification split across a client population.

    Class means sit at +/- `separation` times a random unit direction (for
    two classes; random directions otherwise) with unit-variance isotropic
    noise, so `separation` directly sets the achievable accuracy: 1.28 puts
    the best linear classifier near 90%.  The reference dataset the server
    holds and the test set are drawn from the same mixture as client data.

    With `dirichlet_alpha` set, each client's label proportions are drawn
    from a Dirichlet distribution (small alpha = strong label skew), and
    `redraw_every` > 0 re-draws those proportions every that-many iterations.
    """

    seed: int = 0
    n_features: int = 32
    n_classes: int = 2
    n_clients: int = 100
    samples_per_client: int = 64
    client_sizes: tuple[int, ...] | None = None
    root_samples: int = 200
    test_samples: int = 2000
    separation: float = 1.28
    dirichlet_alpha: float | None = None
    redraw_every: int = 0

    def __post_init__(self):
        if self.n_features < 1 or self.n_classes < 2 or self.n_clients < 1:
            raise ValueError("task dimensions must be positive (and >= 2 classes)")
        if self.client_sizes is not None and len(self.client_sizes) != self.n_clients:
            raise ValueError("client_sizes length must equal n_clients")
        if min(self.sizes) < 1 or self.root_samples < 1 or self.test_samples < 1:
            raise ValueError("sample counts must be positive")

    @property
    def dim(self) -> int:
        """Model dimension: features plus a bias coordinate."""
        return self.n_features + 1

    @property
    def sizes(self) -> tuple[int, ...]:
        if self.client_sizes is not None:
            return tuple(self.client_sizes)
        return (self.samples_per_client,) * self.n_clients

    def _rng(self, *tag: int) -> np.random.Generator:
        return np.random.default_rng([0x5EED, self.seed, *tag])

    @property
    def class_means(self) -> np.ndarray:
        rng = self._rng(0)
        if self.n_classes == 2:
            u = rng.normal(size=self.n_features)
            u /= np.linalg.norm(u)
            return np.stack([-self.separation * u, self.separation * u])
        m = rng.normal(size=(self.n_classes, self.n_features))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        return self.separation * m

    def _draw(self, rng: np.random.Generator, n: int, probs: np.ndarray | None) -> ClientData:
        if probs is None:
            y = rng.integers(0, self.n_classes, size=n)
        else:
            y = rng.choice(self.n_classes, size=n, p=probs)
        x = self.class_means[y] + rng.normal(size=(n, self.n_features))
        return ClientData(x, y)

    def root_dataset(self) -> ClientData:
        return self._draw(self._rng(1), self.root_samples, None)

    def test_dataset(self) -> ClientData:
        return self._draw(self._rng(2), self.test_samples, None)

    def client_datasets(self, block: int = 0) -> dict[int, ClientData]:
        """Per-client datasets for one allocation block (see `datasets_at`)."""
        out: dict[int, ClientData] = {}
        for pid, n in zip(range(1, self.n_clients + 1), self.sizes):
            rng = self._rng(3, block, pid)
            probs = None
            if self.dirichlet_alpha is not None:
                probs = rng.dirichlet([self.dirichlet_alpha] * self.n_classes)
            out[pid] = self._draw(rng, n, probs)
        return out

    def datasets_at(self, iteration: int) -> dict[int, ClientData]:
        """Client datasets in effect at a training iteration: static unless
        `redraw_every` is set, in which case allocations change in blocks."""
        block = iteration // self.redraw_every if self.redraw_every else 0
        return _cached_datasets(self, block)


@lru_cache(maxsize=8)
def _cached_datasets(task: SyntheticTask, block: int) -> dict[int, ClientData]:
    return task.client_datasets(block)


# ---------------------------------------------------------------------------
# Baseline aggregation rules
# ---------------------------------------------------------------------------


def trimmed_mean(vectors: list[np.ndarray], trim_ratio: float) -> np.ndarray:
    """Coordinate-wise mean after dropping the `trim_ratio` fraction of
    largest and smallest entries at each coordinate."""
    if not vectors:
        raise ValueError("no vectors to aggregate")
    if not 0.0 <= trim_ratio < 0.5:
        raise ValueError("trim_ratio outside [0, 0.5)")
    stack = np.sort(np.stack(vectors), axis=0)
    k = min(int(trim_ratio * len(vectors)), (len(vectors) - 1) // 2)
    kept = stack[k : len(vectors) - k]
    return kept.mean(axis=0)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass
class Metrics:
    """Full trajectory of one experiment.

    Everything here is a deterministic function of the (task, behaviors,
    protocol, seed) inputs; `to_csv` serializes the per-iteration records,
    and `digest` hashes them.
    """

    protocol: str
    seed: int
    n_clients: int
    attackers: list[int]
    accuracy: list[float] = dc_field(default_factory=list)
    trust_history: list[dict[int, float]] = dc_field(default_factory=list)
    excluded_history: list[list[int]] = dc_field(default_factory=list)
    offender_history: list[list[int]] = dc_field(default_factory=list)
    aborts: list[tuple[int, str]] = dc_field(default_factory=list)
    bytes_sent: dict[tuple[int, int], int] = dc_field(default_factory=dict)
    bytes_received: dict[tuple[int, int], int] = dc_field(default_factory=dict)
    weights: np.ndarray | None = None

    @property
    def final_accuracy(self) -> float:
        return self.accuracy[-1] if self.accuracy else 0.0

    def mean_trust(self, ids) -> float:
        """Average trust score of a client subset across all iterations that
        produced scores (aborted iterations produce none)."""
        ids = list(ids)
        vals = [ts[u] for ts in self.trust_history for u in ids if u in ts]
        return float(np.mean(vals)) if vals else float("nan")

    def honest_ids(self) -> list[int]:
        bad = set(self.attackers)
        return [u for u in range(1, self.n_clients + 1) if u not in bad]

    def total_bytes(self, party: int) -> int:
        return sum(v for (p, _), v in self.bytes_sent.items() if p == party) + sum(
            v for (p, _), v in self.bytes_received.items() if p == party
        )

    def to_csv(self) -> str:
        """Deterministic per-iteration records."""
        buf = io.StringIO()
        buf.write("protocol,seed,iteration,accuracy,mean_trust_honest,mean_trust_attacker,")
        buf.write("excluded,offenders,abort\n")
        aborts = dict(self.aborts)
        honest = self.honest_ids()
        for t, acc in enumerate(self.accuracy):
            ts = self.trust_history[t] if t < len(self.trust_history) else {}
            hon = [ts[u] for u in honest if u in ts]
            att = [ts[u] for u in self.attackers if u in ts]
            row = [
                self.protocol,
                str(self.seed),
                str(t),
                repr(round(acc, 12)),
                repr(round(float(np.mean(hon)), 12)) if hon else "",
                repr(round(float(np.mean(att)), 12)) if att else "",
                ";".join(map(str, self.excluded_history[t]))
                if t < len(self.excluded_history)
                else "",
                ";".join(map(str, self.offender_history[t]))
                if t < len(self.offender_history)
                else "",
                aborts.get(t, ""),
            ]
            buf.write(",".join(row) + "\n")
        return buf.getvalue()

    def digest(self) -> str:
        return hashlib.sha256(self.to_csv().encode()).hexdigest()


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------


def packing_rule(n_clients: int) -> tuple[int, int]:
    """Default packing width and polynomial degree for a population size:
    pack a tenth of the population per polynomial, degree at four tenths."""
    pack = -(-n_clients // 10)
    degree = max((2 * n_clients) // 5, pack)
    return pack, degree


def protocol_config(
    task: SyntheticTask,
    protocol: str,
    seed: int,
    crypto_mode: str = "fast",
    degree: int | None = None,
    pack: int | None = None,
    response_threshold: int | None = None,
    report_threshold: int | None = None,
    max_norm: float = 2.0,
) -> ProtocolConfig:
    """Build the share-protocol configuration an experiment will run under."""
    default_pack, default_degree = packing_rule(task.n_clients)
    if protocol == "unpacked":
        pack = 1
    if pack is None:
        pack = default_pack
    if degree is None:
        degree = default_degree
    return ProtocolConfig(
        n_clients=task.n_clients,
        dim=task.dim,
        pack=pack,
        reshare_pack=pack,
        degree=degree,
        response_threshold=response_threshold,
        report_threshold=report_threshold,
        max_norm=max_norm,
        crypto_mode=crypto_mode,
        seed=seed,
    )


def _capped(grad: np.ndarray, cap: float) -> np.ndarray:
    """Scale a reference gradient down to the published norm cap so the
    trust denominator stays in range; direction is what matters."""
    nrm = float(np.linalg.norm(grad))
    if nrm <= cap:
        return grad
    return grad * ((cap / nrm) * (1.0 - 1e-12))


def _client_gradient(
    behavior: Behavior,
    weights: np.ndarray,
    data: ClientData,
    task: SyntheticTask,
    rng: np.random.Generator,
) -> np.ndarray:
    if behavior.kind == "gradient_manipulation":
        return attack_gradient_manipulation(rng, task.dim)
    if behavior.kind == "label_flip":
        return local_gradient(weights, data.x, flip_labels(data.y, task.n_classes))
    return local_gradient(weights, data.x, data.y)


def run_experiment(
    task: SyntheticTask,
    behaviors: dict[int, Behavior] | None,
    protocol: str,
    n_iterations: int,
    seed: int = 0,
    learn_rate: float = 0.5,
    trim_ratio: float = 0.2,
    crypto_mode: str = "fast",
    degree: int | None = None,
    pack: int | None = None,
    response_threshold: int | None = None,
    report_threshold: int | None = None,
) -> Metrics:
    """Train a linear model for `n_iterations` under one aggregation rule.

    Gradient-level behaviors (manipulation, label flipping) apply to every
    protocol.  Share-level behaviors and dropouts only have meaning for the
    two share-based protocols; under the plaintext baselines those clients
    simply train honestly (share-level) or sit out (dropout).  Iterations the
    share protocol aborts are recorded and skipped, not fatal.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r} (choose from {PROTOCOLS})")
    if task.n_classes != 2:
        raise ValueError("training is binary logistic; use n_classes=2")
    bmap = behavior_map(task.n_clients, behaviors)
    attackers = sorted(pid for pid, b in bmap.items() if b.kind != "honest")
    metrics = Metrics(protocol, seed, task.n_clients, attackers)

    share_based = protocol in ("secure", "unpacked")
    server = clients = mailbox = cfg = None
    if share_based:
        cfg = protocol_config(
            task, protocol, seed, crypto_mode, degree, pack,
            response_threshold, report_threshold,
        )
        flags = {
            pid: ClientFlags(
                invalid_shares=b.kind == "invalid_shares",
                wrong_computation=b.kind == "wrong_computation",
            )
            for pid, b in bmap.items()
            if b.kind in ("invalid_shares", "wrong_computation")
        }
        server, clients = build_sessions(cfg, flags)
        silenced = {
            pid: b.dropout_round for pid, b in bmap.items() if b.kind == "dropout"
        }
        mailbox = ServerMailbox(silenced=silenced)
    cap = cfg.max_norm if cfg is not None else 2.0
    scale = cfg.scale if cfg is not None else DEFAULT_SCALE

    root = task.root_dataset()
    test = task.test_dataset()
    w = np.zeros(task.dim)
    for t in range(n_iterations):
        data = task.datasets_at(t)
        grads: dict[int, np.ndarray] = {}
        for pid, b in bmap.items():
            if not share_based and b.kind == "dropout":
                continue
            rng = np.random.default_rng([0xA77C, seed, t, pid])
            grads[pid] = _client_gradient(b, w, data[pid], task, rng)
        root_grad = _capped(local_gradient(w, root.x, root.y), cap)

        update = np.zeros(task.dim)
        if protocol == "fedavg":
            update = np.mean(list(grads.values()), axis=0)
        elif protocol == "trimmed_mean":
            update = trimmed_mean(list(grads.values()), trim_ratio)
        elif protocol == "trust":
            step = plaintext_trust_step(grads, root_grad, scale)
            update = step.update
            metrics.trust_history.append(step.trust)
            metrics.excluded_history.append([])
            metrics.offender_history.append(sorted(step.flagged))
        else:
            try:
                res = run_iteration(cfg, server, clients, mailbox, t, w, grads, root_grad)
                update = res.update
                metrics.trust_history.append(res.trust)
                metrics.excluded_history.append(res.excluded)
                metrics.offender_history.append(sorted(set(res.offenders) | set(res.flagged)))
            except ProtocolAbort as exc:
                metrics.aborts.append((t, str(exc)))

        w = w - learn_rate * update
        metrics.accuracy.append(predict_accuracy(w, test.x, test.y))

    if mailbox is not None:
        metrics.bytes_sent = dict(mailbox.up_bytes)
        metrics.bytes_received = dict(mailbox.down_bytes)
    metrics.weights = w
    return metrics
