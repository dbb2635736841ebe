"""Per-layer tracing for the benchmark, applied to the package from outside.

`Tracer.install` replaces the functions named in `HOOKS` with wrappers that
record one span per call (name, start, end, parent span, iteration) and
accumulate, per traced iteration, call counts, self times and a few
layer-specific counters.  `Tracer.uninstall` puts every original back.  A
layer is one module of the package; a span's self time is its duration minus
the durations of the wrapped calls it made.

Nothing here runs unless a tracer is installed: the untraced benchmark run
imports this module but never calls `install`.

Hot leaf helpers are deliberately not wrapped, because each call costs less
than the wrapper itself; their time counts toward the calling span:
`SharingConfig.eval_point`, the `vss` group arithmetic (`ModGroup`,
`PlainGroup`), `Envelope.to_wire` and `ServerMailbox.is_silent`.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "packsecagg"

# module -> wrapped attributes ("name" or "Class.method"); private targets are
# the ones ROADMAP work is expected to remove, and are reported as missing then
HOOKS: dict[str, tuple[str, ...]] = {
    "fastops": (
        "as_elems",
        "mul_mod",
        "add_mod",
        "sub_mod",
        "neg_mod",
        "sum_mod",
        "matmul_mod",
        "powers_mod",
        "vandermonde",
        "poly_eval_many",
        "rand_elems",
        "encode_signed_arr",
        "decode_signed_arr",
        "quantize_arr",
    ),
    "sharing": ("share_batch", "serialize_elems", "deserialize_elems"),
    "dotprod": (
        "pack_strided",
        "unpack_strided",
        "pack_consecutive",
        "unpack_consecutive",
        "partial_products",
        "reduction_weights",
        "combine_reshares",
        "recover_packed_values",
        "share_vector",
    ),
    "rsdecode": ("rs_decode", "rs_decode_batch"),
    "poly": (
        "poly_trim",
        "poly_deg",
        "poly_eval",
        "poly_mul",
        "poly_divmod",
        "poly_from_roots",
        "lagrange_weights_at",
        "lagrange_coeffs",
        "nullspace_vector",
        "matinv_mod",
    ),
    "vss": (
        "CoefficientScheme.commit_batch",
        "CoefficientScheme.open_batch",
        "CoefficientScheme.verify",
        "ConstantScheme.commit_batch",
        "ConstantScheme.open_batch",
        "ConstantScheme.verify",
    ),
    "channel": (
        "Directory.verify",
        "PartyCrypto.sign",
        "PartyCrypto.box_with",
        "PairwiseBox.seal",
        "PairwiseBox.open_in",
        "ServerMailbox.submit",
        "ServerMailbox.submit_all",
        "ServerMailbox.forward",
        "ServerMailbox.deliver",
    ),
    "protocol": (
        "run_iteration",
        "normalize_and_quantize",
        "ClientSession.begin_iteration",
        "ClientSession.handle_model",
        "ClientSession.round_share",
        "ClientSession.round_reshare",
        "ClientSession.round_final",
        "ClientSession.round_aggregate",
        "ServerSession.begin_iteration",
        "ServerSession.forward_commits",
        "ServerSession.collect_finals",
        "ServerSession.collect_aggregates",
        "_commit_blob",
        "_read_commit_limbs",
        "_limbs_to_commits",
        "_IterationMemo.digest",
        "_IterationMemo.verify_broadcast",
        "_IterationMemo.commit_limbs",
        "_IterationMemo.fast_matrix",
    ),
}

LAYERS = tuple(HOOKS)

# protocol phase of each state-machine method; forward_commits serves two
CLIENT_PHASES = {
    "ClientSession.handle_model": "intake",
    "ClientSession.round_share": "share",
    "ClientSession.round_reshare": "reshare",
    "ClientSession.round_final": "final",
    "ClientSession.round_aggregate": "aggregate",
}
SERVER_PHASES = {
    "ServerSession.begin_iteration": "model",
    "ServerSession.collect_finals": "decode",
    "ServerSession.collect_aggregates": "recover",
}
# one protocol round per pair: (client phase, server phase)
ROUNDS = (
    ("intake", "model"),
    ("share", "forward_shares"),
    ("reshare", "forward_reshares"),
    ("final", "decode"),
    ("aggregate", "recover"),
)


@dataclass
class IterationStats:
    """Everything the wrappers accumulate during one traced iteration."""

    calls: dict = field(default_factory=lambda: defaultdict(int))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    # (phase, party id) -> inclusive seconds; the server is party 0
    phase_s: dict = field(default_factory=lambda: defaultdict(float))
    wall_s: float = 0.0


def _memo_size(memo) -> int:
    return sum(len(v) for v in vars(memo).values() if isinstance(v, dict))


def _after_matmul(stats, args, kwargs, before):
    a, b = np.shape(args[0]), np.shape(args[1])
    inner = a[-1] if a else 1
    rows = int(np.prod(a[:-1])) if len(a) > 1 else 1
    cols = b[-1] if len(b) > 1 else 1
    stats.counts["fastops.matmul_mod.macs"] += inner * rows * cols


def _after_decode_batch(stats, args, kwargs, before):
    shape = np.shape(args[1])
    stats.counts["rsdecode.rs_decode_batch.rows"] += shape[0] if len(shape) > 1 else 1


def _after_seal(stats, args, kwargs, before):
    plain = args[3] if len(args) > 3 else kwargs["plaintext"]
    stats.counts["channel.seal.bytes"] += len(plain)


def _before_memo(args, kwargs):
    return _memo_size(args[0])


def _after_memo(stats, args, kwargs, before):
    stats.counts["protocol.memo.lookups"] += 1
    if _memo_size(args[0]) == before:
        stats.counts["protocol.memo.hits"] += 1


# target -> (before(args, kwargs) -> state, after(stats, args, kwargs, state))
EXTRAS = {
    "fastops.matmul_mod": (None, _after_matmul),
    "rsdecode.rs_decode_batch": (None, _after_decode_batch),
    "channel.PairwiseBox.seal": (None, _after_seal),
    **{
        f"protocol._IterationMemo.{m}": (_before_memo, _after_memo)
        for m in ("digest", "verify_broadcast", "commit_limbs", "fast_matrix")
    },
}


def _phase_of(target: str, args, kwargs):
    """(phase, party) for a protocol state-machine call, else None."""
    attr = target.split(".", 1)[1]
    if attr in CLIENT_PHASES:
        return CLIENT_PHASES[attr], args[0].id
    if attr in SERVER_PHASES:
        return SERVER_PHASES[attr], 0
    if attr == "ServerSession.forward_commits":
        rnd = args[2] if len(args) > 2 else kwargs["rnd"]
        return ("forward_shares" if rnd == 1 else "forward_reshares"), 0
    return None


class Tracer:
    """Installs the span-recording wrappers and owns what they record."""

    def __init__(self, hooks: dict[str, tuple[str, ...]] = HOOKS):
        self.hooks = hooks
        self.missing: list[str] = []
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (iteration, span id, parent id, name index, start, end)
        self._saved: list[np.ndarray] = []  # spans of finished iterations, one row each
        self.iterations: list[IterationStats] = []
        self.stats: IterationStats | None = None
        self.iteration = -1
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {}
        for layer in self.hooks:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                pass
        for layer, attrs in self.hooks.items():
            mod = modules.get(layer)
            for attr in attrs:
                target = f"{layer}.{attr}"
                owner, _, name = attr.rpartition(".")
                holder = getattr(mod, owner, None) if owner else mod
                fn = vars(holder).get(name) if holder is not None else None
                if not callable(fn):
                    self.missing.append(target)
                    continue
                wrapper = self._wrap(fn, target)
                if owner:
                    setattr(holder, name, wrapper)
                    self._undo.append((holder, name, fn))
                    continue
                # module functions are also bound by name in importing modules
                for m in modules.values():
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapper)
                            self._undo.append((m, key, fn))

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._undo):
            setattr(holder, name, fn)
        self._undo.clear()

    def _wrap(self, fn, target: str):
        tracer = self
        stack = self._stack
        perf = time.perf_counter
        index = len(self.names)
        self.names.append(target)
        before, after = EXTRAS.get(target, (None, None))
        phased = target.startswith("protocol.") and "Session." in target

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = tracer.stats
            if stats is None:  # between iterations, e.g. while results are checked
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stats.calls[target] += 1
                stats.self_s[target] += dur - frame[1]
                tracer.spans.append((tracer.iteration, sid, parent, index, t0, t1))
                if after is not None:
                    after(stats, args, kwargs, state)
                if phased:
                    ph = _phase_of(target, args, kwargs)
                    if ph is not None:
                        stats.phase_s[ph] += dur

        return wrapper

    # -- per-iteration bookkeeping -----------------------------------------

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self.stats = IterationStats()

    def end_iteration(self, wall_s: float, keep: bool = True) -> None:
        """Close the iteration; `keep=False` leaves an aborted one out of
        the per-layer figures (its spans are still saved)."""
        if keep:
            self.stats.wall_s = wall_s
            self.iterations.append(self.stats)
        self._saved.append(np.array(self.spans, dtype=np.float64).reshape(-1, 6))
        self.spans.clear()
        self.stats = None

    def save(self, path) -> None:
        """Write every recorded span (one row each) and the name table."""
        arr = np.concatenate(self._saved or [np.zeros((0, 6))])
        np.savez_compressed(
            path,
            names=np.array(self.names),
            iteration=arr[:, 0].astype(np.int64),
            span=arr[:, 1].astype(np.int64),
            parent=arr[:, 2].astype(np.int64),
            name=arr[:, 3].astype(np.int64),
            start=arr[:, 4],
            end=arr[:, 5],
            missing=np.array(self.missing, dtype=str),
        )


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _sum_matching(d: dict, suffix: str, prefix: str = "") -> float:
    return sum(v for k, v in d.items() if k.startswith(prefix) and k.endswith(suffix))


def iteration_metrics(st: IterationStats, n_clients: int) -> dict[str, float]:
    """Per-layer figures of one traced iteration, keyed by metric name."""
    calls, self_s, counts = st.calls, st.self_s, st.counts
    wall = st.wall_s or 1.0
    out: dict[str, float] = {}

    def add(metric: str, target: str) -> None:
        out[f"{metric}.calls"] = calls.get(target, 0)
        out[f"{metric}.s"] = self_s.get(target, 0.0)

    for name in ("matmul_mod", "mul_mod", "sum_mod", "vandermonde", "poly_eval_many"):
        add(f"fastops.{name}", f"fastops.{name}")
    out["fastops.matmul_mod.macs"] = counts.get("fastops.matmul_mod.macs", 0)
    add("sharing.share_batch", "sharing.share_batch")
    for name in ("partial_products", "combine_reshares", "reduction_weights", "recover_packed_values"):
        add(f"dotprod.{name}", f"dotprod.{name}")

    add("rsdecode.rs_decode_batch", "rsdecode.rs_decode_batch")
    add("rsdecode.rs_decode", "rsdecode.rs_decode")
    add("poly.nullspace_vector", "poly.nullspace_vector")
    rows = counts.get("rsdecode.rs_decode_batch.rows", 0)
    out["rsdecode.rs_decode_batch.rows"] = rows
    out["rsdecode.clean_ratio"] = (rows - out["rsdecode.rs_decode.calls"]) / rows if rows else 0.0
    out["rsdecode.rs_decode.share"] = out["rsdecode.rs_decode.s"] / wall
    out["poly.nullspace_vector.share"] = out["poly.nullspace_vector.s"] / wall

    out["vss.commit_batch.calls"] = _sum_matching(calls, ".commit_batch", "vss.")
    out["vss.commit_batch.s"] = _sum_matching(self_s, ".commit_batch", "vss.")
    out["vss.verify.calls"] = _sum_matching(calls, ".verify", "vss.")
    out["vss.verify.s"] = _sum_matching(self_s, ".verify", "vss.")
    out["vss.verify.share"] = out["vss.verify.s"] / wall

    out["protocol.wire.commit_serialize.s"] = self_s.get("protocol._commit_blob", 0.0)
    out["protocol.wire.commit_parse.s"] = self_s.get("protocol._read_commit_limbs", 0.0) + self_s.get(
        "protocol._limbs_to_commits", 0.0
    )
    lookups = counts.get("protocol.memo.lookups", 0)
    out["protocol.memo.lookups"] = lookups
    out["protocol.memo.hit_ratio"] = counts.get("protocol.memo.hits", 0) / lookups if lookups else 0.0

    per_phase: dict[str, list[float]] = defaultdict(list)
    for (phase, _party), s in st.phase_s.items():
        per_phase[phase].append(s)
    critical = 0.0
    for client_phase, server_phase in ROUNDS:
        times = per_phase.get(client_phase, [])
        out[f"protocol.{server_phase}.s"] = sum(per_phase.get(server_phase, []))
        out[f"protocol.{client_phase}.s"] = sum(times)
        padded = times + [0.0] * (n_clients - len(times))
        out[f"protocol.{client_phase}.client_max_s"] = max(padded, default=0.0)
        out[f"protocol.{client_phase}.client_p50_s"] = statistics.median(padded) if padded else 0.0
        critical += out[f"protocol.{server_phase}.s"] + out[f"protocol.{client_phase}.client_max_s"]
    out["protocol.critical_path_s"] = critical

    for metric, target in (
        ("channel.sign", "channel.PartyCrypto.sign"),
        ("channel.verify", "channel.Directory.verify"),
        ("channel.seal", "channel.PairwiseBox.seal"),
        ("channel.open", "channel.PairwiseBox.open_in"),
        ("channel.box_with", "channel.PartyCrypto.box_with"),
    ):
        add(metric, target)
    out["channel.seal.bytes"] = counts.get("channel.seal.bytes", 0)
    out["channel.mailbox.messages"] = calls.get("channel.ServerMailbox.submit", 0)
    out["channel.mailbox.s"] = _sum_matching(self_s, "", "channel.ServerMailbox.")

    for layer in LAYERS:
        out[f"{layer}.self_s"] = _sum_matching(self_s, "", f"{layer}.")
    out["trace.spans"] = sum(calls.values())
    return out


def summarize(tracer: Tracer, n_clients: int) -> dict[str, float]:
    """Median over the traced iterations of every per-layer figure."""
    rows = [iteration_metrics(st, n_clients) for st in tracer.iterations]
    if not rows:
        return {}
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out["trace.missing_hooks"] = len(tracer.missing)
    return out
