"""Benchmark: whole aggregation iterations, every party in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the sessions with `protocol.build_sessions`, runs one untimed warm-up
iteration, then times `protocol.run_iteration` back to back (a closed loop,
one thread) for S seconds.  Every iteration's inputs come from the seed, and
every result is checked (see checks.py); an iteration that aborts or fails a
check counts as failed.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the run times half its iterations untraced, then installs the
tracer (tracer.py) and reports per-layer metrics and the tracing overhead.
Full results, and the spans of a traced run, go to perfbench/out/.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# one compute thread, so runs on a small shared machine stay comparable
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SRC = HERE.parent / "src"
# measure the checkout's own source, never an installed copy of the package
if not (SRC / "packsecagg").is_dir():
    sys.exit(f"perfbench: no package source at {SRC / 'packsecagg'}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

try:
    import numpy as np  # noqa: E402

    from packsecagg import protocol  # noqa: E402
    from packsecagg.channel import SERVER_ID, ServerMailbox  # noqa: E402
    from packsecagg.protocol import R_FINAL, ClientFlags, ProtocolConfig  # noqa: E402

    import checks  # noqa: E402
    import tracer as tracing  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the package from {SRC}: {exc}")

_T_IMPORTED = time.perf_counter()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    n_clients: int
    dim: int
    pack: int
    degree: int
    crypto_mode: str = "fast"
    wrong_computation: int = 0
    invalid_shares: int = 0
    silent_from_final: int = 0

    @property
    def honest(self) -> bool:
        return not (self.wrong_computation or self.invalid_shares or self.silent_from_final)

    def config(self, seed: int) -> ProtocolConfig:
        return ProtocolConfig(
            n_clients=self.n_clients,
            dim=self.dim,
            pack=self.pack,
            reshare_pack=self.pack,
            degree=self.degree,
            crypto_mode=self.crypto_mode,
            seed=seed,
        )


# sizes are chosen so one iteration takes about two seconds on one core
WORKLOADS = {
    "honest_wide": Workload(n_clients=40, dim=1600, pack=4, degree=16),
    "byzantine": Workload(
        n_clients=40, dim=320, pack=4, degree=16,
        wrong_computation=1, invalid_shares=1, silent_from_final=1,
    ),
    "real_crypto": Workload(n_clients=20, dim=80, pack=2, degree=8, crypto_mode="real"),
    "many_clients": Workload(n_clients=80, dim=160, pack=8, degree=32),
}


@dataclass(frozen=True)
class Planted:
    wrong_computation: tuple[int, ...] = ()
    invalid_shares: tuple[int, ...] = ()
    silent_from_final: tuple[int, ...] = ()


def plant(wl: Workload, seed: int) -> Planted:
    """Distinct faulty clients, drawn from the seed."""
    rng = np.random.default_rng([0xFA17, seed])
    k = (wl.wrong_computation, wl.invalid_shares, wl.silent_from_final)
    ids = [int(u) for u in rng.choice(np.arange(1, wl.n_clients + 1), size=sum(k), replace=False)]
    return Planted(
        tuple(sorted(ids[: k[0]])),
        tuple(sorted(ids[k[0] : k[0] + k[1]])),
        tuple(sorted(ids[k[0] + k[1] :])),
    )


def make_inputs(wl: Workload, max_norm: float, seed: int, iteration: int):
    """(model weights, client gradients, reference gradient) of one iteration.

    Client i's gradient is c_i times the reference direction plus noise of
    half its norm, with c_i uniform in [-0.3, 1]: about a fifth of the clients
    point away from the reference and get zero trust.  Norms vary by a
    log-normal factor, which the protocol normalizes away.
    """
    rng = np.random.default_rng([0x1A7E, seed, iteration])
    unit = rng.normal(size=wl.dim)
    unit /= np.linalg.norm(unit)
    root = 0.9 * max_norm * unit
    weights = rng.normal(size=wl.dim)
    grads = {}
    for uid in range(1, wl.n_clients + 1):
        noise = rng.normal(size=wl.dim) / np.sqrt(wl.dim)
        g = rng.uniform(-0.3, 1.0) * unit + 0.5 * noise
        grads[uid] = g * rng.lognormal(0.0, 0.5)
    return weights, grads, root


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

END_TO_END = {
    "iteration_s": "s",
    "setup_s": "s",
    "client_bytes": "bytes",
    "server_bytes": "bytes",
    "peak_rss_mb": "MB",
}

COUNT = "count"
PER_LAYER = {
    "fastops.matmul_mod.calls": COUNT,
    "fastops.matmul_mod.s": "s",
    "fastops.matmul_mod.macs": COUNT,
    "fastops.mul_mod.s": "s",
    "fastops.sum_mod.s": "s",
    "fastops.vandermonde.s": "s",
    "fastops.poly_eval_many.s": "s",
    "sharing.share_batch.calls": COUNT,
    "sharing.share_batch.s": "s",
    "dotprod.partial_products.s": "s",
    "dotprod.combine_reshares.s": "s",
    "dotprod.reduction_weights.s": "s",
    "dotprod.recover_packed_values.s": "s",
    "rsdecode.rs_decode_batch.rows": COUNT,
    "rsdecode.rs_decode_batch.s": "s",
    "rsdecode.rs_decode.calls": COUNT,
    "rsdecode.rs_decode.share": "ratio",
    "rsdecode.clean_ratio": "ratio",
    "poly.nullspace_vector.calls": COUNT,
    "poly.nullspace_vector.share": "ratio",
    "vss.commit_batch.calls": COUNT,
    "vss.commit_batch.s": "s",
    "vss.verify.calls": COUNT,
    "vss.verify.share": "ratio",
    "protocol.wire.commit_serialize.s": "s",
    "protocol.wire.commit_parse.s": "s",
    "protocol.memo.lookups": COUNT,
    "protocol.memo.hit_ratio": "ratio",
    **{f"protocol.{p}.s": "s" for pair in tracing.ROUNDS for p in (pair[1], pair[0])},
    **{
        f"protocol.{p}.{stat}": "s"
        for p, _ in tracing.ROUNDS
        for stat in ("client_max_s", "client_p50_s")
    },
    "protocol.critical_path_s": "s",
    "channel.sign.calls": COUNT,
    "channel.sign.s": "s",
    "channel.verify.calls": COUNT,
    "channel.verify.s": "s",
    "channel.seal.calls": COUNT,
    "channel.seal.s": "s",
    "channel.seal.bytes": "bytes",
    "channel.open.calls": COUNT,
    "channel.open.s": "s",
    "channel.box_with.s": "s",
    "channel.mailbox.messages": COUNT,
    "channel.mailbox.s": "s",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "trace.spans": COUNT,
    "trace.missing_hooks": COUNT,
    "trace.overhead_ratio": "ratio",
}


class Bench:
    """One workload's sessions, and the record of every iteration run."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.cfg = wl.config(seed)
        self.planted = plant(wl, seed)
        self.flags = {u: ClientFlags(wrong_computation=True) for u in self.planted.wrong_computation}
        self.flags.update({u: ClientFlags(invalid_shares=True) for u in self.planted.invalid_shares})
        self.silenced = {u: R_FINAL for u in self.planted.silent_from_final}
        self.iteration = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        t0 = time.perf_counter()
        self.server, self.clients = protocol.build_sessions(self.cfg, self.flags)
        self.build_s = time.perf_counter() - t0

    def step(self, tracer=None):
        """Run and check one iteration.  Returns (seconds, mailbox) when it
        succeeded and passed every check, else None."""
        it = self.iteration
        self.iteration += 1
        self.attempted += 1
        inputs = make_inputs(self.wl, self.cfg.max_norm, self.seed, it)
        mailbox = ServerMailbox(silenced=self.silenced)
        gc.collect()
        if tracer is not None:
            tracer.begin_iteration(it)
        t0 = time.perf_counter()
        try:
            # looked up on the module, so that a traced run goes through the hook
            result = protocol.run_iteration(self.cfg, self.server, self.clients, mailbox, it, *inputs)
        except Exception:  # any abort or crash is one failed iteration
            if tracer is not None:
                tracer.end_iteration(0.0, keep=False)
            self.failed += 1
            self.problems.append(f"iteration {it}: {traceback.format_exc(limit=2)}")
            print(self.problems[-1], file=sys.stderr)
            return None
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_iteration(dt)
        problems = checks.check_iteration(
            self.cfg, inputs, result, mailbox.up_bytes, mailbox.down_bytes, self.planted, self.wl.honest
        )
        if problems:
            self.failed += 1
            self.correct = False
            self.problems.extend(f"iteration {it}: {p}" for p in problems)
            print("\n".join(self.problems[-len(problems):]), file=sys.stderr)
            return None
        return dt, mailbox

    def loop(self, seconds: float, tracer=None) -> list[tuple[float, ServerMailbox]]:
        """At least one iteration, then more until `seconds` have passed."""
        done = []
        t_end = time.perf_counter() + seconds
        while True:
            out = self.step(tracer)
            if out is not None:
                done.append(out)
            if time.perf_counter() >= t_end:
                return done


def end_to_end(bench: Bench, timed, setup_s: float) -> dict[str, float]:
    n = bench.cfg.n_clients
    client_bytes = [
        statistics.fmean(mb.party_total(pid) for pid in range(1, n + 1)) for _, mb in timed
    ]
    return {
        "iteration_s": statistics.median(dt for dt, _ in timed),
        "setup_s": setup_s,
        "client_bytes": statistics.median(client_bytes),
        "server_bytes": statistics.median(mb.party_total(SERVER_ID) for _, mb in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, wl: Workload | None = None) -> dict:
    """Measure one workload; returns the result object the command prints,
    plus a "detail" entry with everything else that was measured."""
    wl = wl or WORKLOADS[workload]
    bench = Bench(wl, seed)
    t0 = time.perf_counter()
    warm = bench.step()
    setup_s = (_T_IMPORTED - _T_START) + bench.build_s + (time.perf_counter() - t0)
    detail: dict = {"workload": workload, "seed": seed, "config": wl.__dict__, "setup_s": setup_s}
    metrics: dict[str, float] = {}
    if not trace:
        timed = bench.loop(seconds)
        if timed:
            metrics = end_to_end(bench, timed, setup_s)
        detail["iteration_s"] = [dt for dt, _ in timed]
        units = END_TO_END
    else:
        untraced = bench.loop(seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = bench.loop(seconds / 2, tracer)
        finally:
            tracer.uninstall()
        if untraced and traced:
            metrics = tracing.summarize(tracer, wl.n_clients)
            metrics["trace.overhead_ratio"] = statistics.median(dt for dt, _ in traced) / statistics.median(
                dt for dt, _ in untraced
            )
        detail["iteration_s"] = [dt for dt, _ in untraced]
        detail["traced_iteration_s"] = [dt for dt, _ in traced]
        detail["missing_hooks"] = tracer.missing
        detail["per_layer"] = metrics
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{workload}-seed{seed}.npz")
        units = PER_LAYER
    detail["warmup_ok"] = warm is not None
    detail["problems"] = bench.problems
    correct = bench.correct and bool(metrics)
    return {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
        "detail": detail,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = out.pop("detail")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**out, "detail": detail}, indent=1, default=str))
    for name, m in out["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"iterations attempted {out['attempted']}, failed {out['failed']}, timed {len(detail['iteration_s'])}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
