"""Command-line front end: training runs, byte/time benchmarks, attack
comparisons, and a self-contained invariant check.

Every subcommand accepts ``--seed``, an optional JSON ``--config`` file
(flags override file values), and ``--out`` for CSV artifacts.  Results and
errors go to stdout/stderr as JSON, exit status is 0 on success and 2 on
failure, so the tool can sit inside scripts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bench, simulation
from .channel import ServerMailbox
from .protocol import ProtocolConfig, build_sessions, plaintext_trust_step, run_iteration
from .simulation import Behavior, SyntheticTask


class CliError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc


def _parse_behaviors(raw: dict | None) -> dict[int, Behavior]:
    """Config form: {"3": "label_flip", "7": {"kind": "dropout", "round": 1}}."""
    out: dict[int, Behavior] = {}
    for key, val in (raw or {}).items():
        pid = int(key)
        if isinstance(val, str):
            out[pid] = Behavior(val)
        else:
            kind = val.get("kind", "honest")
            rnd = val.get("round")
            out[pid] = Behavior(kind, rnd)
    return out


def _task_from(cfg: dict, args) -> SyntheticTask:
    task_kw = dict(cfg.get("task", {}))
    for name, flag in (("n_clients", "clients"), ("n_features", "features")):
        val = getattr(args, flag, None)
        if val is not None:
            task_kw[name] = val
    task_kw.setdefault("seed", args.seed)
    if "client_sizes" in task_kw and task_kw["client_sizes"] is not None:
        task_kw["client_sizes"] = tuple(task_kw["client_sizes"])
    return SyntheticTask(**task_kw)


def _write(out_dir: str | None, name: str, text: str) -> str | None:
    if not out_dir:
        return None
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / name
    target.write_text(text)
    return str(target)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    task = _task_from(cfg, args)
    behaviors = _parse_behaviors(cfg.get("behaviors"))
    protocol = args.protocol or cfg.get("protocol", "secure")
    iterations = args.iterations or cfg.get("iterations", 20)
    metrics = simulation.run_experiment(
        task,
        behaviors,
        protocol,
        iterations,
        seed=args.seed,
        learn_rate=cfg.get("learn_rate", 0.5),
        crypto_mode=args.mode,
        degree=cfg.get("degree"),
        pack=cfg.get("pack"),
    )
    path = _write(args.out, f"train_{protocol}.csv", metrics.to_csv())
    _emit(
        {
            "protocol": protocol,
            "iterations": iterations,
            "final_accuracy": round(metrics.final_accuracy, 4),
            "aborts": len(metrics.aborts),
            "attackers": metrics.attackers,
            "metrics_digest": metrics.digest(),
            "csv": path,
        }
    )
    return 0


def cmd_bench_comm(args) -> int:
    cfg = _load_config(args.config)
    n_values = args.clients or cfg.get("n_clients", [100, 200, 400])
    dim = args.dim or cfg.get("dim", 100_000)
    points = bench.comparison_points(n_values, dim)
    rows = bench.sweep_comm(
        points, commitment=args.commitment, seed=args.seed, measure=args.measure
    )
    path = _write(args.out, "bench_comm.csv", bench.rows_to_csv(rows))
    packed = {r["n_clients"]: r for r in rows if r["kind"] == "packed" and r["status"] == "ok"}
    unpacked = {r["n_clients"]: r for r in rows if r["kind"] == "unpacked" and r["status"] == "ok"}
    ratios = {
        str(n): round(packed[n]["client_bytes"] / unpacked[n]["client_bytes"], 4)
        for n in packed
        if n in unpacked
    }
    _emit(
        {
            "points": len(rows),
            "skipped": sum(r["status"] == "skipped" for r in rows),
            "client_bytes_packed": {str(n): r["client_bytes"] for n, r in packed.items()},
            "packed_over_unpacked": ratios,
            "csv": path,
        }
    )
    return 0


def cmd_bench_comp(args) -> int:
    cfg = _load_config(args.config)
    n_values = args.clients or cfg.get("n_clients", [20])
    dim = args.dim or cfg.get("dim", 256)
    points = bench.comparison_points(n_values, dim)
    records = bench.sweep_comp(
        points, seed=args.seed, iterations=args.iterations or 1
    )
    path = _write(args.out, "bench_comp.csv", bench.rows_to_csv(bench.records_to_rows(records)))
    by_role: dict[str, float] = {}
    for rec in records:
        if rec.kind == "packed":
            by_role[rec.role] = by_role.get(rec.role, 0.0) + rec.seconds
    _emit({"records": len(records), "packed_seconds_by_role": by_role, "csv": path})
    return 0


def cmd_attack_eval(args) -> int:
    cfg = _load_config(args.config)
    task = _task_from(cfg, args)
    iterations = args.iterations or cfg.get("iterations", 20)
    n_bad = int(task.n_clients * args.fraction)
    bad = {pid: Behavior("gradient_manipulation") for pid in range(1, n_bad + 1)}
    report: dict[str, dict] = {}
    rows = []
    for protocol in args.protocols.split(","):
        clean = simulation.run_experiment(task, None, protocol, iterations, seed=args.seed)
        hit = simulation.run_experiment(task, bad, protocol, iterations, seed=args.seed)
        entry = {
            "clean_accuracy": round(clean.final_accuracy, 4),
            "attacked_accuracy": round(hit.final_accuracy, 4),
            "drop": round(clean.final_accuracy - hit.final_accuracy, 4),
        }
        ts = hit.mean_trust(hit.attackers)
        if not np.isnan(ts):
            entry["attacker_mean_trust"] = round(ts, 4)
            entry["honest_mean_trust"] = round(hit.mean_trust(hit.honest_ids()), 4)
        report[protocol] = entry
        for label, m in (("clean", clean), ("attacked", hit)):
            for t, acc in enumerate(m.accuracy):
                rows.append(
                    {"protocol": protocol, "run": label, "iteration": t,
                     "accuracy": repr(round(acc, 6))}
                )
    path = _write(args.out, "attack_eval.csv", bench.rows_to_csv(rows))
    _emit({"attackers": n_bad, "iterations": iterations, "results": report, "csv": path})
    return 0


def cmd_verify(args) -> int:
    """Fast invariant battery over the live installation."""
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    def sharing_roundtrip():
        from .sharing import SharingConfig, reconstruct, share_batch
        rng = np.random.default_rng(args.seed)
        cfg = SharingConfig(2**61 - 1, 12, 3, 5)
        secrets = rng.integers(0, 2**61 - 1, size=(4, 3), dtype=np.uint64)
        batch = share_batch(cfg, secrets, rng)
        got = reconstruct(cfg, list(range(1, 7)), batch.shares[:, :6])
        assert (got == secrets).all()

    def decode_with_errors():
        from .rsdecode import rs_decode
        from .sharing import SharingConfig, share_batch
        rng = np.random.default_rng(args.seed + 1)
        cfg = SharingConfig(2**61 - 1, 14, 2, 4)
        secrets = rng.integers(0, 2**61 - 1, size=(1, 2), dtype=np.uint64)
        batch = share_batch(cfg, secrets, rng)
        row = [int(v) for v in batch.shares[0]]
        row[3] ^= 5
        points = [cfg.eval_point(j) for j in range(1, 15)]
        dec = rs_decode(points, row, cfg.degree, 2**61 - 1)
        assert sorted(dec.error_positions) == [3]

    def commitment_soundness():
        from .vss import make_scheme
        scheme = make_scheme("constant", 2**61 - 1, 5, fast=True, setup_seed=args.seed)
        rng = np.random.default_rng(args.seed + 2)
        coeffs = rng.integers(0, 2**61 - 1, size=(1, 6), dtype=np.uint64)
        comm = scheme.commit_batch(coeffs)[0]
        wit = scheme.open_batch(coeffs, 9)[0]
        val = 0
        for c in reversed([int(c) for c in coeffs[0]]):
            val = (val * 9 + c) % (2**61 - 1)
        assert scheme.verify(comm, 9, val, wit)
        assert not scheme.verify(comm, 9, (val + 1) % (2**61 - 1), wit)

    def iteration_exact():
        cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3,
                             seed=args.seed)
        server, clients = build_sessions(cfg)
        mailbox = ServerMailbox()
        rng = np.random.default_rng(args.seed + 3)
        grads = {pid: rng.normal(size=20) for pid in range(1, 11)}
        root = rng.normal(size=20)
        root *= 1.5 / np.linalg.norm(root)
        res = run_iteration(cfg, server, clients, mailbox, 0, np.zeros(20), grads, root)
        plain = plaintext_trust_step(grads, root, cfg.scale)
        assert res.numerators == plain.numerators
        assert np.array_equal(res.update, plain.update)

    def predictor_exact():
        cfg = ProtocolConfig(n_clients=9, dim=18, pack=2, reshare_pack=2, degree=3,
                             commitment="constant", seed=args.seed)
        plan = bench.predict_for(cfg)
        want = bench.expand_plan(plan, 9)
        got_up, got_down, _ = bench.measure_comm(cfg, seed=args.seed)
        assert (got_up, got_down) == want

    check("packed sharing reconstructs", sharing_roundtrip)
    check("decoder corrects and locates errors", decode_with_errors)
    check("commitments reject wrong evaluations", commitment_soundness)
    check("protocol matches plaintext aggregation", iteration_exact)
    check("byte predictor matches metered run", predictor_exact)

    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}{': ' + detail if detail else ''}")
    failed = [c for c in checks if not c[1]]
    _emit({"checks": len(checks), "failed": len(failed)})
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packsecagg",
        description="Packed-sharing secure aggregation: training, benchmarks, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="directory for CSV artifacts")

    p = sub.add_parser("train", help="run one federated training experiment")
    common(p)
    p.add_argument("--mode", choices=("fast", "real"), default="fast",
                   help="crypto backend (bytes identical, speed differs)")
    p.add_argument("--protocol", choices=simulation.PROTOCOLS)
    p.add_argument("--iterations", type=int)
    p.add_argument("--clients", type=int)
    p.add_argument("--features", type=int)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("bench-comm", help="per-client and server bytes, packed vs unpacked")
    common(p)
    p.add_argument("--clients", type=int, nargs="+")
    p.add_argument("--dim", type=int)
    p.add_argument("--commitment", choices=("constant", "coefficient"), default="constant")
    p.add_argument("--measure", action="store_true",
                   help="also run desk-scale points and cross-check the predictor")
    p.set_defaults(fn=cmd_bench_comm)

    p = sub.add_parser("bench-comp", help="wall-clock per phase, packed vs unpacked")
    common(p)
    p.add_argument("--clients", type=int, nargs="+")
    p.add_argument("--dim", type=int)
    p.add_argument("--iterations", type=int)
    p.set_defaults(fn=cmd_bench_comp)

    p = sub.add_parser("attack-eval", help="clean vs attacked accuracy per protocol")
    common(p)
    p.add_argument("--protocols", default="secure,fedavg")
    p.add_argument("--fraction", type=float, default=0.3)
    p.add_argument("--iterations", type=int)
    p.add_argument("--clients", type=int)
    p.add_argument("--features", type=int)
    p.set_defaults(fn=cmd_attack_eval)

    p = sub.add_parser("verify", help="run the built-in invariant battery")
    common(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary: report and exit nonzero
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
