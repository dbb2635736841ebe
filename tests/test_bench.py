"""Accounting tests: byte predictor vs. measured counters, sweeps, timings."""

import numpy as np
import pytest

from packsecagg import bench
from packsecagg.channel import ServerMailbox
from packsecagg.protocol import (
    PHASES,
    R_FINAL,
    ProtocolConfig,
    ProtocolError,
    build_sessions,
    run_iteration,
)


def check_exact(cfg: ProtocolConfig, seed: int = 1):
    plan = bench.predict_for(cfg)
    want_up, want_down = bench.expand_plan(plan, cfg.n_clients)
    got_up, got_down, result = bench.measure_comm(cfg, seed=seed)
    assert got_up == want_up
    assert got_down == want_down
    return plan, result


def test_predictor_matches_measured_counters_exactly():
    plan, result = check_exact(
        ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3,
                       commitment="constant")
    )
    assert result.roster == list(range(1, 11)) and not result.offenders
    assert plan.client_total > 0 and plan.server_total > 0
    check_exact(
        ProtocolConfig(n_clients=13, dim=33, pack=3, reshare_pack=2, degree=4,
                       commitment="constant")
    )
    check_exact(
        ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3,
                       commitment="coefficient")
    )
    # the unpacked baseline is the same wire format at width 1
    check_exact(
        ProtocolConfig(n_clients=8, dim=12, pack=1, reshare_pack=1, degree=3,
                       commitment="coefficient")
    )


def test_byte_counts_independent_of_crypto_mode():
    fast = ProtocolConfig(n_clients=9, dim=16, pack=2, reshare_pack=2, degree=3,
                          commitment="constant", crypto_mode="fast")
    real = ProtocolConfig(n_clients=9, dim=16, pack=2, reshare_pack=2, degree=3,
                          commitment="constant", crypto_mode="real")
    up_f, down_f, _ = bench.measure_comm(fast, seed=2)
    up_r, down_r, _ = bench.measure_comm(real, seed=2)
    assert up_f == up_r and down_f == down_r
    assert bench.predict_for(fast) == bench.predict_for(real)


def test_client_bytes_grow_linearly_in_dim():
    pack, degree = bench.packing_rule(20)
    small = bench.predict_comm(20, 1000, pack, pack, degree, "constant").client_total
    large = bench.predict_comm(20, 2000, pack, pack, degree, "constant").client_total
    assert 1.8 < large / small < 2.0
    # the unpacked variant pays roughly `pack` times more per client
    unpacked = bench.predict_comm(20, 1000, 1, 1, degree, "constant").client_total
    assert unpacked / small > 0.8 * pack


def test_client_bytes_flat_in_population_at_fixed_dim():
    totals = []
    for n in (50, 100, 200):
        pack, degree = bench.packing_rule(n)
        totals.append(bench.predict_comm(n, 20_000, pack, pack, degree, "constant").client_total)
    assert max(totals) / min(totals) - 1 < 0.05


def test_packed_reduction_at_scale():
    pack, degree = bench.packing_rule(100)
    packed = bench.predict_comm(100, 100_000, pack, pack, degree, "constant")
    unpacked = bench.predict_comm(100, 100_000, 1, 1, degree, "constant")
    assert packed.client_total <= 0.25 * unpacked.client_total


def test_sweep_rows_csv_and_skipping():
    points = bench.comparison_points([10], 24) + [
        bench.SweepPoint(5, 24, pack=3, degree=12)  # needs 2d+1 <= n: infeasible
    ]
    rows = bench.sweep_comm(points, commitment="constant", seed=3, measure=True)
    assert [r["status"] for r in rows] == ["ok", "ok", "skipped"]
    assert rows[0]["source"] == "measured" and rows[1]["source"] == "measured"
    assert "degree reduction" in rows[2]["note"]
    assert all(r["config"] and len(r["config"]) == 12 for r in rows)
    again = bench.sweep_comm(points, commitment="constant", seed=3, measure=True)
    assert rows == again
    csv_text = bench.rows_to_csv(rows)
    header, *lines = csv_text.strip().splitlines()
    assert header.startswith("n_clients,dim,pack,degree,kind,commitment,seed,config,status")
    assert len(lines) == 3


def test_sweep_defers_to_predictor_when_too_large(monkeypatch):
    monkeypatch.setattr(bench, "MEASURE_LIMIT_ELEMS", 10)
    rows = bench.sweep_comm([bench.SweepPoint(10, 24)], commitment="constant", measure=True)
    assert rows[0]["source"] == "predicted"
    assert "too large" in rows[0]["note"]


@pytest.mark.parametrize("silenced", [{}, {4: R_FINAL}], ids=["honest", "dropout_round3"])
def test_run_iteration_clocks_every_phase(silenced):
    cfg = ProtocolConfig(n_clients=10, dim=20, pack=2, reshare_pack=2, degree=3)
    server, clients = build_sessions(cfg)
    weights, grads, root = bench._honest_inputs(cfg, 4)
    mailbox = ServerMailbox(silenced=silenced)
    result = run_iteration(cfg, server, clients, mailbox, 0, weights, grads, root)
    assert set(result.phase_seconds) == set(PHASES)
    assert all(s >= 0.0 for s in result.phase_seconds.values())
    assert result.denominator > 0 and len(result.numerators) == 10
    assert result.respondents[R_FINAL] == [u for u in range(1, 11) if u not in silenced]


def test_sweep_comp_records():
    records = bench.sweep_comp([bench.SweepPoint(8, 12, kind="packed"),
                                bench.SweepPoint(8, 12, kind="unpacked")], iterations=1)
    assert len(records) == 2 * len(PHASES)
    roles = {r.phase: r.role for r in records}
    assert roles["decode"] == "server" and roles["share"] == "client"
    rows = bench.records_to_rows(records)
    csv_text = bench.rows_to_csv(rows)
    assert csv_text.splitlines()[0] == "phase,role,seconds,n_clients,dim,pack,degree,kind"
