"""Self-tests of the benchmark: every workload at a tiny size, the tracer, and
the correctness checks fed deliberately corrupted results.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (first: it puts the package's src/ on the path)
import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from packsecagg import fastops, protocol  # noqa: E402
from packsecagg.channel import ServerMailbox  # noqa: E402
from packsecagg.protocol import run_iteration  # noqa: E402

# the same shapes of work as run.WORKLOADS, small enough for seconds
TINY = {
    "honest_wide": run.Workload(n_clients=10, dim=40, pack=2, degree=4),
    "byzantine": run.Workload(
        n_clients=10, dim=20, pack=2, degree=3,
        wrong_computation=1, invalid_shares=1, silent_from_final=1,
    ),
    "real_crypto": run.Workload(n_clients=10, dim=8, pack=2, degree=4, crypto_mode="real"),
    "many_clients": run.Workload(n_clients=16, dim=16, pack=4, degree=6),
}


def test_tiny_covers_every_workload():
    assert set(TINY) == set(run.WORKLOADS)
    for name, wl in TINY.items():
        assert wl.honest == run.WORKLOADS[name].honest
        assert wl.crypto_mode == run.WORKLOADS[name].crypto_mode


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_clean(name):
    out = run.run(name, seed=3, seconds=0.01, trace=False, wl=TINY[name])
    assert out["correct"], out["detail"]["problems"]
    assert out["failed"] == 0 and out["attempted"] >= 2
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    out = run.run("byzantine", seed=4, seconds=0.01, trace=True, wl=TINY["byzantine"])
    assert out["correct"], out["detail"]["problems"]
    metrics = {k: m["value"] for k, m in out["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["trace.missing_hooks"] == 0
    # the planted faults push codewords off the fast path
    assert metrics["rsdecode.rs_decode.calls"] > 0
    assert metrics["rsdecode.clean_ratio"] < 1
    assert metrics["poly.nullspace_vector.calls"] > 0
    assert metrics["fastops.matmul_mod.macs"] > 0
    # every hook is gone afterwards
    assert not hasattr(fastops.matmul_mod, "__wrapped__")
    assert not hasattr(protocol.ClientSession.round_share, "__wrapped__")


def test_untraced_run_installs_no_hook(monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    out = run.run("honest_wide", seed=3, seconds=0.01, trace=False, wl=TINY["honest_wide"])
    assert out["correct"]


def test_missing_hook_targets_are_reported_not_raised():
    t = tracing.Tracer(
        hooks={
            "protocol": ("_MEMO_gone", "_IterationMemo.gone", "NoClass.method", "run_iteration"),
            "no_such_module": ("anything",),
        }
    )
    t.install()
    try:
        assert hasattr(protocol.run_iteration, "__wrapped__")
    finally:
        t.uninstall()
    assert not hasattr(protocol.run_iteration, "__wrapped__")
    assert sorted(t.missing) == sorted(
        [
            "protocol._MEMO_gone",
            "protocol._IterationMemo.gone",
            "protocol.NoClass.method",
            "no_such_module.anything",
        ]
    )


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


# ---------------------------------------------------------------------------
# The checks catch a corrupted result
# ---------------------------------------------------------------------------


def _one_iteration(name, seed=5):
    wl = TINY[name]
    bench = run.Bench(wl, seed)
    inputs = run.make_inputs(wl, bench.cfg.max_norm, seed, 0)
    mailbox = ServerMailbox(silenced=bench.silenced)
    result = run_iteration(bench.cfg, bench.server, bench.clients, mailbox, 0, *inputs)
    return bench, inputs, result, dict(mailbox.up_bytes), dict(mailbox.down_bytes)


def _problems(bench, inputs, result, up, down):
    return checks.check_iteration(bench.cfg, inputs, result, up, down, bench.planted, bench.wl.honest)


@pytest.mark.parametrize("name", ["honest_wide", "byzantine"])
def test_checks_pass_on_a_true_result(name):
    assert _problems(*_one_iteration(name)) == []


def test_check_catches_a_changed_numerator():
    bench, inputs, result, up, down = _one_iteration("honest_wide")
    uid = next(u for u, v in result.numerators.items() if v > 0)
    nums = {**result.numerators, uid: result.numerators[uid] + 1}
    bad = dataclasses.replace(result, numerators=nums)
    assert any("numerators" in p for p in _problems(bench, inputs, bad, up, down))


def test_check_catches_a_changed_denominator():
    bench, inputs, result, up, down = _one_iteration("honest_wide")
    bad = dataclasses.replace(result, denominator=result.denominator - 1)
    assert any("denominator" in p for p in _problems(bench, inputs, bad, up, down))


def test_check_catches_a_dropped_offender():
    bench, inputs, result, up, down = _one_iteration("byzantine")
    assert result.offenders
    bad = dataclasses.replace(result, offenders=result.offenders[1:])
    assert any("offenders" in p for p in _problems(bench, inputs, bad, up, down))


def test_check_catches_a_missed_exclusion():
    bench, inputs, result, up, down = _one_iteration("byzantine")
    bad = dataclasses.replace(result, excluded=[])
    assert any("excluded" in p for p in _problems(bench, inputs, bad, up, down))


def test_check_catches_a_silent_client_that_answered():
    bench, inputs, result, up, down = _one_iteration("byzantine")
    silent = bench.planted.silent_from_final[0]
    resp = dict(result.respondents)
    resp[protocol.R_FINAL] = sorted(resp[protocol.R_FINAL] + [silent])
    bad = dataclasses.replace(result, respondents=resp)
    assert any("silent" in p for p in _problems(bench, inputs, bad, up, down))


def test_check_catches_a_changed_byte_count():
    bench, inputs, result, up, down = _one_iteration("honest_wide")
    key = next(iter(up))
    up = {**up, key: up[key] + 1}
    assert any("bytes" in p for p in _problems(bench, inputs, result, up, down))


def test_check_catches_a_skewed_update():
    bench, inputs, result, up, down = _one_iteration("honest_wide")
    update = result.update.copy()
    update[0] += 0.01 * abs(update).max()
    bad = dataclasses.replace(result, update=update)
    assert any("update" in p for p in _problems(bench, inputs, bad, up, down))


def test_an_aborted_iteration_counts_as_failed(monkeypatch):
    real = protocol.run_iteration

    def abort_once(cfg, server, clients, mailbox, iteration, *args):
        if iteration == 1:
            raise protocol.ProtocolAbort("injected")
        return real(cfg, server, clients, mailbox, iteration, *args)

    monkeypatch.setattr(protocol, "run_iteration", abort_once)
    out = run.run("honest_wide", seed=3, seconds=0.3, trace=True, wl=TINY["honest_wide"])
    assert out["failed"] == 1 and out["attempted"] >= 4
    assert out["correct"]
    assert "injected" in out["detail"]["problems"][0]
