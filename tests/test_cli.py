"""Command-line interface tests (in-process via main())."""

import json
import subprocess
import sys

import pytest

from packsecagg.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def last_json(text: str) -> dict:
    """The trailing JSON object of a command's stdout."""
    start = text.index("{")
    return json.loads(text[start:])


def test_verify_all_checks_pass(capsys):
    rc, out, _ = run_cli(capsys, "verify")
    assert rc == 0
    assert out.count("PASS") == 5 and "FAIL" not in out
    assert last_json(out) == {"checks": 5, "failed": 0}


def test_train_from_config_file(tmp_path, capsys):
    config = {
        "task": {"n_clients": 10, "n_features": 12, "samples_per_client": 24,
                 "root_samples": 40, "test_samples": 200},
        "behaviors": {"1": "label_flip", "2": {"kind": "dropout", "round": 1}},
        "protocol": "trust",
        "iterations": 3,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    rc, out, _ = run_cli(
        capsys, "train", "--config", str(path), "--out", str(tmp_path), "--seed", "5"
    )
    assert rc == 0
    payload = last_json(out)
    assert payload["protocol"] == "trust" and payload["attackers"] == [1, 2]
    lines = (tmp_path / "train_trust.csv").read_text().strip().splitlines()
    assert len(lines) == 4  # header + one row per iteration


def test_train_flags_override_config(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"task": {"n_clients": 10, "n_features": 12}}))
    rc, out, _ = run_cli(
        capsys, "train", "--config", str(path), "--protocol", "fedavg",
        "--clients", "6", "--features", "8", "--iterations", "2",
    )
    assert rc == 0
    assert last_json(out)["final_accuracy"] > 0


def test_bench_comm_reports_ratios(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "bench-comm", "--clients", "20", "--dim", "64",
        "--measure", "--out", str(tmp_path),
    )
    assert rc == 0
    payload = last_json(out)
    assert payload["skipped"] == 0
    assert 0 < payload["packed_over_unpacked"]["20"] < 1
    header = (tmp_path / "bench_comm.csv").read_text().splitlines()[0]
    assert "client_bytes" in header and "config" in header


def test_bench_comp_writes_records(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "bench-comp", "--clients", "8", "--dim", "24", "--out", str(tmp_path)
    )
    assert rc == 0
    payload = last_json(out)
    assert payload["records"] > 0
    assert set(payload["packed_seconds_by_role"]) == {"client", "server"}
    assert (tmp_path / "bench_comp.csv").exists()


def test_attack_eval_summary(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "attack-eval", "--clients", "12", "--features", "32",
        "--iterations", "4", "--fraction", "0.25", "--protocols", "trust,fedavg",
        "--out", str(tmp_path),
    )
    assert rc == 0
    payload = last_json(out)
    assert payload["attackers"] == 3
    assert "attacker_mean_trust" in payload["results"]["trust"]
    assert "attacker_mean_trust" not in payload["results"]["fedavg"]
    assert (tmp_path / "attack_eval.csv").exists()


def test_errors_are_machine_readable(capsys):
    rc, _, err = run_cli(capsys, "train", "--config", "/does/not/exist.json")
    assert rc == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["type"] == "CliError" and "cannot read config" in payload["error"]


def test_unknown_protocol_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--protocol", "nonsense"])


def test_mode_is_refused_where_it_would_be_ignored(capsys):
    # only train runs the protocol with a selectable crypto backend
    with pytest.raises(SystemExit):
        main(["verify", "--mode", "real"])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "packsecagg.cli", "verify"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 5
