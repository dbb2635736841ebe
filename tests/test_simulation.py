"""Federated workload tests: gradients, attacks, tasks, and experiments."""

import numpy as np
import pytest

from packsecagg import simulation as sim
from packsecagg.channel import SERVER_ID
from packsecagg.simulation import Behavior, SyntheticTask


def small_task(**kw):
    base = dict(
        seed=3,
        n_features=16,
        n_clients=12,
        samples_per_client=40,
        root_samples=80,
        test_samples=600,
    )
    base.update(kw)
    return SyntheticTask(**base)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def test_gradient_closed_form_at_zero_weights():
    task = small_task()
    data = task.datasets_at(0)[1]
    got = sim.local_gradient(np.zeros(task.dim), data.x, data.y)
    xb = np.hstack([data.x, np.ones((data.x.shape[0], 1))])
    want = xb.T @ (0.5 - data.y) / len(data.y)
    assert np.allclose(got, want, rtol=0, atol=1e-14)


def test_gradient_matches_central_finite_differences():
    task = small_task(n_features=8)
    data = task.datasets_at(0)[2]
    w = np.random.default_rng(7).normal(size=task.dim) * 0.4
    grad = sim.local_gradient(w, data.x, data.y)
    eps = 1e-5
    for i in range(task.dim):
        e = np.zeros(task.dim)
        e[i] = eps
        fd = (sim.logistic_loss(w + e, data.x, data.y) - sim.logistic_loss(w - e, data.x, data.y)) / (2 * eps)
        assert abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_gradient_deterministic_and_duplication_invariant():
    task = small_task()
    data = task.datasets_at(0)[3]
    w = np.full(task.dim, 0.1)
    g1 = sim.local_gradient(w, data.x, data.y)
    g2 = sim.local_gradient(w, data.x, data.y)
    assert g1.tobytes() == g2.tobytes()
    # duplicating every sample leaves the mean gradient unchanged
    gd = sim.local_gradient(w, np.vstack([data.x, data.x]), np.concatenate([data.y, data.y]))
    assert np.allclose(g1, gd)
    with pytest.raises(ValueError, match="empty"):
        sim.local_gradient(w, data.x[:0], data.y[:0])


# ---------------------------------------------------------------------------
# Attacks
# ---------------------------------------------------------------------------


def test_manipulated_gradient_moments():
    n = 100_000
    v = sim.attack_gradient_manipulation(np.random.default_rng(11), n)
    assert abs(v.mean()) < 3 * sim.ATTACK_STD / np.sqrt(n)
    assert abs(v.std() / sim.ATTACK_STD - 1.0) < 0.02
    again = sim.attack_gradient_manipulation(np.random.default_rng(11), n)
    assert v.tobytes() == again.tobytes()


def test_label_flip_rule_and_involution():
    assert sim.attack_label_flip(0, 10) == 9
    assert sim.attack_label_flip(4, 10) == 5
    for n_classes in (2, 5, 10):
        for label in range(n_classes):
            assert sim.attack_label_flip(sim.attack_label_flip(label, n_classes), n_classes) == label
    with pytest.raises(ValueError):
        sim.attack_label_flip(10, 10)
    with pytest.raises(ValueError):
        sim.attack_label_flip(-1, 10)
    labels = np.array([0, 3, 9, 4])
    assert sim.flip_labels(labels, 10).tolist() == [9, 6, 0, 5]


def test_behavior_validation():
    with pytest.raises(ValueError, match="unknown behavior"):
        Behavior("sneaky")
    with pytest.raises(ValueError):
        Behavior("dropout")
    with pytest.raises(ValueError):
        Behavior("honest", dropout_round=1)
    assert Behavior.dropout(3).dropout_round == 3
    filled = sim.behavior_map(4, {2: Behavior("label_flip")})
    assert sorted(filled) == [1, 2, 3, 4]
    assert filled[1].kind == "honest" and filled[2].kind == "label_flip"
    with pytest.raises(ValueError, match="unknown client"):
        sim.behavior_map(4, {9: Behavior()})


# ---------------------------------------------------------------------------
# Synthetic task
# ---------------------------------------------------------------------------


def test_task_reproducible_and_shaped():
    a, b = small_task(), small_task()
    da, db = a.datasets_at(0), b.datasets_at(0)
    assert sorted(da) == list(range(1, 13))
    for pid in da:
        assert da[pid].x.shape == (40, 16)
        assert da[pid].x.tobytes() == db[pid].x.tobytes()
        assert da[pid].y.tobytes() == db[pid].y.tobytes()
    root, test = a.root_dataset(), a.test_dataset()
    assert root.x.shape == (80, 16) and test.x.shape == (600, 16)
    assert small_task(seed=4).datasets_at(0)[1].x.tobytes() != da[1].x.tobytes()


def test_task_validation():
    with pytest.raises(ValueError):
        small_task(n_classes=1)
    with pytest.raises(ValueError):
        small_task(client_sizes=(5, 5))
    with pytest.raises(ValueError):
        small_task(samples_per_client=0)
    task = small_task(client_sizes=tuple(range(2, 14)))
    assert [len(d.y) for _, d in sorted(task.datasets_at(0).items())] == list(range(2, 14))


def test_label_skew_and_redraw():
    skewed = small_task(dirichlet_alpha=0.1, redraw_every=5, n_clients=30)
    d0 = skewed.datasets_at(0)
    # strong skew: most clients are dominated by a single class
    fractions = [max(np.mean(d.y == c) for c in (0, 1)) for d in d0.values()]
    assert np.mean(fractions) > 0.75
    assert skewed.datasets_at(4)[1].y.tobytes() == d0[1].y.tobytes()
    changed = skewed.datasets_at(5)
    assert any(changed[p].y.tobytes() != d0[p].y.tobytes() for p in d0)
    static = small_task(dirichlet_alpha=0.1)
    assert static.datasets_at(99)[1].y.tobytes() == static.datasets_at(0)[1].y.tobytes()


# ---------------------------------------------------------------------------
# Baseline rules
# ---------------------------------------------------------------------------


def test_trimmed_mean_drops_extremes():
    vecs = [np.array([1.0, -2.0]), np.array([2.0, 0.0]), np.array([3.0, 2.0]),
            np.array([1000.0, -1000.0])]
    out = sim.trimmed_mean(vecs, 0.25)
    assert np.allclose(out, [2.5, -1.0])  # drops one from each end per coordinate
    assert np.allclose(sim.trimmed_mean(vecs, 0.0), np.mean(vecs, axis=0))
    with pytest.raises(ValueError):
        sim.trimmed_mean([], 0.1)
    with pytest.raises(ValueError):
        sim.trimmed_mean(vecs, 0.5)


def test_packing_rule_and_config():
    assert sim.packing_rule(100) == (10, 40)
    assert sim.packing_rule(20) == (2, 8)
    task = small_task()
    cfg = sim.protocol_config(task, "secure", seed=0)
    assert (cfg.pack, cfg.degree, cfg.dim) == (2, 4, 17)
    assert sim.protocol_config(task, "unpacked", seed=0).pack == 1


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def test_experiment_deterministic_metrics():
    task = small_task()
    a = sim.run_experiment(task, None, "secure", 3, seed=9)
    b = sim.run_experiment(task, None, "secure", 3, seed=9)
    assert a.digest() == b.digest()
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.to_csv().splitlines()[0].startswith("protocol,seed,iteration,accuracy")
    assert len(a.accuracy) == 3 and not a.aborts
    assert a.total_bytes(1) > 0 and a.total_bytes(SERVER_ID) > 0
    c = sim.run_experiment(task, None, "secure", 3, seed=10)
    assert c.digest() != a.digest()


def test_secure_run_matches_plaintext_trust_baseline():
    task = small_task()
    secure = sim.run_experiment(task, None, "secure", 6, seed=2)
    plain = sim.run_experiment(task, None, "trust", 6, seed=2)
    assert secure.accuracy == plain.accuracy
    assert np.max(np.abs(secure.weights - plain.weights)) <= 1e-9
    for ts_s, ts_p in zip(secure.trust_history, plain.trust_history):
        assert ts_s == ts_p


def test_all_protocols_learn_clean_task():
    task = small_task()
    for protocol in sim.PROTOCOLS:
        m = sim.run_experiment(task, None, protocol, 12, seed=4)
        assert m.final_accuracy > 0.8, protocol


def test_manipulation_attack_suppressed_by_trust_weighting():
    task = small_task(n_features=64, n_clients=16, samples_per_client=48)
    bad = {pid: Behavior("gradient_manipulation") for pid in (1, 2, 3, 4)}
    clean = sim.run_experiment(task, None, "secure", 10, seed=6)
    hit = sim.run_experiment(task, bad, "secure", 10, seed=6)
    assert abs(hit.final_accuracy - clean.final_accuracy) < 0.03
    assert hit.mean_trust(hit.attackers) < 0.5 * hit.mean_trust(hit.honest_ids())
    # plain averaging has no defense on the same seeds
    avg = sim.run_experiment(task, bad, "fedavg", 10, seed=6)
    assert avg.final_accuracy < clean.final_accuracy - 0.1


def test_label_flip_attackers_get_zero_trust():
    task = small_task()
    bad = {1: Behavior("label_flip"), 2: Behavior("label_flip")}
    m = sim.run_experiment(task, bad, "secure", 5, seed=8)
    # a fully flipped binary gradient points away from the reference
    assert m.mean_trust([1, 2]) < 0.02
    assert m.final_accuracy > 0.8


def test_share_level_attacks_reported():
    task = small_task()
    bad = {
        1: Behavior("invalid_shares"),
        2: Behavior("invalid_shares"),
        3: Behavior("wrong_computation"),
    }
    m = sim.run_experiment(task, bad, "secure", 3, seed=1)
    assert not m.aborts
    for excluded, offenders in zip(m.excluded_history, m.offender_history):
        assert excluded == [1, 2]
        assert 3 in offenders
    assert m.final_accuracy > 0.7
    # plaintext baselines have no share layer: these clients act honestly there
    plain = sim.run_experiment(task, bad, "trust", 3, seed=1)
    assert not plain.aborts and plain.excluded_history == [[], [], []]


def test_dropouts_are_erasures_for_share_protocol():
    task = small_task()
    bad = {5: Behavior.dropout(1), 6: Behavior.dropout(3)}
    m = sim.run_experiment(task, bad, "secure", 3, seed=7)
    assert not m.aborts
    for ts in m.trust_history:
        assert 5 not in ts  # silent before dealing shares: not in the layout
        assert 6 in ts  # dealt shares, went silent later: decoded via erasures
    avg = sim.run_experiment(task, bad, "fedavg", 3, seed=7)
    assert not avg.aborts and len(avg.accuracy) == 3


def test_aborted_iterations_recorded_not_fatal():
    task = small_task()
    bad = {pid: Behavior.dropout(1) for pid in (1, 2, 3, 4)}  # quorum is 10 of 12
    m = sim.run_experiment(task, bad, "secure", 3, seed=4)
    assert len(m.aborts) == 3
    assert all("threshold" in reason for _, reason in m.aborts)
    assert len(m.accuracy) == 3
    assert m.trust_history == []


def test_experiment_rejects_bad_arguments():
    task = small_task()
    with pytest.raises(ValueError, match="unknown protocol"):
        sim.run_experiment(task, None, "majority", 2)
    with pytest.raises(ValueError, match="binary"):
        sim.run_experiment(small_task(n_classes=3), None, "fedavg", 2)
