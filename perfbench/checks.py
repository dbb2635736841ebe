"""Correctness checks on one benchmark iteration.

Each check compares the protocol's result against a figure reached apart from
the secure pipeline:

* trust numerators and their total, as exact Python-int dot products of the
  quantized inputs;
* the update, against the float cosine-trust rule on the normalized gradients;
* offenders, exclusions and round-3 respondents, against the planted faults;
* metered bytes, against the closed-form predictor `bench.predict_comm`
  (honest workloads only: it models a fault-free iteration).

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

from packsecagg import fastops
from packsecagg.bench import expand_plan, predict_for
from packsecagg.protocol import R_FINAL, normalize_and_quantize

# The protocol quantizes at scale 2^16 and weights by exact integer dot
# products; against the float rule that leaves a per-coordinate rounding error
# of about 1/scale plus a small relative error in each trust weight.  Over
# three seeds of every workload the largest deviation was 9.7e-5 of the
# update's largest entry (honest_wide); the bound leaves a tenfold margin.
UPDATE_RTOL = 1e-3


def expected_numerators(cfg, grads: dict, root: np.ndarray, roster: list[int]) -> dict[int, int]:
    """Trust numerators of the roster: clipped-positive dot products of each
    quantized, reference-normalized gradient with the quantized reference,
    zero when the squared norm exceeds the published bound."""
    root_ints = [int(v) for v in fastops.quantize_arr(root, cfg.scale)]
    ref_norm = float(np.linalg.norm(root))
    denom_sq = sum(v * v for v in root_ints)
    bound = (math.isqrt(denom_sq) + math.isqrt(cfg.dim) + 2) ** 2
    nums = {}
    for uid in roster:
        ints = [int(v) for v in normalize_and_quantize(grads[uid], ref_norm, cfg.scale, bound)]
        dot = sum(a * b for a, b in zip(ints, root_ints))
        norm = sum(a * a for a in ints)
        nums[uid] = max(0, dot) if norm <= bound else 0
    return nums


def float_update(grads: dict, root: np.ndarray, roster: list[int]) -> np.ndarray:
    """The aggregation rule in floats: gradients rescaled to the reference
    norm, weighted by their clipped-positive cosine with the reference."""
    ref_norm = float(np.linalg.norm(root))
    total = np.zeros_like(root)
    weight = 0.0
    for uid in roster:
        g = np.asarray(grads[uid], dtype=np.float64)
        norm = float(np.linalg.norm(g))
        cos = max(0.0, float(g @ root) / (norm * ref_norm))
        total += cos * g * (ref_norm / norm)
        weight += cos
    return total / weight if weight else total


def check_trust(cfg, inputs, result, roster) -> list[str]:
    _, grads, root = inputs
    want = expected_numerators(cfg, grads, root, roster)
    problems = []
    if result.numerators != want:
        wrong = sorted(u for u in set(want) | set(result.numerators) if want.get(u) != result.numerators.get(u))
        problems.append(f"trust numerators differ for clients {wrong}")
    if result.denominator != sum(want.values()):
        problems.append(f"denominator {result.denominator} != {sum(want.values())}")
    return problems


def check_update(inputs, result, roster) -> list[str]:
    _, grads, root = inputs
    want = float_update(grads, root, roster)
    got = np.asarray(result.update, dtype=np.float64)
    if got.shape != want.shape:
        return [f"update shape {got.shape} != {want.shape}"]
    err = float(np.max(np.abs(got - want)))
    tol = UPDATE_RTOL * float(np.max(np.abs(want)))
    return [] if err <= tol else [f"update deviates from the float rule by {err:.3g} > {tol:.3g}"]


def check_planted(result, roster: list[int], planted) -> list[str]:
    """Offenders, exclusions and roster match the planted faults exactly."""
    problems = []
    if result.offenders != sorted(planted.wrong_computation):
        problems.append(f"offenders {result.offenders} != planted {sorted(planted.wrong_computation)}")
    if result.excluded != sorted(planted.invalid_shares):
        problems.append(f"excluded {result.excluded} != planted {sorted(planted.invalid_shares)}")
    if result.roster != roster:
        problems.append("roster is not every client minus the excluded ones")
    final_resp = result.respondents.get(R_FINAL, [])
    for uid in planted.silent_from_final:
        if uid in final_resp:
            problems.append(f"client {uid}, silent from round 3, answered round 3")
    return problems


def check_bytes(cfg, up: dict, down: dict) -> list[str]:
    """Per-party, per-round metered bytes equal the predictor's to the byte."""
    want_up, want_down = expand_plan(predict_for(cfg), cfg.n_clients)
    problems = []
    for label, got, want in (("up", up, want_up), ("down", down, want_down)):
        if got != want:
            keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            problems.append(f"{label} bytes differ from the predictor at (party, round) {keys[:4]}")
    return problems


def check_iteration(cfg, inputs, result, up, down, planted, honest: bool) -> list[str]:
    roster = [u for u in range(1, cfg.n_clients + 1) if u not in planted.invalid_shares]
    problems = check_trust(cfg, inputs, result, roster)
    problems += check_update(inputs, result, roster)
    problems += check_planted(result, roster, planted)
    if honest:
        problems += check_bytes(cfg, up, down)
    return problems
