"""Acceptance battery: one numbered criterion per test, one PASS/FAIL line each.

Every criterion checks an end-to-end guarantee of the package against an
independent oracle (plaintext arithmetic, closed-form formulas, exhaustive
enumeration) at the tolerances stated inline.  Lines are printed straight to
the terminal so the verdict list survives pytest's capture.
"""

import functools
import math
import sys
import time

import numpy as np

from packsecagg import bench, dotprod, fastops, simulation
from packsecagg.channel import ServerMailbox
from packsecagg.field import (
    DEFAULT_SCALE,
    MERSENNE61,
    decode_signed,
    dequantize,
    encode_signed,
    f_add,
    f_inv,
    f_mul,
    f_sub,
    quantize,
)
from packsecagg.protocol import (
    R_FINAL,
    R_SHARE,
    T_COMMIT,
    T_SHARE,
    ClientFlags,
    ProtocolConfig,
    build_sessions,
    plaintext_trust_step,
    run_iteration,
)
from packsecagg.rsdecode import rs_decode
from packsecagg.sharing import SharingConfig, hadamard, reconstruct, share_batch
from packsecagg.simulation import Behavior, SyntheticTask
from packsecagg.vss import make_scheme


RESULTS: list[str] = []


def _line(num: int, title: str, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    text = f"{tag}  criterion {num:2d}: {title}"
    if detail:
        text += f"  [{detail}]"
    RESULTS.append(text)
    print(text, file=sys.__stdout__, flush=True)


def criterion(num: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                detail = fn(*args, **kwargs) or ""
            except BaseException as exc:
                note = str(exc).splitlines()[0][:120] if str(exc) else type(exc).__name__
                _line(num, title, False, note)
                raise
            dt = time.perf_counter() - t0
            _line(num, title, True, f"{detail}; {dt:.1f}s" if detail else f"{dt:.1f}s")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# 1: field arithmetic and quantization
# ---------------------------------------------------------------------------


@criterion(1, "field/quantization invariants (exhaustive P=31, randomized 2^61-1)")
def test_criterion_01_field_and_quantization():
    p = 31
    for u in range(p):
        assert encode_signed(decode_signed(u, p), p) == u
    for v in range(-(p // 2), p // 2 + 1):
        assert decode_signed(encode_signed(v, p), p) == v
    for a in range(p):
        for b in range(p):
            assert f_add(a, b, p) == (a + b) % p
            assert f_sub(a, b, p) == (a - b) % p
            assert f_mul(a, b, p) == (a * b) % p
        if a:
            assert f_mul(a, f_inv(a, p), p) == 1
    # scalar quantization error bound on a dense grid within P=31 range
    q31 = 8
    for x in np.linspace(-1.85, 1.85, 1551):
        v = quantize(float(x), q31)
        assert abs(v) <= p // 2
        assert abs(dequantize(v, q31) - x) <= 1 / q31
        assert decode_signed(encode_signed(v, p), p) == v

    rng = np.random.default_rng(1001)
    n = 10_000
    xs = rng.uniform(-1e3, 1e3, n) * rng.choice([1e-4, 1.0, 17.3], n)
    vs = fastops.quantize_arr(xs, DEFAULT_SCALE)
    err = np.abs(vs.astype(np.float64) / DEFAULT_SCALE - xs)
    assert float(err.max()) <= 1 / DEFAULT_SCALE
    sample = rng.integers(0, n, 500)
    assert all(int(vs[i]) == quantize(float(xs[i]), DEFAULT_SCALE) for i in sample)
    enc = fastops.encode_signed_arr(vs, MERSENNE61)
    assert (enc < MERSENNE61).all()
    assert (fastops.decode_signed_arr(enc, MERSENNE61) == vs).all()
    av = rng.integers(0, MERSENNE61, n, dtype=np.uint64)
    bv = rng.integers(0, MERSENNE61, n, dtype=np.uint64)
    got = fastops.mul_mod(av, bv, MERSENNE61)
    for i in rng.integers(0, n, 200):
        a, b = int(av[i]), int(bv[i])
        assert int(got[i]) == a * b % MERSENNE61
        assert f_mul(a, b, MERSENNE61) == a * b % MERSENNE61
    return f"{n} randomized cases"


# ---------------------------------------------------------------------------
# 2: packed-sharing secrecy by enumeration
# ---------------------------------------------------------------------------


@criterion(2, "secrecy: share pairs at d-l+1 positions identical across all secrets (F_31)")
def test_criterion_02_packed_secrecy_enumeration():
    p, pack, degree, n = 31, 2, 3, 8
    cfg = SharingConfig(p, n, pack, degree)
    xs = np.array(cfg.eval_points, dtype=np.int64)  # parties at 3..10
    assert cfg.secret_points == (1, 2)
    # every sharing of (s1, s2): interp(s1, s2) + (x-1)(x-2) * (a + b x)
    inv = lambda v: pow(int(v) % p, p - 2, p)
    l1 = (xs - 2) * inv(1 - 2) % p  # Lagrange basis over the secret points
    l2 = (xs - 1) * inv(2 - 1) % p
    z = (xs - 1) * (xs - 2) % p
    xz = xs * z % p
    grid = np.arange(p)
    s1, s2 = np.meshgrid(grid, grid, indexing="ij")
    s1, s2 = s1.ravel(), s2.ravel()  # all 961 secret vectors
    a, b = np.meshgrid(grid, grid, indexing="ij")
    a, b = a.ravel(), b.ravel()  # all 961 blinding polynomials
    reference = None
    n_positions = degree - pack + 1  # what a maximal ignorant coalition sees
    assert n_positions == 2
    checked = 0
    for i in range(n):
        for j in range(i + 1, n):
            base_i = (s1 * l1[i] + s2 * l2[i]) % p  # (961,) per secret vector
            base_j = (s1 * l1[j] + s2 * l2[j]) % p
            blind_i = (a * z[i] + b * xz[i]) % p  # (961,) per blinding choice
            blind_j = (a * z[j] + b * xz[j]) % p
            keys = ((base_i[:, None] + blind_i[None, :]) % p) * p + (
                (base_j[:, None] + blind_j[None, :]) % p
            )
            keys.sort(axis=1)
            if reference is None:
                reference = keys[0].copy()
            assert (keys == reference[None, :]).all()
            checked += 1
    assert checked == n * (n - 1) // 2
    # the library's dealer stays inside the enumerated family
    rng = np.random.default_rng(7)
    batch = share_batch(cfg, np.array([[5, 23]], dtype=np.uint64), rng)
    got = reconstruct(cfg, list(range(1, 5)), batch.shares[0, :4])
    assert got.tolist() == [5, 23]
    return f"{checked} position pairs x 961 secret vectors x 961 sharings"


# ---------------------------------------------------------------------------
# 3: error-correcting decoder
# ---------------------------------------------------------------------------


@criterion(3, "decoder: 100 trials, 3 errors + 2 erasures on degree-5 codewords")
def test_criterion_03_error_decoding_trials():
    p, n, degree, n_err, n_gone = MERSENNE61, 20, 5, 3, 2
    rng = np.random.default_rng(33)
    xs_all = list(range(1, n + 1))
    assert n_gone + 2 * n_err + degree + 1 <= n
    for _ in range(100):
        coeffs = [int(v) for v in rng.integers(0, p, degree + 1, dtype=np.uint64)]
        ys_all = []
        for x in xs_all:
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * x + c) % p
            ys_all.append(acc)
        keep = sorted(rng.choice(n, n - n_gone, replace=False).tolist())
        xs = [xs_all[i] for i in keep]
        ys = [ys_all[i] for i in keep]
        wrong = sorted(rng.choice(len(xs), n_err, replace=False).tolist())
        for i in wrong:
            ys[i] = (ys[i] + int(rng.integers(1, p))) % p
        result = rs_decode(xs, ys, degree, p)
        got = list(result.coeffs) + [0] * (degree + 1 - len(result.coeffs))
        assert got == coeffs
        assert sorted(result.error_positions) == wrong
    return "100/100 exact recoveries with all planted errors located"


# ---------------------------------------------------------------------------
# 4: commitment soundness against split-share dealers
# ---------------------------------------------------------------------------


@criterion(4, "verifiable sharing: 1000 split-share dealers all detected (real group)")
def test_criterion_04_commitment_soundness():
    p, degree, n = MERSENNE61, 4, 8
    rng = np.random.default_rng(44)
    xs = list(range(3, 3 + n))
    schemes = [
        make_scheme("coefficient", p, degree, fast=False),
        make_scheme("constant", p, degree, fast=False, setup_seed=9),
    ]

    def evals(coeffs, x):
        acc = 0
        for c in reversed([int(c) for c in coeffs]):
            acc = (acc * x + c) % p
        return acc

    trials_per_scheme = 500  # 1000 total malicious dealers
    for scheme in schemes:
        for _ in range(trials_per_scheme):
            a = rng.integers(0, p, degree + 1, dtype=np.uint64)
            delta = rng.integers(1, p, degree + 1, dtype=np.uint64)
            b = (a + delta) % p  # a different polynomial of the same degree
            comm = scheme.commit_batch(a[None, :])[0]
            split = rng.choice(n, n // 2, replace=False).tolist()
            caught = 0
            for idx, x in enumerate(xs):
                cheat = idx in split
                coeffs = b if cheat else a
                value = evals(coeffs, x)
                if scheme.needs_witness:
                    wit = scheme.open_batch(coeffs[None, :], x)[0]
                    ok = scheme.verify(comm, x, value, wit)
                else:
                    ok = scheme.verify(comm, x, value)
                if cheat:
                    caught += 0 if ok else 1
                else:
                    assert ok  # honest shares always verify
            assert caught >= 1  # detection on at least one recipient
    return f"{2 * trials_per_scheme} dealers, detection on every trial"


# ---------------------------------------------------------------------------
# 5: dot-product pipeline exactness
# ---------------------------------------------------------------------------


@criterion(5, "dot/norm pipeline exact over 1000 randomized trials, 5 configs")
def test_criterion_05_pipeline_exactness():
    p = MERSENNE61
    rng = np.random.default_rng(55)

    # the illustrative packed product: strided width-3 packing of two small
    # vectors yields per-slot partials (0, 15, -9) and total 6
    cfg = SharingConfig(p, 8, 3, 3)
    u = np.array([2, -1, 4, 5, 6, 3])
    r = np.array([1, 2, 0, 3, -2, 1])
    prod = hadamard(dotprod.share_vector(cfg, u, rng), dotprod.share_vector(cfg, r, rng))
    rec = reconstruct(cfg, list(range(1, 8)), prod.shares[:, :7], degree_tag=6)
    partials = fastops.decode_signed_arr(fastops.sum_mod(rec, p, axis=0), p)
    assert partials.tolist() == [0, 15, -9]
    assert int(partials.sum()) == 6

    configs = [  # (n, dim, pack, reshare_pack, degree, trials)
        (10, 20, 2, 2, 3, 400),
        (12, 30, 3, 3, 4, 200),
        (16, 24, 2, 4, 5, 150),
        (20, 40, 4, 2, 6, 150),
        (50, 50, 5, 5, 20, 100),
    ]
    total = 0
    for n, dim, pack, rpack, degree, trials in configs:
        gcfg = SharingConfig(p, n, pack, degree)
        rcfg = SharingConfig(p, n, rpack, degree)
        for _ in range(trials):
            vecs = rng.integers(-1000, 1001, size=(n, dim))
            root = rng.integers(-1000, 1001, size=dim)
            dots, norms, offenders = dotprod.pipeline_dot_products(
                gcfg, rcfg, vecs, root, rng
            )
            assert offenders == []
            assert (dots == vecs @ root).all()
            assert (norms == (vecs * vecs).sum(axis=1)).all()
            total += 1
    assert total == 1000
    return f"{total} trials, every user's dot and norm exact"


# ---------------------------------------------------------------------------
# 6: end-to-end honest protocol equivalence under dropout
# ---------------------------------------------------------------------------


@criterion(6, "honest run N=50 M=512, 20% final-round dropouts: oracle-exact")
def test_criterion_06_end_to_end_equivalence():
    cfg = ProtocolConfig(n_clients=50, dim=512, pack=5, reshare_pack=5, degree=20, seed=6)
    server, clients = build_sessions(cfg)
    dropped = list(range(5, 55, 5))  # 10 of 50 go silent before round 3
    mailbox = ServerMailbox(silenced={pid: R_FINAL for pid in dropped})
    rng = np.random.default_rng(66)
    grads = {pid: rng.normal(size=cfg.dim) for pid in range(1, 51)}
    root = rng.normal(size=cfg.dim)
    root *= 1.5 / np.linalg.norm(root)
    result = run_iteration(cfg, server, clients, mailbox, 0, np.zeros(cfg.dim), grads, root)
    oracle = plaintext_trust_step(grads, root, cfg.scale)
    assert result.numerators == oracle.numerators  # all 50, dropouts included
    assert result.denominator == oracle.denominator
    assert result.excluded == [] and result.offenders == []
    assert sorted(result.respondents[R_FINAL]) == [u for u in range(1, 51) if u not in dropped]
    tol = 1 / cfg.scale
    assert float(np.max(np.abs(result.update - oracle.update))) <= tol
    return f"trust numerators exact, update within {tol:.1e}"


# ---------------------------------------------------------------------------
# 7: Byzantine tolerance at 30% attackers
# ---------------------------------------------------------------------------


@criterion(7, "30% byzantine N=20: honest-subset output exact, offenders named")
def test_criterion_07_byzantine_tolerance():
    cfg = ProtocolConfig(
        n_clients=20, dim=24, pack=2, reshare_pack=2, degree=5,
        report_threshold=6, seed=7,
    )
    flags = {pid: ClientFlags(invalid_shares=True) for pid in (1, 2, 3)}
    flags |= {pid: ClientFlags(wrong_computation=True) for pid in (4, 5, 6)}
    server, clients = build_sessions(cfg, flags)
    mailbox = ServerMailbox()
    rng = np.random.default_rng(77)
    grads = {pid: rng.normal(size=cfg.dim) for pid in range(1, 21)}
    root = rng.normal(size=cfg.dim)
    root *= 1.2 / np.linalg.norm(root)
    result = run_iteration(cfg, server, clients, mailbox, 0, np.zeros(cfg.dim), grads, root)
    assert result.excluded == [1, 2, 3]  # garbage dealers voted out
    assert result.offenders == [4, 5, 6]  # garbled computations corrected + named
    assert result.roster == list(range(4, 21))
    oracle = plaintext_trust_step({u: grads[u] for u in result.roster}, root, cfg.scale)
    assert result.numerators == oracle.numerators
    assert np.array_equal(result.update, oracle.update)
    return "excluded [1,2,3], corrected offenders [4,5,6], outputs oracle-exact"


# ---------------------------------------------------------------------------
# 8: robustness trend at scale
# ---------------------------------------------------------------------------


@criterion(8, "N=100 T=100, 30% poisoned gradients: robust protocol holds")
def test_criterion_08_robustness_trend():
    task = SyntheticTask(
        seed=11, n_features=256, n_clients=100, samples_per_client=64,
        root_samples=200, test_samples=2000,
    )
    attackers = {pid: Behavior("gradient_manipulation") for pid in range(1, 31)}
    favg_clean = simulation.run_experiment(task, None, "fedavg", 100, seed=1)
    favg_bad = simulation.run_experiment(task, attackers, "fedavg", 100, seed=1)
    sec_clean = simulation.run_experiment(task, None, "secure", 100, seed=1)
    sec_bad = simulation.run_experiment(task, attackers, "secure", 100, seed=1)
    assert not sec_clean.aborts and not sec_bad.aborts
    gap = abs(sec_bad.final_accuracy - sec_clean.final_accuracy)
    drop = favg_clean.final_accuracy - favg_bad.final_accuracy
    ts_bad = sec_bad.mean_trust(sec_bad.attackers)
    assert gap <= 0.03
    assert drop >= 0.20
    assert ts_bad < 0.05
    return (
        f"robust {sec_clean.final_accuracy:.3f}->{sec_bad.final_accuracy:.3f}, "
        f"mean drop {drop:.2f}, attacker trust {ts_bad:.3f}"
    )


# ---------------------------------------------------------------------------
# 9: communication reduction and flatness
# ---------------------------------------------------------------------------


@criterion(9, "bytes: packed <= 25% of unpacked at N=100 M=1e5; flat in N")
def test_criterion_09_communication_reduction():
    # the closed-form counter is trusted only after matching metered runs
    for kw in (
        dict(n_clients=12, dim=40, pack=2, reshare_pack=2, degree=4),
        dict(n_clients=12, dim=40, pack=1, reshare_pack=1, degree=4),
    ):
        cfg = ProtocolConfig(commitment="constant", **kw)
        want = bench.expand_plan(bench.predict_for(cfg), cfg.n_clients)
        got_up, got_down, _ = bench.measure_comm(cfg, seed=9)
        assert (got_up, got_down) == want
    pack, degree = bench.packing_rule(100)
    packed = bench.predict_comm(100, 100_000, pack, pack, degree, "constant").client_total
    unpacked = bench.predict_comm(100, 100_000, 1, 1, degree, "constant").client_total
    ratio = packed / unpacked
    assert ratio <= 0.25
    flats = []
    for n in (100, 200, 400):
        pk, dg = bench.packing_rule(n)
        flats.append(bench.predict_comm(n, 100_000, pk, pk, dg, "constant").client_total)
    spread = max(flats) / min(flats) - 1
    assert spread < 0.05
    return f"ratio {ratio:.3f}, per-client spread across N(100..400) {spread * 100:.2f}%"


# ---------------------------------------------------------------------------
# 10: tamper detection, bit-exhaustive
# ---------------------------------------------------------------------------


@criterion(10, "every 1-bit flip in share ciphertext/signature/commitment rejected")
def test_criterion_10_tamper_detection():
    cfg = ProtocolConfig(
        n_clients=6, dim=8, pack=2, reshare_pack=2, degree=2,
        crypto_mode="real", commitment="constant", seed=10,
    )
    server, clients = build_sessions(cfg)
    mailbox = ServerMailbox()
    rng = np.random.default_rng(1010)
    grads = {pid: rng.normal(size=cfg.dim) for pid in range(1, 7)}
    root = rng.normal(size=cfg.dim)
    root *= 1.0 / np.linalg.norm(root)
    mailbox.submit_all(server.begin_iteration(0, np.zeros(cfg.dim), root, list(range(1, 7))))
    for pid in sorted(clients):
        clients[pid].begin_iteration(0)
        for env in mailbox.deliver(pid, 0):
            clients[pid].handle_model(env)
    for pid in sorted(clients):
        mailbox.submit_all(clients[pid].round_share(grads[pid]))
    server.forward_commits(mailbox, R_SHARE)
    victim = clients[2]
    envs = mailbox.deliver(2, R_SHARE)

    def intake(env_list):
        point = cfg.grad_cfg.eval_point(2)
        _, cols, _ = victim._verify_bundles(
            env_list, R_SHARE, cfg.n_poly, point, victim.columns[2], victim.own_commit_body
        )
        return cols

    assert 1 in intake(envs)  # untampered baseline accepted
    others = [e for e in envs if e.sender != 1]
    bcast = next(e for e in envs if e.sender == 1 and e.body[0] == T_COMMIT)
    direct = next(e for e in envs if e.sender == 1 and e.body[0] == T_SHARE)
    import struct as _struct
    (slen,) = _struct.unpack_from("<I", direct.body, 5)
    regions = [
        (direct, range(9 * 8, (9 + slen) * 8)),  # sealed share ciphertext
        (direct, range((len(direct.body) - 64) * 8, len(direct.body) * 8)),  # signature
        (bcast, range(5 * 8, (len(bcast.body) - 64) * 8)),  # commitment block
        (bcast, range((len(bcast.body) - 64) * 8, len(bcast.body) * 8)),  # its signature
    ]
    flips = 0
    for env, bits in regions:
        for bit in bits:
            body = bytearray(env.body)
            body[bit // 8] ^= 1 << (bit % 8)
            mutated = type(env)(env.sender, env.recipient, env.round, bytes(body))
            pair = [mutated, direct] if env is bcast else [bcast, mutated]
            cols = intake(others + pair)
            assert 1 not in cols, f"bit {bit} accepted"
            flips += 1
    return f"{flips} single-bit flips, all rejected"


# ---------------------------------------------------------------------------
# 11: convergence on a strongly convex task
# ---------------------------------------------------------------------------


@criterion(11, "quadratic task: monotone convergence to a quantization floor")
def test_criterion_11_convergence_floor():
    cfg = ProtocolConfig(n_clients=12, dim=64, pack=2, reshare_pack=2, degree=4, seed=13)
    server, clients = build_sessions(cfg)
    mailbox = ServerMailbox()
    rng = np.random.default_rng(111)
    w_star = rng.normal(size=cfg.dim)
    w = w_star + 1.5 * (lambda v: v / np.linalg.norm(v))(rng.normal(size=cfg.dim))
    rate = 0.5
    floor = 10 * rate * math.sqrt(cfg.dim) / cfg.scale
    dists = [float(np.linalg.norm(w - w_star))]
    for t in range(22):
        grads = {pid: w - w_star for pid in range(1, 13)}  # d/dw 0.5*||w - w*||^2
        result = run_iteration(cfg, server, clients, mailbox, t, w, grads, w - w_star)
        w = w - rate * result.update
        dists.append(float(np.linalg.norm(w - w_star)))
    for t in range(3, len(dists) - 1):
        assert dists[t + 1] < dists[t] or dists[t] <= floor
    assert dists[-1] <= floor
    return f"dist {dists[0]:.2f} -> {dists[-1]:.2e}, floor {floor:.2e}"
