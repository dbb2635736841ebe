"""Berlekamp-Welch decoder: clean, errorful, erasure, and hostile inputs."""

import numpy as np
import pytest

from packsecagg import rsdecode
from packsecagg.field import MERSENNE61
from packsecagg.poly import poly_eval, poly_trim
from packsecagg.rsdecode import DecodingError, max_errors, rs_decode, rs_decode_batch


def _codeword(coeffs, xs, p):
    return [poly_eval(coeffs, x, p) for x in xs]


def test_max_errors():
    assert max_errors(20, 5) == 7
    assert max_errors(6, 5) == 0
    assert max_errors(5, 5) == 0


def test_clean_decode_fast_path():
    p = 127
    coeffs = [3, 0, 5, 9]
    xs = list(range(1, 11))
    res = rs_decode(xs, _codeword(coeffs, xs, p), 3, p)
    assert res.coeffs == coeffs and res.error_positions == []


def test_decode_with_errors_and_erasures():
    p = MERSENNE61
    rng = np.random.default_rng(21)
    coeffs = [int(v) for v in rng.integers(0, p, 6)]
    xs = list(range(2, 22))  # 20 points
    ys = _codeword(coeffs, xs, p)
    # two erasures: drop positions 4 and 11; three errors planted elsewhere
    keep = [i for i in range(20) if i not in (4, 11)]
    xs2 = [xs[i] for i in keep]
    ys2 = [ys[i] for i in keep]
    for slot in (0, 7, 15):
        ys2[slot] = (ys2[slot] + 1 + int(rng.integers(0, p - 1))) % p
    res = rs_decode(xs2, ys2, 5, p)
    assert poly_trim(res.coeffs) == poly_trim(coeffs)
    assert res.error_positions == [0, 7, 15]


def test_zero_polynomial_and_constant():
    p = 31
    xs = list(range(1, 8))
    res = rs_decode(xs, [0] * 7, 2, p)
    assert res.coeffs == [0]
    res = rs_decode(xs, [9] * 7, 0, p)
    assert res.coeffs == [9]


def test_error_budget_zero_rejects_corruption():
    p = 127
    coeffs = [1, 2, 3]
    xs = list(range(1, 6))
    ys = _codeword(coeffs, xs, p)
    ys[2] = (ys[2] + 1) % p
    with pytest.raises(DecodingError):
        rs_decode(xs, ys, 2, p, error_budget=0)


def test_too_few_shares_rejected():
    with pytest.raises(DecodingError):
        rs_decode([1, 2, 3], [4, 5, 6], 3, 127)


def test_beyond_budget_raises_not_silent():
    # S + 2E + d + 1 = n + 1: random corruption must not yield a silent wrong
    # answer on at least 95% of trials (here: all trials raise)
    p = 127
    rng = np.random.default_rng(22)
    failures = 0
    trials = 200
    for _ in range(trials):
        coeffs = [int(v) for v in rng.integers(0, p, 4)]
        xs = list(range(1, 13))  # n = 12, d = 3
        ys = _codeword(coeffs, xs, p)
        n_err = max_errors(12, 3) + 1  # 2E = n - d - 1 + 2
        slots = rng.choice(12, size=n_err, replace=False)
        for s in slots:
            ys[s] = (ys[s] + 1 + int(rng.integers(0, p - 1))) % p
        try:
            res = rs_decode(xs, ys, 3, p)
            if poly_trim(res.coeffs) != poly_trim(coeffs):
                failures += 1  # silent wrong answer
        except DecodingError:
            pass
    assert failures <= trials * 5 // 100


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        rs_decode([1, 1, 2, 3], [0, 0, 0, 0], 1, 31)


# ---------------------------------------------------------------------------
# Batch decoding: must equal per-row decoding exactly
# ---------------------------------------------------------------------------

P = MERSENNE61
BATCH_DEG = 5
ERASED = (4, 11)  # two of the 20 points are absent
BATCH_XS = [x for i, x in enumerate(range(2, 22)) if i not in ERASED]  # 18 present, e_max 6
SHARED = (0, 7, 15)  # columns of a party that computed wrongly


def _corrupt(rng, ys, cols):
    for col in cols:
        ys[col] = (ys[col] + 1 + int(rng.integers(0, P - 1))) % P


def _batch_rows(seed, zero=False):
    """30 codewords; most carry errors on all shared columns, some on the
    first only, some none."""
    rng = np.random.default_rng(seed)
    rows = []
    for r in range(30):
        coeffs = [0] if zero else [int(v) for v in rng.integers(0, P, BATCH_DEG + 1)]
        ys = _codeword(coeffs, BATCH_XS, P)
        if r % 3:
            _corrupt(rng, ys, SHARED)
        elif r % 2:
            _corrupt(rng, ys, SHARED[:1])
        rows.append(ys)
    return rows, rng


def _batch(rows):
    return rs_decode_batch(BATCH_XS, np.array(rows, dtype=np.uint64), BATCH_DEG, P)


def _per_row(rows):
    out = []
    for ys in rows:
        try:
            out.append(rs_decode(BATCH_XS, ys, BATCH_DEG, P))
        except DecodingError:
            out.append(None)
    return out


def _pairs(results):
    return [(r.coeffs, r.error_positions) for r in results]


def _assert_batch_equals_per_row(rows):
    expect = _per_row(rows)
    if None in expect:
        with pytest.raises(DecodingError):
            _batch(rows)
    else:
        assert _pairs(_batch(rows)) == _pairs(expect)
    return expect


@pytest.fixture
def nullspace_calls(monkeypatch):
    calls = []
    real = rsdecode.nullspace_vector

    def counting(rows, p):
        calls.append(len(rows))
        return real(rows, p)

    monkeypatch.setattr(rsdecode, "nullspace_vector", counting)
    return calls


def test_batch_shared_columns_locate_once(nullspace_calls):
    rows, _ = _batch_rows(31)
    got = _batch(rows)
    assert len(nullspace_calls) == 1  # one decode of the combined row
    assert {tuple(r.error_positions) for r in got} == {(), SHARED[:1], SHARED}
    assert _pairs(got) == _pairs(_per_row(rows))


def test_batch_extra_error_off_the_shared_columns():
    # the extra column joins the located set, so the row is still explained
    rows, rng = _batch_rows(32)
    _corrupt(rng, rows[4], [9])
    expect = _assert_batch_equals_per_row(rows)
    assert expect[4].error_positions == [0, 7, 9, 15]


def test_batch_row_the_located_pass_cannot_explain_falls_back(monkeypatch, nullspace_calls):
    # a zero coefficient hides row 4's extra error from the combined row, as a
    # predictable coefficient could let errors cancel: the row must take the
    # per-row decoder and still come out exact
    rows, rng = _batch_rows(33)
    _corrupt(rng, rows[4], [9])
    expect = _per_row(rows)
    dirty = [r for r, e in enumerate(expect) if e.error_positions]
    mix = np.ones(len(dirty), dtype=np.uint64)
    mix[dirty.index(4)] = 0
    monkeypatch.setattr(rsdecode, "_mixing_coeffs", lambda n, p: mix)
    nullspace_calls.clear()
    got = _batch(rows)
    assert len(nullspace_calls) == 2  # the combined row, then row 4 alone
    assert _pairs(got) == _pairs(expect)


def test_batch_row_beyond_the_budget_raises():
    rows, rng = _batch_rows(34)
    _corrupt(rng, rows[5], [1, 2, 3, 5, 8, 10, 12])  # 7 errors, budget 6
    expect = _assert_batch_equals_per_row(rows)
    assert expect[5] is None


def test_batch_union_beyond_the_budget_falls_back_whole(nullspace_calls):
    # every row is within budget, but together they touch every column
    rng = np.random.default_rng(35)
    rows = []
    for r in range(30):
        ys = _codeword([int(v) for v in rng.integers(0, P, BATCH_DEG + 1)], BATCH_XS, P)
        _corrupt(rng, ys, [r % 18, (r + 5) % 18])
        rows.append(ys)
    got = _batch(rows)
    assert len(nullspace_calls) == 1 + 30
    assert _pairs(got) == _pairs(_per_row(rows))


def test_batch_zero_polynomial():
    rows, _ = _batch_rows(36, zero=True)
    expect = _assert_batch_equals_per_row(rows)
    assert all(e.coeffs == [0] for e in expect)
