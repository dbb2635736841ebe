"""Berlekamp-Welch decoder: clean, errorful, erasure, and hostile inputs."""

import numpy as np
import pytest

from packsecagg.field import MERSENNE61
from packsecagg.poly import poly_eval, poly_trim
from packsecagg.rsdecode import DecodingError, max_errors, rs_decode, rs_decode_batch


def _codeword(coeffs, xs, p):
    return [poly_eval(coeffs, x, p) for x in xs]


def test_max_errors():
    assert max_errors(20, 5) == 7
    assert max_errors(6, 5) == 0
    assert max_errors(5, 5) == 0


def test_clean_codeword_decodes_with_no_error_positions():
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


def test_error_budget_zero_accepts_a_clean_codeword_and_rejects_corruption():
    # 4 points at degree 2 leave a budget of max_errors(4, 2) == 0: the
    # Berlekamp-Welch kernel holds (P, 1) for a clean codeword and is
    # trivial for an inconsistent one
    p = 127
    coeffs = [1, 2, 3]
    xs = list(range(1, 5))
    ys = _codeword(coeffs, xs, p)
    assert max_errors(len(xs), 2) == 0
    res = rs_decode(xs, ys, 2, p)
    assert res.coeffs == coeffs and res.error_positions == []
    ys[2] = (ys[2] + 1) % p
    with pytest.raises(DecodingError):
        rs_decode(xs, ys, 2, p)


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
    for xs in ([1, 1, 2, 3], [1, 2, 3, 1]):
        with pytest.raises(ValueError, match="distinct"):
            rs_decode_batch(xs, np.zeros((1, 4), dtype=np.uint64), 1, 31)


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


def test_batch_shared_columns_locate_once(nullspace_calls):
    rows, _ = _batch_rows(31)
    got = _batch(rows)
    assert len(nullspace_calls) == 1  # the first dirty row, decoded alone
    assert {tuple(r.error_positions) for r in got} == {(), SHARED[:1], SHARED}
    assert _pairs(got) == _pairs(_per_row(rows))


def test_batch_extra_error_off_the_shared_columns():
    # the extra column lies outside the next interpolation head, so the row
    # is accepted in the same pass as the rows with the shared columns only
    rows, rng = _batch_rows(32)
    _corrupt(rng, rows[4], [9])
    expect = _assert_batch_equals_per_row(rows)
    assert expect[4].error_positions == [0, 7, 9, 15]


def test_batch_row_with_an_error_in_the_next_head_takes_one_more_decode(nullspace_calls):
    # once the shared columns are erased, the next pass interpolates from
    # columns 1..6; row 4's extra error at column 1 puts it off its
    # interpolant, so it is decoded alone, and column 1 joins the erased set
    rows, rng = _batch_rows(33)
    _corrupt(rng, rows[4], [1])
    expect = _per_row(rows)
    assert expect[4].error_positions == [0, 1, 7, 15]
    nullspace_calls.clear()
    got = _batch(rows)
    assert len(nullspace_calls) == 2  # the first dirty row, then row 4 alone
    assert _pairs(got) == _pairs(expect)


def test_batch_row_beyond_the_budget_raises():
    rows, rng = _batch_rows(34)
    _corrupt(rng, rows[5], [1, 2, 3, 5, 8, 10, 12])  # 7 errors, budget 6
    expect = _assert_batch_equals_per_row(rows)
    assert expect[5] is None


def _spread_batch(xs, degree, n_rows, wrong_cols, seed):
    """n_rows random codewords over xs; row r is corrupted on wrong_cols(r)."""
    rng = np.random.default_rng(seed)
    rows = []
    for r in range(n_rows):
        ys = _codeword([int(v) for v in rng.integers(0, P, degree + 1)], xs, P)
        _corrupt(rng, ys, wrong_cols(r))
        rows.append(ys)
    return rows


SPREAD_PATTERNS = {
    # every row within budget, but together they touch every column
    "pairs over all 18": (BATCH_XS, BATCH_DEG, 30, lambda r: [r % 18, (r + 5) % 18]),
    # 7 columns wrong, row r spares column r mod 7: 6 errors against budget 6
    "7 columns, one spared": (
        BATCH_XS, BATCH_DEG, 30, lambda r: [c for c in range(7) if c != r % 7]
    ),
    # honest_wide's decode shape: 12 of 40 parties wrong, each row sparing one
    "12 of 40, one spared": (
        list(range(1, 41)), 16, 48, lambda r: [c for c in range(12) if c != r % 12]
    ),
}


@pytest.mark.parametrize("pattern", list(SPREAD_PATTERNS))
def test_batch_spread_errors_cost_at_most_one_decode_per_wrong_column(pattern, nullspace_calls):
    xs, degree, n_rows, wrong_cols = SPREAD_PATTERNS[pattern]
    rows = _spread_batch(xs, degree, n_rows, wrong_cols, 35)
    wrong = set().union(*(wrong_cols(r) for r in range(n_rows)))
    got = rs_decode_batch(xs, np.array(rows, dtype=np.uint64), degree, P)
    assert len(nullspace_calls) <= len(wrong)
    assert _pairs(got) == _pairs([rs_decode(xs, ys, degree, P) for ys in rows])


def test_batch_erasing_all_but_degree_points_decodes_the_rest_row_by_row(nullspace_calls):
    # each pass interpolates from the next six unerased columns, and rows 0-2
    # err inside them in turn, so the erased set grows to columns 0-14 and
    # leaves three points for degree 5; rows 3-7 err on one column of every
    # head, so no pass accepts them and each is decoded alone at the end
    first = [list(range(6)), list(range(5, 11)), [0, 6, 11, 12, 13, 14]]
    rows = _spread_batch(
        BATCH_XS, BATCH_DEG, 8, lambda r: first[r] if r < 3 else [r - 3, r + 3, r + 9], 37
    )
    got = _batch(rows)
    assert len(nullspace_calls) == 8
    assert _pairs(got) == _pairs(_per_row(rows))


def test_batch_zero_polynomial():
    rows, _ = _batch_rows(36, zero=True)
    expect = _assert_batch_equals_per_row(rows)
    assert all(e.coeffs == [0] for e in expect)
