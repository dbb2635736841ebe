"""Polynomial and dense linear algebra over a prime field.

Coefficient vectors are lists of canonical field elements, lowest degree
first.  Everything here is exact pure-Python integer arithmetic; these are the
reference routines the vectorized kernels and the decoder are checked against.
"""

from __future__ import annotations

from .field import f_inv


def poly_trim(c: list[int]) -> list[int]:
    """Drop trailing zero coefficients (keep at least one)."""
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def poly_deg(c: list[int]) -> int:
    """Degree with the zero polynomial reported as -1."""
    for i in range(len(c) - 1, -1, -1):
        if c[i] != 0:
            return i
    return -1


def poly_eval(c: list[int], x: int, p: int) -> int:
    acc = 0
    for coef in reversed(c):
        acc = (acc * x + coef) % p
    return acc


def poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a / b; raises on zero divisor."""
    db = poly_deg(b)
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [c % p for c in a]
    da = poly_deg(rem)
    if da < db:
        return [0], poly_trim(rem)
    inv_lead = f_inv(b[db], p)
    quot = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        coef = rem[db + k] * inv_lead % p
        quot[k] = coef
        if coef:
            for j in range(db + 1):
                rem[k + j] = (rem[k + j] - coef * b[j]) % p
    return quot, poly_trim(rem)


def poly_from_roots(roots: list[int], p: int) -> list[int]:
    out = [1]
    for r in roots:
        out = poly_mul(out, [(-r) % p, 1], p)
    return out


# ---------------------------------------------------------------------------
# Lagrange interpolation
# ---------------------------------------------------------------------------


def lagrange_weights_at(xs: list[int], x0: int, p: int) -> list[int]:
    """Weights w_t with sum_t w_t * y_t = (interpolant of (xs, ys))(x0)."""
    n = len(xs)
    weights = []
    for t in range(n):
        num = 1
        den = 1
        for s in range(n):
            if s == t:
                continue
            num = num * ((x0 - xs[s]) % p) % p
            den = den * ((xs[t] - xs[s]) % p) % p
        weights.append(num * f_inv(den, p) % p)
    return weights


def lagrange_coeffs(xs: list[int], ys: list[int], p: int) -> list[int]:
    """Full coefficient vector of the interpolating polynomial (O(n^2))."""
    n = len(xs)
    out = [0] * n
    for t in range(n):
        basis = [1]
        den = 1
        for s in range(n):
            if s == t:
                continue
            basis = poly_mul(basis, [(-xs[s]) % p, 1], p)
            den = den * ((xs[t] - xs[s]) % p) % p
        k = ys[t] * f_inv(den, p) % p
        for i, c in enumerate(basis):
            out[i] = (out[i] + k * c) % p
    return poly_trim(out)


# ---------------------------------------------------------------------------
# Dense exact linear algebra mod p
# ---------------------------------------------------------------------------


def nullspace_vector(rows: list[list[int]], p: int) -> list[int] | None:
    """Any nonzero kernel vector of A, or None if the kernel is trivial."""
    n = len(rows)
    m = len(rows[0]) if n else 0
    a = [[rows[i][j] % p for j in range(m)] for i in range(n)]
    pivot_cols: list[int] = []
    r = 0
    for col in range(m):
        sel = next((i for i in range(r, n) if a[i][col]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = f_inv(a[r][col], p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(n):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [(vi - f * vr) % p for vi, vr in zip(a[i], a[r])]
        pivot_cols.append(col)
        r += 1
        if r == n:
            break
    free_cols = [c for c in range(m) if c not in pivot_cols]
    if not free_cols:
        return None
    free = free_cols[0]
    x = [0] * m
    x[free] = 1
    for row, col in zip(range(r), pivot_cols):
        x[col] = (-a[row][free]) % p
    return x


def matinv_mod(mat: list[list[int]], p: int) -> list[list[int]]:
    """Inverse of a square matrix; raises ValueError if singular."""
    n = len(mat)
    a = [[mat[i][j] % p for j in range(n)] + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        sel = next((i for i in range(col, n) if a[i][col]), None)
        if sel is None:
            raise ValueError("matrix is singular")
        a[col], a[sel] = a[sel], a[col]
        inv = f_inv(a[col][col], p)
        a[col] = [v * inv % p for v in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [(vi - f * vr) % p for vi, vr in zip(a[i], a[col])]
    return [row[n:] for row in a]


def matmul_mod_py(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    """Reference matrix product used to cross-check the vectorized kernel."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            f = ai[k]
            if f == 0:
                continue
            bk = b[k]
            row = out[i]
            for j in range(cols):
                row[j] = (row[j] + f * bk[j]) % p
    return out
