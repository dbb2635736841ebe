"""Pure-Python field polynomial kernels against each other."""

import random

import pytest

from packsecagg.field import MERSENNE61
from packsecagg.poly import lagrange_basis, matinv_mod


@pytest.mark.parametrize("p", [127, MERSENNE61])
def test_lagrange_basis_is_the_transposed_inverse_vandermonde(p):
    # row t of the basis holds L_t's coefficients; the inverse of
    # V[i][r] = x_i^r maps values to coefficients, so its column t is L_t
    rng = random.Random(p)
    for n in range(1, 34):
        xs = rng.sample(range(p if p < 1000 else 10**9), n)
        inv = matinv_mod([[pow(x, r, p) for r in range(n)] for x in xs], p)
        assert lagrange_basis(xs, p) == [list(col) for col in zip(*inv)]
