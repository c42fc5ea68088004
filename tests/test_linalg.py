import random
from fractions import Fraction

import pytest

from quiver_virasoro.linalg import (
    inverse,
    kernel_basis,
    rref,
)


def _rand_matrix(rng, rows, cols, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_rref_is_idempotent_and_pivots_are_unit_columns():
    rng = random.Random(11)
    for _ in range(25):
        m = _rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        red, pivots = rref(m)
        red2, pivots2 = rref(red)
        assert red == red2
        assert pivots == pivots2
        for r, c in enumerate(pivots):
            assert red[r][c] == 1
            for rr in range(len(red)):
                if rr != r:
                    assert red[rr][c] == 0


def test_inverse_round_trip_and_singular_error():
    rng = random.Random(3)
    found = 0
    while found < 10:
        n = rng.randint(1, 4)
        a = _rand_matrix(rng, n, n)
        if len(rref(a)[1]) < n:
            continue
        found += 1
        inv = inverse(a)
        prod = _mat_mul(a, inv)
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (1 if i == j else 0)
    with pytest.raises(ValueError, match="singular"):
        inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_kernel_basis_spans_the_null_space():
    rng = random.Random(19)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        a = _rand_matrix(rng, rows, cols)
        basis = kernel_basis(a)
        assert len(basis) == cols - len(rref(a)[1])
        for vec in basis:
            for row in a:
                assert sum(row[j] * vec[j] for j in range(cols)) == 0

