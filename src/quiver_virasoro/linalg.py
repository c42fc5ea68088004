"""Small exact linear-algebra helpers over ``fractions.Fraction``.

Everything in this package is exact rational arithmetic; the matrices that
show up (the inverse of a lattice's symmetrized form, the kernel that spans
the bracket suite's residual-free states) are tiny and dense, so plain
Gaussian elimination over Fraction is both simplest and fast enough.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def _as_fractions(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
    mat = _as_fractions(rows)
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def inverse(rows) -> Matrix:
    mat = _as_fractions(rows)
    n = len(mat)
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def kernel_basis(rows) -> list[list[Fraction]]:
    """Basis of the right null space {x : A x = 0}."""
    mat = _as_fractions(rows)
    if not mat:
        return []
    ncols = len(mat[0])
    red, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis

