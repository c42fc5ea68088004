"""Sparse monomials shared by the descendent and lattice algebras.

Both are polynomial algebras in generators indexed by a name (a quiver
vertex or lattice basis element) and an index ``>= 1`` (the descendent
index or the oscillator mode).  A monomial is a sorted tuple of
``(name, index, power)`` with ``power >= 1``, strictly increasing in
``(name, index)``; its degree is ``sum(index * power)``.  Polynomials and
states are dicts from monomial-bearing keys to exact coefficients.
"""

from __future__ import annotations

from typing import Iterable

Monomial = tuple[tuple[str, int, int], ...]


def mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    powers: dict[tuple[str, int], int] = {}
    for v, i, p in a + b:
        powers[(v, i)] = powers.get((v, i), 0) + p
    return tuple((v, i, p) for (v, i), p in sorted(powers.items()))


def degree(m: Monomial) -> int:
    return sum(i * p for _, i, p in m)


def drop_factor(m: Monomial, pos: int) -> Monomial:
    """m with one power of its factor at position pos removed."""
    v, i, p = m[pos]
    if p == 1:
        return m[:pos] + m[pos + 1:]
    return m[:pos] + ((v, i, p - 1),) + m[pos + 1:]


def add_into(out: dict, key, c) -> None:
    """out[key] += c in place; a zero c adds no key."""
    if c:
        out[key] = out.get(key, 0) + c


def of_degree(names: Iterable[str], max_degree: int,
              min_degree: int = 0) -> list[Monomial]:
    """Every monomial in the generators (name, index) with degree in
    [min_degree, max_degree], ordered by (degree, monomial)."""
    gens = [(v, i) for v in names for i in range(1, max_degree + 1)]
    found: list[Monomial] = []

    def rec(start: int, remaining: int, acc: Monomial):
        if min_degree <= max_degree - remaining:
            found.append(acc)
        for gi in range(start, len(gens)):
            v, i = gens[gi]
            if i <= remaining:
                rec(gi, remaining - i, mul(acc, ((v, i, 1),)))

    if max_degree >= 0:
        rec(0, max_degree, ())
    return sorted(found, key=lambda m: (degree(m), m))
