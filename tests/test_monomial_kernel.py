"""Properties of the sparse-monomial kernel that the descendent and lattice
algebras share: the text form, the ring axioms, Leibniz for R_k, and the
two monomial enumerators against brute force."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from quiver_virasoro.descendents import (
    DescPoly,
    apply_R,
    context,
    enumerate_monomials,
    parse_poly,
    poly_to_str,
)
from quiver_virasoro.quivers import preset
from quiver_virasoro.vertex_algebra import Lattice, osc_monomials

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)
_CTX = context(preset("A_2"), (2, 1))


def _polys(vertices=("1", "2"), max_index=4):
    """Sparse polynomials with rational coefficients; each monomial is built
    directly in the canonical sorted (vertex, index, power) form."""
    monomial = st.dictionaries(
        st.tuples(st.sampled_from(vertices), st.integers(1, max_index)),
        st.integers(1, 3), max_size=3,
    ).map(lambda d: tuple((v, i, p) for (v, i), p in sorted(d.items())))
    coeff = st.fractions(-3, 3, max_denominator=4)
    return st.dictionaries(monomial, coeff, max_size=4).map(DescPoly)


@_SETTINGS
@given(_polys(vertices=("1", "v", "ab")))
def test_text_form_round_trips(p):
    assert parse_poly(poly_to_str(p)) == p


@_SETTINGS
@given(_polys(), _polys(), _polys())
def test_descpoly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@_SETTINGS
@given(st.integers(-1, 3), _polys(), _polys())
def test_apply_R_is_a_derivation(k, p, q):
    lhs = apply_R(k, p * q, _CTX)
    assert lhs == apply_R(k, p, _CTX) * q + p * apply_R(k, q, _CTX)


def _brute_force(names, max_degree, min_degree):
    """Every exponent vector on the generators (name, index <= max_degree),
    kept when its degree lies in [min_degree, max_degree]."""
    gens = [(v, i) for v in names for i in range(1, max_degree + 1)]
    found = []
    for exps in product(*(range(max_degree // i + 1) for _, i in gens)):
        deg = sum(i * e for (_, i), e in zip(gens, exps))
        if min_degree <= deg <= max_degree:
            found.append((deg, tuple(sorted((v, i, e) for (v, i), e in zip(gens, exps) if e))))
    return [m for _, m in sorted(found)]


_NAMES = st.sampled_from([("1",), ("1", "2"), ("a", "b", "c")])


@_SETTINGS
@given(_NAMES, st.integers(0, 4), st.integers(0, 5))
def test_enumerate_monomials_matches_brute_force(names, max_degree, min_degree):
    got = [next(iter(p.terms)) for p in enumerate_monomials(names, max_degree, min_degree)]
    assert got == _brute_force(names, max_degree, min_degree)


@_SETTINGS
@given(_NAMES, st.integers(0, 4))
def test_osc_monomials_matches_brute_force(names, degree):
    lat = Lattice(names, tuple(tuple(int(i == j) for j in range(len(names)))
                               for i in range(len(names))))
    assert osc_monomials(lat, degree) == _brute_force(names, degree, degree)
