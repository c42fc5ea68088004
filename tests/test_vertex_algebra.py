import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiver_virasoro import linalg, monomials, vertex_algebra
from quiver_virasoro.descendents import parse_poly, tau
from quiver_virasoro.quivers import framify, preset
from quiver_virasoro.vertex_algebra import (
    Lattice,
    VAState,
    central_charge,
    conformal_element,
    dual_pairing_sides,
    duality_defect,
    heisenberg_defect,
    heisenberg_mode,
    iterate_defect,
    k0_residual,
    max_nonzero_mode,
    osc_monomials,
    pairing,
    skew_defect,
    translate,
    vacuum,
    vertex_mode,
    virasoro_defect,
    virasoro_mode,
)


def _lat(name="A_1"):
    return Lattice.from_quiver(framify(preset(name)))


def _mono_state(lat, sector, mono, coeff=1):
    sec = tuple(Fraction(x) for x in sector)
    return VAState(lat, {(sec, tuple(mono)): Fraction(coeff)})


# ---------------------------------------------------------------------------
# lattice basics

def test_lattice_from_quiver_and_qsym():
    lat = _lat()
    assert lat.basis == ("(1)", "1")
    assert [list(row) for row in lat.qsym_matrix()] == [[0, -1], [-1, 2]]
    v = lat.vector("1")
    assert v == (Fraction(0), Fraction(1))
    assert lat.q(v, v) == 1
    assert lat.qsym(v, v) == 2


def test_degenerate_lattice_has_no_dual_basis():
    lat = Lattice.from_quiver(preset("Kronecker-2"))
    with pytest.raises(ValueError, match="degenerate"):
        lat.dual_basis()


def test_dual_basis_is_a_fresh_list_on_each_call():
    lat = _lat("A_2")
    first = lat.dual_basis()
    expect = list(first)
    first.reverse()
    first.append(None)
    assert lat.dual_basis() == expect


def test_degenerate_lattice_rejects_virasoro_modes():
    lat = Lattice.from_quiver(preset("Kronecker-2"))
    s = _mono_state(lat, (1, 0), [("1", 1, 1)])
    # the Heisenberg modes need no dual basis
    assert heisenberg_mode("2", 1, s) == _mono_state(lat, (1, 0), [], -2)
    for _ in range(2):
        with pytest.raises(ValueError, match="degenerate"):
            virasoro_mode(0, s)


def test_dual_basis_is_inverted_once_per_lattice(monkeypatch):
    calls = []
    inverse = linalg.inverse
    monkeypatch.setattr(linalg, "inverse", lambda m: calls.append(1) or inverse(m))
    lat = _lat("A_2")
    s = _mono_state(lat, (0, 0, 1, 0), [("1", 2, 1)])
    for k in range(-2, 3):
        virasoro_mode(k, s)
    lat.dual_basis()
    conformal_element(lat)
    assert len(calls) == 1


def test_vector_coercions():
    lat = _lat()
    assert lat.vector({"1": 2}) == (Fraction(0), Fraction(2))
    assert lat.vector([1, -1]) == (Fraction(1), Fraction(-1))
    with pytest.raises(ValueError, match="unknown basis"):
        lat.vector({"zz": 1})
    with pytest.raises(ValueError, match="length"):
        lat.vector([1, 2, 3])


# ---------------------------------------------------------------------------
# states

def test_state_arithmetic_and_degrees():
    lat = _lat()
    a = _mono_state(lat, (0, 1), [("1", 1, 2)])  # osc degree 2
    b = _mono_state(lat, (0, 1), [("1", 2, 1)])  # osc degree 2
    s = a + 3 * b
    assert s.osc_degree() == 2
    assert (s - s).is_zero()
    assert s.sector() == (Fraction(0), Fraction(1))
    mixed = a + _mono_state(lat, (1, 0), [])
    with pytest.raises(ValueError):
        mixed.sector()


def test_state_sectors_become_int_tuples():
    lat = _lat()
    s = VAState(lat, {((Fraction(1), Fraction(0)), ()): 1})
    assert s == VAState(lat, {((1, 0), ()): 1})
    assert all(type(a) is int for a in s.sector())
    assert str(s) == "(1)*e[1, 0]*1"


def test_state_rejects_sectors_off_the_lattice():
    lat = _lat()  # rank 2
    for bad in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="length"):
            VAState(lat, {(bad, ()): 1})
    with pytest.raises(ValueError, match="integral"):
        VAState(lat, {((Fraction(1, 2), 0), ()): 1})
    # a zero coefficient drops its term before the sector is read
    assert VAState(lat, {((1,), ()): 0}).is_zero()


def _two_term_state():
    lat = _lat("A_2")
    mono = [("1", 1, 2), ("2", 3, 1)]
    return _mono_state(lat, (1, -1, 0, 1), mono, Fraction(-2, 3)) + vacuum(lat, (0, 0, 1, 0))


@pytest.mark.parametrize("make", [
    lambda: parse_poly("3/2*t[2,1]*t[1,2] - t[1,1]^2 + 5"),
    _two_term_state,
], ids=["DescPoly", "VAState"])
def test_values_survive_pickle_and_deepcopy_and_stay_immutable(make):
    value = make()
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is type(value) and copied == value
        assert copied.terms is not value.terms
        with pytest.raises(AttributeError, match="immutable"):
            copied.terms = {}
    if isinstance(value, VAState):
        # the lattice comes back with its caches and still computes
        copied = pickle.loads(pickle.dumps(value))
        assert copied.lattice == value.lattice
        assert virasoro_mode(1, copied) == virasoro_mode(1, value)


def test_translate_on_pure_sector():
    lat = _lat()
    s = vacuum(lat, (0, 1))
    t = translate(s)
    # T(e^alpha) = e^alpha alpha_{(-1)}: one oscillator of order 1
    assert t == _mono_state(lat, (0, 1), [("1", 1, 1)])
    # on oscillators: T(b_k) = k b_{k+1} plus the sector part
    s2 = _mono_state(lat, (0, 0), [("1", 1, 1)])
    assert translate(s2) == _mono_state(lat, (0, 0), [("1", 2, 1)])


# ---------------------------------------------------------------------------
# Heisenberg modes

def test_heisenberg_commutation_exact():
    lat = _lat()
    rng = random.Random(23)
    for _ in range(30):
        x = tuple(Fraction(rng.randint(-2, 2)) for _ in lat.basis)
        y = tuple(Fraction(rng.randint(-2, 2)) for _ in lat.basis)
        sector = tuple(Fraction(rng.randint(-1, 1)) for _ in lat.basis)
        mono = []
        for _ in range(rng.randint(0, 2)):
            mono.append(("1", rng.randint(1, 2)))
        key = {}
        for v, k in mono:
            key[(v, k)] = key.get((v, k), 0) + 1
        s = _mono_state(lat, sector, sorted((v, k, p) for (v, k), p in key.items()))
        n, m = rng.randint(-2, 2), rng.randint(-2, 2)
        lhs = heisenberg_mode(x, n, heisenberg_mode(y, m, s)) - heisenberg_mode(
            y, m, heisenberg_mode(x, n, s)
        )
        if n + m == 0 and n != 0:
            assert lhs == (Fraction(n) * lat.qsym(x, y)) * s
        else:
            assert lhs.is_zero()


def test_heisenberg_zero_mode_reads_the_sector():
    lat = _lat()
    x = lat.vector("1")
    s = vacuum(lat, (0, 2))
    assert heisenberg_mode(x, 0, s) == lat.qsym(x, lat.vector({"1": 2})) * s


# ---------------------------------------------------------------------------
# conformal element and Virasoro modes

def test_conformal_element_explicit_form():
    lat = _lat()
    omega = conformal_element(lat)
    expect = _mono_state(lat, (0, 0), [("(1)", 1, 2)], -1) + _mono_state(
        lat, (0, 0), [("(1)", 1, 1), ("1", 1, 1)], -1
    )
    assert omega == expect


def test_conformal_element_requires_nondegeneracy():
    lat = Lattice.from_quiver(preset("Kronecker-2"))
    with pytest.raises(ValueError):
        conformal_element(lat)


def test_conformal_element_raises_when_its_routes_disagree(monkeypatch):
    from quiver_virasoro import vertex_algebra

    closed_form = vertex_algebra.virasoro_mode
    monkeypatch.setattr(vertex_algebra, "virasoro_mode",
                        lambda k, s, L=None: 2 * closed_form(k, s, L))
    with pytest.raises(RuntimeError, match="routes disagree"):
        conformal_element(_lat())


def test_virasoro_low_modes_are_translation_and_grading():
    lat = _lat()
    rng = random.Random(9)
    for _ in range(12):
        sector = tuple(Fraction(rng.randint(-1, 1)) for _ in lat.basis)
        deg = rng.randint(0, 3)

        monos = osc_monomials(lat, deg)
        mono = monos[rng.randrange(len(monos))]
        s = _mono_state(lat, sector, mono)
        assert virasoro_mode(-1, s) == translate(s)
        alpha = s.sector()
        weight = Fraction(deg) + lat.q(alpha, alpha)
        assert virasoro_mode(0, s) == weight * s


def test_virasoro_matches_vertex_modes_of_omega():
    lat = _lat()
    omega = conformal_element(lat)
    rng = random.Random(31)

    for _ in range(10):
        sector = tuple(Fraction(rng.randint(-1, 1)) for _ in lat.basis)
        deg = rng.randint(0, 3)
        monos = osc_monomials(lat, deg)
        s = _mono_state(lat, sector, monos[rng.randrange(len(monos))])
        for k in range(-2, 3):
            assert virasoro_mode(k, s) == vertex_mode(omega, k + 1, s), (k, deg)


def test_virasoro_commutators_with_central_term():
    for name, c in (("A_1", 2), ("A_2", 4)):
        lat = _lat(name)
        assert central_charge(lat) == c
        rng = random.Random(77)

        states = []
        for deg in range(0, 4):
            monos = osc_monomials(lat, deg)
            sector = tuple(Fraction(rng.randint(-1, 1)) for _ in lat.basis)
            states.append(_mono_state(lat, sector, monos[rng.randrange(len(monos))]))
        for s in states:
            for n in range(-2, 3):
                for m in range(n, 3):
                    lhs = virasoro_mode(n, virasoro_mode(m, s)) - virasoro_mode(
                        m, virasoro_mode(n, s)
                    )
                    rhs = Fraction(n - m) * virasoro_mode(n + m, s)
                    if n + m == 0:
                        rhs = rhs + Fraction((n**3 - n) * c, 12) * s
                    assert lhs == rhs, (name, n, m)


def test_central_term_on_vacuum():
    for name, c in (("A_1", 2), ("A_2", 4)):
        lat = _lat(name)
        zero = vacuum(lat)
        got = virasoro_mode(2, virasoro_mode(-2, zero)) - virasoro_mode(
            -2, virasoro_mode(2, zero)
        )
        assert got == Fraction(c, 2) * zero


# ---------------------------------------------------------------------------
# skew-symmetry sanity for exponential states

def test_exp_commutation_sign():
    lat = _lat()
    v = vacuum(lat, (0, 1))
    w = vacuum(lat, (1, 0))
    # qsym((0,1),(1,0)) = -1, so the leading nonzero bracket appears at mode 0
    top = max_nonzero_mode(v, w)
    assert top == 0
    got = vertex_mode(v, 0, w)
    assert got == vacuum(lat, (1, 1)) or got == -1 * vacuum(lat, (1, 1))
    for extra in range(1, 3):
        assert vertex_mode(v, top + extra, w).is_zero()


def test_max_nonzero_mode_is_an_upper_bound():
    lat = _lat()
    rng = random.Random(41)

    for _ in range(10):
        sa = tuple(Fraction(rng.randint(-1, 1)) for _ in lat.basis)
        sb = tuple(Fraction(rng.randint(-1, 1)) for _ in lat.basis)
        da, db = rng.randint(0, 2), rng.randint(0, 2)
        a = _mono_state(lat, sa, osc_monomials(lat, da)[0])
        b = _mono_state(lat, sb, osc_monomials(lat, db)[-1])
        top = max_nonzero_mode(a, b)
        for extra in range(0, 3):
            assert vertex_mode(a, top + 1 + extra, b).is_zero()


# ---------------------------------------------------------------------------
# pairing and duality

def test_pairing_frozen_values():
    lat = _lat()
    q = framify(preset("A_1"))
    from quiver_virasoro.descendents import context

    ctx = context(q, (1, 1))
    s2 = _mono_state(lat, (1, 1), [("1", 2, 1)])
    assert pairing(tau(2, "1"), s2, ctx) == 1
    s11 = _mono_state(lat, (1, 1), [("1", 1, 2)])
    assert pairing(tau(1, "1") ** 2, s11, ctx) == 2
    # mismatched monomials pair to zero
    assert pairing(tau(1, "1"), s2, ctx) == 0
    assert pairing(tau(3, "1"), s2, ctx) == 0


def test_pairing_across_two_vertices():
    q = framify(preset("A_2"))
    lat = Lattice.from_quiver(q)
    from quiver_virasoro.descendents import context

    ctx = context(q, (1, 1, 1, 1))
    s = _mono_state(lat, (1, 1, 1, 1), [("1", 1, 1), ("2", 1, 1)])
    assert pairing(tau(1, "1") * tau(1, "2"), s, ctx) == 1


def test_pairing_validates_sector_against_context():
    lat = _lat()
    q = framify(preset("A_1"))
    from quiver_virasoro.descendents import context

    ctx = context(q, (1, 1))
    s = _mono_state(lat, (1, 2), [])
    with pytest.raises(ValueError):
        pairing(tau(1, "1"), s, ctx)


def test_duality_with_delta_on_framified_context():
    lat = _lat()
    q = framify(preset("A_1"))
    from quiver_virasoro.descendents import context, enumerate_monomials

    ctx = context(q, (1, 1))
    taus = list(enumerate_monomials(("1",), 3))
    for k in range(-1, 3):
        for tp in taus:
            want = tp.degree() + k if not tp.is_zero() else k
            if want < 0 or want > 3:
                continue
            for mono in osc_monomials(lat, want):
                s = _mono_state(lat, (1, 1), mono)
                assert duality_defect(k, tp, s, ctx) == 0, (k, mono)


def test_duality_without_delta_on_embedded_context():
    lat = _lat()
    q = preset("A_1")
    from quiver_virasoro.descendents import context, enumerate_monomials

    ctx = context(q, (1,))
    taus = list(enumerate_monomials(("1",), 3))
    for k in range(-1, 3):
        for tp in taus:
            want = tp.degree() + k if not tp.is_zero() else k
            if want < 0 or want > 3:
                continue
            for mono in osc_monomials(lat, want):
                if any(v != "1" for v, _, _ in mono):
                    continue  # embedded states carry base oscillators only
                s = _mono_state(lat, (0, 1), mono)
                lhs, rhs = dual_pairing_sides(k, tp, s, lat, ctx=ctx)
                assert lhs == rhs, (k, mono)


def test_duality_delta_term_matters_at_k_zero():
    # dropping the shift breaks the framified identity for some state
    lat = _lat()
    q = framify(preset("A_1"))
    from quiver_virasoro.descendents import apply_L, context

    ctx = context(q, (1, 1))
    broken = 0
    for mono in osc_monomials(lat, 1):
        s = _mono_state(lat, (1, 1), mono)
        lhs = pairing(apply_L(0, tau(1, "1"), ctx), s, ctx)
        rhs_noshift = pairing(tau(1, "1"), virasoro_mode(0, s, lat), ctx)
        if lhs != rhs_noshift:
            broken += 1
    assert broken > 0


# ---------------------------------------------------------------------------
# residual, bracket

def test_k0_residual_base_case_and_weight_obstruction():
    lat = _lat()
    assert k0_residual(vacuum(lat, (0, 1))).is_zero()
    assert k0_residual(vacuum(lat, (0, -1))).is_zero()
    # a frozen-copy unit sector has q(alpha, alpha) = 0 and a nonzero residual
    assert not k0_residual(vacuum(lat, (1, 0))).is_zero()


def test_k0_residual_agrees_with_zero_mode_of_omega():
    lat = _lat()
    omega = conformal_element(lat)
    rng = random.Random(55)

    for _ in range(12):
        sector = tuple(Fraction(rng.randint(-1, 1)) for _ in lat.basis)
        deg = rng.randint(0, 3)
        monos = osc_monomials(lat, deg)
        s = _mono_state(lat, sector, monos[rng.randrange(len(monos))])
        assert k0_residual(s) == vertex_mode(s, 0, omega), (sector, deg)


def test_bracket_closure_on_residual_free_states():
    lat = _lat()
    pool = [vacuum(lat, (0, 1)), vacuum(lat, (0, -1))]
    for a in pool:
        for b in pool:
            out = vertex_mode(a, 0, b)
            assert k0_residual(out).is_zero()


# ---------------------------------------------------------------------------
# the cached pairing rows and dual basis against per-call recomputation

_REF_LATTICES = {name: _lat(name) for name in ("A_2", "P_2", "Kronecker-2")}


def _ref_heisenberg(x, n, s):
    """x_{(n)} s with each pairing Q_sym(x, .) recomputed by Lattice.qsym."""
    L = s.lattice
    xv = L.vector(x)
    out = VAState(L)
    for (sec, mono), c in s.terms.items():
        if n < 0:
            for b, xc in zip(L.basis, xv):
                out = out + VAState(L, {(sec, monomials.mul(mono, ((b, -n, 1),))): c * xc})
        elif n == 0:
            out = out + VAState(L, {(sec, mono): c * L.qsym(xv, sec)})
        else:
            for pos, (b, k, p) in enumerate(mono):
                if k == n:
                    rest = mono[:pos] + (((b, k, p - 1),) if p > 1 else ()) + mono[pos + 1:]
                    out = out + VAState(L, {(sec, rest): c * L.qsym(xv, b) * n * p})
    return out


def _ref_virasoro(k, s):
    """L_k s composed from Heisenberg modes, (1/2) sum_v :vhat(z) v(z): mode
    by mode (the former virasoro_mode body), inverting Q_sym on every call."""
    L = s.lattice
    inv = linalg.inverse(L.qsym_matrix())
    duals = [tuple(row[j] for row in inv) for j in range(L.rank)]
    h = _ref_heisenberg
    out = VAState(L)
    for v, vhat in zip(L.basis, duals):
        for i in range(1, -k):
            out = out + h(vhat, -i, h(v, k + i, s))
        for j in range(0, s.osc_degree() + 1):
            if j - k >= 1:
                out = out + h(vhat, k - j, h(v, j, s)) + h(v, k - j, h(vhat, j, s))
        for i in range(0, k + 1):
            out = out + h(vhat, i, h(v, k - i, s))
    return Fraction(1, 2) * out


@st.composite
def _lattice_states(draw):
    lat = _REF_LATTICES[draw(st.sampled_from(sorted(_REF_LATTICES)))]
    sector = tuple(draw(st.lists(st.integers(-2, 2), min_size=lat.rank, max_size=lat.rank)))
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        mono = ()
        for b, k in draw(st.lists(st.tuples(st.sampled_from(lat.basis), st.integers(1, 3)),
                                  max_size=3)):
            mono = monomials.mul(mono, ((b, k, 1),))
        terms[(sector, mono)] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    x = draw(st.lists(st.fractions(-2, 2, max_denominator=3), min_size=lat.rank,
                      max_size=lat.rank))
    return VAState(lat, terms), tuple(x)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_lattice_states())
def test_cached_rows_and_duals_match_per_call_recomputation(state_and_x):
    s, x = state_and_x
    for n in range(-3, 4):
        assert heisenberg_mode(x, n, s) == _ref_heisenberg(x, n, s), n
        assert heisenberg_mode(s.lattice.basis[n], n, s) == _ref_heisenberg(
            s.lattice.basis[n], n, s), n
    for k in range(-2, 4):
        assert virasoro_mode(k, s) == _ref_virasoro(k, s), k


# ---------------------------------------------------------------------------
# the closed-form Virasoro modes against the Heisenberg composition


@st.composite
def _shallow_states(draw):
    """Up to 2 terms of oscillator depth <= 4 in one sector in [-2, 2]^rank."""
    lat = _REF_LATTICES[draw(st.sampled_from(sorted(_REF_LATTICES)))]
    sector = tuple(draw(st.lists(st.integers(-2, 2), min_size=lat.rank, max_size=lat.rank)))
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        mono, left = (), draw(st.integers(0, 4))
        while left:
            k = draw(st.integers(1, left))
            mono = monomials.mul(mono, ((draw(st.sampled_from(lat.basis)), k, 1),))
            left -= k
        terms[(sector, mono)] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return VAState(lat, terms)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_shallow_states())
def test_closed_form_virasoro_matches_heisenberg_composition(s):
    for k in range(-4, 5):
        assert virasoro_mode(k, s) == _ref_virasoro(k, s), k


_OMEGAS = {lat: conformal_element(lat) for lat in _REF_LATTICES.values()}


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(_shallow_states())
def test_closed_form_virasoro_matches_vertex_modes_of_omega(s):
    for k in range(-4, 5):
        assert virasoro_mode(k, s) == vertex_mode(_OMEGAS[s.lattice], k + 1, s), k


# ---------------------------------------------------------------------------
# integer bookkeeping (mode bounds, degrees) against the rational form


def _ref_max_nonzero_mode(a, b):
    """The mode bound with the shift Q_sym(alpha, beta) from Lattice.qsym."""
    L = a.lattice
    return max(-1 - L.qsym(alpha, beta) + monomials.degree(am) + monomials.degree(bm)
               for alpha, am in a.terms for beta, bm in b.terms)


def _ref_degree_components(s):
    """The (sector, degree) split with q(alpha, alpha) from Lattice.q."""
    out = {}
    for (sec, mono), c in s.terms.items():
        d = monomials.degree(mono) + s.lattice.q(sec, sec)
        out[(sec, d)] = out.get((sec, d), VAState(s.lattice)) + VAState(
            s.lattice, {(sec, mono): c})
    return out


@st.composite
def _state_pairs(draw):
    """Two states on one reference lattice, each with up to 2 terms in up to 2
    sectors in [-1, 1]^rank, of oscillator depth <= 2."""
    lat = _REF_LATTICES[draw(st.sampled_from(sorted(_REF_LATTICES)))]
    states = []
    for _ in range(2):
        terms = {}
        for _ in range(draw(st.integers(1, 2))):
            sector = tuple(draw(st.lists(st.integers(-1, 1), min_size=lat.rank,
                                         max_size=lat.rank)))
            mono = ()
            for b, k in draw(st.lists(st.tuples(st.sampled_from(lat.basis), st.integers(1, 2)),
                                      max_size=2)):
                mono = monomials.mul(mono, ((b, k, 1),))
            terms[(sector, mono)] = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
        states.append(VAState(lat, terms))
    return tuple(states)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_state_pairs())
def test_integer_bookkeeping_matches_the_rational_form(pair):
    a, b = pair
    top = max_nonzero_mode(a, b)
    assert type(top) is int and top == _ref_max_nonzero_mode(a, b)
    for s in pair:
        got = s.degree_components()
        assert got == _ref_degree_components(s)
        assert all(type(d) is int for _, d in got)
    for n in range(top + 1, top + 3):
        assert vertex_mode(a, n, b).is_zero(), n


def test_rows_cached_from_fractions_read_as_ints():
    lat = _lat("A_2")
    s = _mono_state(lat, (1, 0, -1, 0), [("1", 1, 1)])
    unit = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    # heisenberg_mode fills the cache under the Fraction vector first
    heisenberg_mode(unit, 1, s)
    assert all(type(w) is int for w in lat.pair_row((1, 0, 0, 0)))
    top = max_nonzero_mode(vacuum(lat, (0, 0, 0, 1)), vacuum(lat, (1, 0, 0, 0)))
    assert type(top) is int and top == -1 - lat.qsym((0, 0, 0, 1), (1, 0, 0, 0))


# ---------------------------------------------------------------------------
# the va-axioms identities as defects: zero, not vacuous, and able to fail
#
# Each defect is lhs - rhs.  The tests rebuild lhs from the modes, so once
# the defect is zero rhs = lhs, and "both sides nonzero on some draw" is
# "lhs nonzero on some draw".

_IDENTITY_LATTICES = {"A_1": _lat("A_1"), "A_2": _REF_LATTICES["A_2"], "P_2": _REF_LATTICES["P_2"]}
_IDENTITY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=30)


def _small_state(draw, lat, depth):
    """Up to 2 terms in one sector 0 or +-(one basis vector), of oscillator
    depth <= depth with modes 1 and 2: every mode window stays small."""
    i = draw(st.integers(0, lat.rank - 1))
    sign = draw(st.sampled_from((-1, 0, 1)))
    sector = tuple(sign if j == i else 0 for j in range(lat.rank))
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        mono = ()
        for b, k in draw(st.lists(st.tuples(st.sampled_from(lat.basis), st.integers(1, 2)),
                                  max_size=depth)):
            mono = monomials.mul(mono, ((b, k, 1),))
        terms[(sector, mono)] = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    return VAState(lat, terms)


@st.composite
def _triples(draw):
    lat = _IDENTITY_LATTICES[draw(st.sampled_from(sorted(_IDENTITY_LATTICES)))]
    return _small_state(draw, lat, 1), _small_state(draw, lat, 1), _small_state(draw, lat, 2)


def test_heisenberg_defect_vanishes_and_is_not_vacuous():
    seen = []

    @_IDENTITY_SETTINGS
    @given(_triples(), st.data())
    def run(triple, data):
        s = triple[2]
        lat = s.lattice
        x, y = (data.draw(st.sampled_from(lat.basis)) for _ in range(2))
        n = data.draw(st.integers(-3, 3))
        m = data.draw(st.sampled_from((-n, data.draw(st.integers(-3, 3)))))
        assert heisenberg_defect(x, y, n, m, s).is_zero()
        lhs = heisenberg_mode(x, n, heisenberg_mode(y, m, s)) - heisenberg_mode(
            y, m, heisenberg_mode(x, n, s))
        seen.append(not lhs.is_zero())
        if n + m == 0 and n and lat.qsym(x, y):
            # without its central term the defect would be this commutator
            assert not lhs.is_zero()

    run()
    assert any(seen)


def test_skew_defect_vanishes_and_each_translate_term_counts():
    seen = {"lhs": False, "mutant": False}

    @_IDENTITY_SETTINGS
    @given(_triples(), st.integers(-2, 2))
    def run(triple, n):
        a, _, b = triple
        assert skew_defect(a, b, n).is_zero()
        seen["lhs"] |= not vertex_mode(a, n, b).is_zero()
        # drop every T^i/i! term with i >= 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vertex_algebra, "translate", lambda s: VAState(s.lattice))
            seen["mutant"] |= not skew_defect(a, b, n).is_zero()

    run()
    assert seen == {"lhs": True, "mutant": True}


def test_iterate_defect_vanishes_and_is_not_vacuous():
    seen = []

    @_IDENTITY_SETTINGS
    @given(_triples(), st.integers(-1, 1), st.integers(-1, 1))
    def run(triple, m, n):
        a, a2, b = triple
        assert iterate_defect(a, a2, b, m, n).is_zero()
        lhs = vertex_mode(a, m, vertex_mode(a2, n, b)) - vertex_mode(
            a2, n, vertex_mode(a, m, b))
        seen.append(not lhs.is_zero())

    run()
    assert any(seen)


def test_virasoro_defect_vanishes_and_needs_the_central_charge():
    seen = []

    @_IDENTITY_SETTINGS
    @given(_triples(), st.integers(-3, 3), st.integers(-3, 3))
    def run(triple, n, m):
        s = triple[2]
        assert virasoro_defect(n, m, s).is_zero()
        lhs = virasoro_mode(n, virasoro_mode(m, s)) - virasoro_mode(m, virasoro_mode(n, s))
        seen.append(not lhs.is_zero())
        # a central charge of rank + 1 fails at n + m = 0 wherever n^3 != n
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vertex_algebra, "central_charge", lambda L: L.rank + 1)
            for k in (-3, -2, 2, 3):
                assert not virasoro_defect(k, -k, s).is_zero(), k

    run()
    assert any(seen)
