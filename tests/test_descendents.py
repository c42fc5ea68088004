import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiver_virasoro import descendents, monomials
from quiver_virasoro.descendents import (
    DescPoly,
    T_class,
    apply_framed_L,
    apply_L,
    apply_Lwt0,
    apply_R,
    commutator_defect,
    context,
    enumerate_monomials,
    framed_T_class,
    parse_poly,
    poly_to_str,
    tau,
    zeta,
)
from quiver_virasoro.flags import FlagShape, infinity_context
from quiver_virasoro.quivers import INFINITY, frame_at_infinity, framify, preset


# ---------------------------------------------------------------------------
# polynomial algebra and text form

def test_tau_rejects_index_zero():
    with pytest.raises(ValueError):
        tau(0, "1")


def test_poly_arithmetic_and_degree():
    p = (tau(1, "1") + 2) ** 2
    assert p == tau(1, "1") * tau(1, "1") + 4 * tau(1, "1") + 4
    assert p.degree() == 2
    assert p.homogeneous_component(1) == 4 * tau(1, "1")
    assert p.homogeneous_component(0) == DescPoly.const(4)
    assert DescPoly.zero().degree() == -1
    assert (p - p).is_zero()


def test_parse_print_round_trip():
    rng = random.Random(5)
    vertices = ("1", "2")
    for p in enumerate_monomials(vertices, 5):
        scaled = Fraction(rng.randint(-7, 7), rng.randint(1, 5)) * p
        text = poly_to_str(scaled)
        assert parse_poly(text) == scaled
    combo = parse_poly("3/2*t[1,1]^2*t[2,2] - t[4,1] + 5")
    assert poly_to_str(combo) == "3/2*t[1,1]^2*t[2,2] - t[4,1] + 5"
    assert parse_poly(poly_to_str(combo)) == combo


def test_parse_folds_power_zero_into_the_constant():
    one = parse_poly("t[1,1]^0")
    assert one == 1 and poly_to_str(one) == "1"
    assert parse_poly("2*t[1,1]^0*t[2,2]") == 2 * tau(2, "2")


def test_parse_rejects_garbage():
    for bad in ("t[0,1]", "t[1]", "t[1,1]^", "qq", "t[1,1]**2", "1/0"):
        with pytest.raises(ValueError):
            parse_poly(bad)


# ---------------------------------------------------------------------------
# contexts

def test_context_validation():
    q = preset("A_2")
    ctx = context(q, (2, 1))
    assert ctx.dim_of("1") == 2
    assert context(q, {"2": 3}, framing={"1": 1}).dim == (0, 3)
    for dim, framing, message in [
        ((1,), None, "dim vector has 1 entries but the quiver has 2 vertices"),
        ((-1, 1), None, "dim vector entries must be nonnegative, got (-1, 1)"),
        ((1, 1), (1, 1, 1), "framing vector has 3 entries but the quiver has 2 vertices"),
        ((1, 1), (0, -2), "framing vector entries must be nonnegative, got (0, -2)"),
    ]:
        with pytest.raises(ValueError) as exc:
            context(q, dim, framing=framing)
        assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        context(preset("A_1"), (1,), framing=(-2,))
    assert "nonnegative" in str(exc.value)
    # a framing on a frozen quiver is refused as such, whatever its length
    for framing in [(1, 1), (1, 1, 1, 1)]:
        with pytest.raises(ValueError) as exc:
            context(framify(q), (1, 1, 1, 1), framing=framing)
        assert str(exc.value) == ("a framing vector applies only to quivers "
                                  "without frozen vertices")


# ---------------------------------------------------------------------------
# R, T, L operators

def test_apply_R_weights():
    ctx = context(preset("A_1"), (3,))
    # R_k(tau_i) = (prod_{j=0..k} (i+j)) tau_{i+k}
    assert apply_R(2, tau(1, "1"), ctx) == 1 * 2 * 3 * tau(3, "1")
    assert apply_R(0, tau(2, "1"), ctx) == 2 * tau(2, "1")
    # k = -1 has an empty product, and tau_0 evaluates to the dimension
    assert apply_R(-1, tau(1, "1"), ctx) == DescPoly.const(3)
    assert apply_R(-1, tau(2, "1"), ctx) == tau(1, "1")
    # Leibniz rule on products
    p = tau(1, "1") * tau(2, "1")
    lhs = apply_R(1, p, ctx)
    rhs = apply_R(1, tau(1, "1"), ctx) * tau(2, "1") + tau(1, "1") * apply_R(
        1, tau(2, "1"), ctx
    )
    assert lhs == rhs


def test_T_class_values_unframed():
    ctx = context(preset("A_1"), (1,))
    assert T_class(-1, ctx).is_zero()
    assert T_class(0, ctx) == DescPoly.const(1)  # 0!0! * td * d * d
    assert T_class(1, ctx) == 2 * tau(1, "1")  # (0!1! + 1!0!) tau_1 * d


def test_T_class_values_infinity_context():
    # the projective-line context: one vertex framed by a 2-dimensional space
    inf = frame_at_infinity(preset("A_1"), (2,))
    ctx = context(inf, (1, 1))
    assert T_class(0, ctx).is_zero()
    assert T_class(1, ctx) == -2 * tau(1, INFINITY)


def test_unframed_commutators_small_grid():
    q = preset("A_2")
    ctx = context(q, (1, 1))
    for p in enumerate_monomials(q.vertices, 3):
        for n in range(-1, 3):
            for m in range(n, 3):
                lhs = apply_L(n, apply_L(m, p, ctx), ctx) - apply_L(
                    m, apply_L(n, p, ctx), ctx
                )
                rhs = (
                    (m - n) * apply_L(n + m, p, ctx)
                    if n + m >= -1
                    else DescPoly.zero()
                )
                assert lhs == rhs, (n, m, poly_to_str(p))


# ---------------------------------------------------------------------------
# weight-zero combination

def test_Lwt0_frozen_values_on_projective_line():
    inf = frame_at_infinity(preset("A_1"), (2,))
    ctx = context(inf, (1, 1))
    assert apply_Lwt0(parse_poly("t[1,1]"), ctx) == DescPoly.const(-1)
    assert apply_Lwt0(parse_poly("t[2,1]"), ctx) == tau(1, INFINITY)


def test_Lwt0_reduces_to_minus_L_minus_one_on_R_kernel():
    # When R_{-1} p = 0 the defining series truncates after its first term,
    # so L_wt0 p = -L_{-1} p exactly.
    inf = frame_at_infinity(preset("A_1"), (2,))
    ctx = context(inf, (1, 1))
    for p in (
        tau(1, "1") - tau(1, INFINITY),
        (tau(1, "1") - tau(1, INFINITY)) ** 2,
        2 * tau(2, "1") - tau(1, "1") ** 2,
    ):
        assert apply_R(-1, p, ctx).is_zero(), poly_to_str(p)
        assert apply_Lwt0(p, ctx) == -1 * apply_L(-1, p, ctx), poly_to_str(p)


def _reference_Lwt0(p, ctx):
    """The defining series term by term, through apply_L and DescPoly sums."""
    out = DescPoly.zero()
    r = p
    j = -1
    while not r.is_zero():
        sign = -1 if j % 2 else 1
        out = out + Fraction(sign, factorial(j + 1)) * apply_L(j, r, ctx)
        r = apply_R(-1, r, ctx)
        j += 1
    return out


_LWT0_CONTEXTS = (
    *(infinity_context(FlagShape.parse(s)) for s in ("1:3", "1,2:4", "2:5", "1,2,3:4")),
    context(frame_at_infinity(preset("A_1"), (2,)), (1, 1)),
)


@st.composite
def _lwt0_inputs(draw):
    """A context over a quiver framed at infinity and a polynomial of up to
    4 terms with rational coefficients, ∞ descendents and constants."""
    ctx = draw(st.sampled_from(_LWT0_CONTEXTS))
    gens = st.tuples(st.sampled_from(ctx.quiver.vertices), st.integers(1, 4))
    terms = {}
    for factors in draw(st.lists(st.lists(gens, max_size=3), min_size=1, max_size=4)):
        mono = ()
        for v, i in factors:
            mono = monomials.mul(mono, ((v, i, 1),))
        coeff = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        terms[mono] = terms.get(mono, 0) + coeff
    return ctx, DescPoly(terms)


def test_Lwt0_matches_the_defining_series():
    nonzero = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=160)
    @given(_lwt0_inputs())
    def run(inputs):
        ctx, p = inputs
        got = apply_Lwt0(p, ctx)
        assert got == _reference_Lwt0(p, ctx), poly_to_str(p)
        nonzero.append(not got.is_zero())

    run()
    assert sum(nonzero) >= 50


def test_zeta_kills_infinity_descendents():
    p = tau(1, INFINITY) * tau(1, "1") + 3 * tau(2, "1") - tau(2, INFINITY)
    assert zeta(p) == 3 * tau(2, "1")
    assert zeta(DescPoly.const(5)) == DescPoly.const(5)


# ---------------------------------------------------------------------------
# framed operators

def test_tau_of_framing_needs_a_framing():
    with pytest.raises(ValueError, match="framed context"):
        descendents._tau_of_framing(1, context(preset("A_1"), (1,)))


def test_framed_T_class_conventions():
    ctx = context(preset("A_1"), (1,), framing=(2,))
    # T^fr_0 = T_0 - tau_0(framing): 1 - 2 = -1 under no-delta
    assert framed_T_class(0, ctx) == DescPoly.const(-1)
    assert framed_T_class(0, ctx, convention="paper-delta") == DescPoly.const(0)
    assert framed_T_class(-1, ctx).is_zero()
    with pytest.raises(ValueError):
        framed_T_class(0, ctx, convention="bogus")


def test_framed_matches_collapsed_infinity_class():
    # framed T-class == zeta of the infinity-quiver T-class, minus the k=0 unit
    for dims, framing in (((1,), (2,)), ((2,), (3,))):
        q = preset("A_1")
        ctx = context(q, dims, framing=framing)
        inf = frame_at_infinity(q, framing)
        inf_ctx = context(inf, (1,) + dims)
        for k in range(0, 4):
            collapsed = zeta(T_class(k, inf_ctx))
            if k == 0:
                collapsed = collapsed - 1
            assert framed_T_class(k, ctx) == collapsed, (dims, framing, k)


def test_framed_commutators_close_for_nonnegative_modes():
    ctx = context(preset("A_1"), (1,), framing=(3,))
    for p in enumerate_monomials(("1",), 4):
        for n in range(0, 4):
            for m in range(n, 4):
                lhs = apply_framed_L(
                    n, apply_framed_L(m, p, ctx), ctx
                ) - apply_framed_L(m, apply_framed_L(n, p, ctx), ctx)
                rhs = (m - n) * apply_framed_L(n + m, p, ctx)
                assert lhs == rhs, (n, m, poly_to_str(p))


def test_framed_minus_one_commutator_has_framing_tail():
    # [L^fr_{-1}, L^fr_m] = (m+1) L^fr_{m-1} + (m-1)! tau_{m-1}(framing) * -
    # so the naive Virasoro relation genuinely fails at n = -1.
    from quiver_virasoro.descendents import _tau_of_framing

    ctx = context(preset("A_1"), (2,), framing=(3,))
    for m in (1, 2, 3):
        for p in (DescPoly.const(1), tau(1, "1"), tau(2, "1") * tau(1, "1")):
            lhs = apply_framed_L(
                -1, apply_framed_L(m, p, ctx), ctx
            ) - apply_framed_L(m, apply_framed_L(-1, p, ctx), ctx)
            with_tail = (m + 1) * apply_framed_L(m - 1, p, ctx) + factorial(
                m - 1
            ) * (_tau_of_framing(m - 1, ctx) * p)
            assert lhs == with_tail, (m, poly_to_str(p))
    # explicit counterexample to the naive relation
    one = DescPoly.const(1)
    ctx1 = context(preset("A_1"), (1,), framing=(3,))
    naive = 2 * apply_framed_L(0, one, ctx1)
    actual = apply_framed_L(-1, apply_framed_L(1, one, ctx1), ctx1) - apply_framed_L(
        1, apply_framed_L(-1, one, ctx1), ctx1
    )
    assert actual != naive
    assert actual == DescPoly.const(-1)
    assert naive == DescPoly.const(-4)


# ---------------------------------------------------------------------------
# monomial enumeration

def test_enumerate_monomials_counts_and_bounds():
    monos = list(enumerate_monomials(("1",), 4))
    # partitions of 0..4: 1 + 1 + 2 + 3 + 5
    assert len(monos) == 12
    assert all(m.degree() <= 4 for m in monos)
    monos = list(enumerate_monomials(("1", "2"), 3, min_degree=1))
    assert all(1 <= m.degree() <= 3 for m in monos)
    assert len(set(poly_to_str(m) for m in monos)) == len(monos)


# ---------------------------------------------------------------------------
# the commutator identity as a defect, on random descendent monomials

_COMMUTATOR_CONTEXTS = (
    context(preset("A_1"), (2,)),
    context(preset("A_2"), (2, 1)),
    context(preset("Kronecker-2"), (1, 1)),
    context(preset("A_2"), (2, 1), framing=(1, 1)),
)


@st.composite
def _commutator_inputs(draw):
    ctx = draw(st.sampled_from(_COMMUTATOR_CONTEXTS))
    lo = -1 if ctx.framing is None else 0
    p = DescPoly.const(draw(st.integers(1, 3)))
    for v, i in draw(st.lists(st.tuples(st.sampled_from(ctx.quiver.vertices),
                                        st.integers(1, 4)), max_size=3)):
        p = p * tau(i, v)
    n = draw(st.integers(lo, 2))
    return ctx, n, draw(st.integers(n + 1, 3)), p


def test_commutator_defect_vanishes_and_is_not_vacuous():
    # the defect is [L_n, L_m] p - (m - n) L_{n+m} p; once it is zero both
    # sides equal the commutator, so one nonzero commutator makes both nonzero
    seen = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(_commutator_inputs())
    def run(inputs):
        ctx, n, m, p = inputs
        assert commutator_defect(n, m, p, ctx).is_zero()
        L = (lambda k, x: apply_L(k, x, ctx)) if ctx.framing is None else (
            lambda k, x: apply_framed_L(k, x, ctx))
        seen.append(not (L(n, L(m, p)) - L(m, L(n, p))).is_zero())
        # with the bracket's sign flipped the defect is 2 (m - n) L_{n+m} p
        rhs = (m - n) * L(n + m, p)
        if not rhs.is_zero():
            assert not (commutator_defect(n, m, p, ctx) + 2 * rhs).is_zero()

    run()
    assert any(seen)


def test_commutator_defect_is_not_zero_for_the_framed_minus_one_mode():
    ctx = context(preset("A_2"), (2, 1), framing=(1, 1))
    # below the framed range L_{n+m} counts as 0, so only the commutator is left
    assert not commutator_defect(-1, 0, tau(2, "1"), ctx).is_zero()



_FROZEN_CONTEXTS = {
    "framify(A_1)": context(framify(preset("A_1")), (1, 2)),
    "framify(A_2)": context(framify(preset("A_2")), (1, 1, 2, 1)),
    "framify(Kronecker-2)": context(framify(preset("Kronecker-2")), (1, 1, 1, 2)),
    "infinity(1:3)": infinity_context(FlagShape.parse("1:3")),
    "infinity(1,2:4)": infinity_context(FlagShape.parse("1,2:4")),
}


@pytest.mark.parametrize("name", _FROZEN_CONTEXTS)
def test_frozen_commutators_hold_shifted_and_fail_unshifted_at_n_plus_m_zero(name):
    # with frozen vertices [L_n, L_m] = (m - n)(L_{n+m} - delta_{n+m,0});
    # the plain relation misses the shift only at n = -1, m = 1, by 2p
    ctx = _FROZEN_CONTEXTS[name]
    L = lambda k, x: apply_L(k, x, ctx)
    for p in enumerate_monomials(ctx.quiver.vertices, 3):
        for n in range(-1, 3):
            for m in range(n + 1, 3):
                assert commutator_defect(n, m, p, ctx).is_zero(), (n, m, poly_to_str(p))
                plain = L(n, L(m, p)) - L(m, L(n, p)) - (m - n) * L(n + m, p)
                want = -2 * p if (n, m) == (-1, 1) else DescPoly.zero()
                assert plain == want, (n, m, poly_to_str(p))
