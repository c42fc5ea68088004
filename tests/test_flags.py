from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiver_virasoro import flags, monomials
from quiver_virasoro.descendents import (
    DescPoly,
    T_class,
    apply_framed_L,
    apply_L,
    apply_Lwt0,
    framed_T_class,
    parse_poly,
    tau,
    zeta,
)
from quiver_virasoro.flags import (
    FixedPoint,
    FlagShape,
    alt_weights,
    chain_quiver,
    default_weights,
    dimension,
    enumerate_fixed_points,
    flag_context,
    framed_virasoro_residual,
    framing_vector,
    infinity_context,
    projective_space_oracle,
    realize_and_integrate,
    tangent_weights,
    weight_zero_residual,
)
from quiver_virasoro.quivers import euler_form

ACCEPTANCE_SHAPES = ["1:2", "1:3", "1:4", "2:4", "2:5", "1,2:3", "1,2,3:4"]


# ---------------------------------------------------------------------------
# shapes and fixed points

def test_shape_parse_and_str():
    s = FlagShape.parse("1,2:4")
    assert s.dims == (1, 2) and s.ambient == 4
    assert str(s) == "1,2:4"
    assert FlagShape.parse(str(s)) == s


# a well-formed but impossible shape keeps the reason FlagShape gives
SHAPE_FAULTS = {
    "1,1:3": "flag dimensions must strictly increase",
    "2,1:4": "flag dimensions must strictly increase",
    "3:3": "largest step must be smaller than the ambient",
    "0:2": "flag dimensions must be positive",
    "5:2": "largest step must be smaller than the ambient",
}


@pytest.mark.parametrize("bad", ["", "3", "1,1:3", "2,1:4", "3:3", "0:2", "1:x", "5:2", "1:2:3"])
def test_shape_rejects_malformed(bad):
    with pytest.raises(ValueError) as exc:
        FlagShape.parse(bad)
    assert str(exc.value) == SHAPE_FAULTS.get(bad, f"bad flag shape {bad!r}: want DIMS:N")


@pytest.mark.parametrize(
    "text,dim",
    [("1:2", 1), ("1:3", 2), ("1:4", 3), ("2:4", 4), ("2:5", 6),
     ("1,2:3", 3), ("1,2,3:4", 6)],
)
def test_dimension_values(text, dim):
    assert dimension(FlagShape.parse(text)) == dim


def test_chain_quiver_points_down_the_flag():
    s = FlagShape.parse("1,2,3:4")
    q = chain_quiver(s)
    assert q.vertices == ("1", "2", "3")
    assert q.edges == (("2", "1"), ("3", "2"))
    assert framing_vector(s) == {"3": 4}


def test_dimension_is_minus_euler_form_at_unit_framing():
    for text in ACCEPTANCE_SHAPES:
        s = FlagShape.parse(text)
        ctx = infinity_context(s)
        chi = euler_form(ctx.quiver, ctx.dim, ctx.dim)
        assert dimension(s) == -chi, text


@pytest.mark.parametrize(
    "text,count",
    [("1:2", 2), ("1:3", 3), ("1:4", 4), ("1:5", 5),
     ("2:4", 6), ("1,2:3", 6), ("1,2,3:4", 24)],
)
def test_fixed_point_counts(text, count):
    pts = enumerate_fixed_points(FlagShape.parse(text))
    assert len(pts) == count
    assert len(set(p.chain for p in pts)) == count


def test_fixed_points_are_nested():
    for fp in enumerate_fixed_points(FlagShape.parse("1,2:4")):
        s1, s2 = fp.chain
        assert set(s1) <= set(s2)


def test_fixed_point_rejects_bad_chain():
    s = FlagShape.parse("1,2:3")
    with pytest.raises(ValueError, match="nested"):
        FixedPoint(s, ((1,), (2, 3)))
    with pytest.raises(ValueError, match="nested"):
        FixedPoint(s, ((1, 2), (1, 2)))


def test_tangent_weights_example():
    s = FlagShape.parse("1:3")
    fp = FixedPoint(s, ((2,),))
    assert tangent_weights(fp, default_weights(3)) == (-1, 1)


def test_tangent_weights_count_is_dimension():
    for text in ACCEPTANCE_SHAPES:
        s = FlagShape.parse(text)
        w = default_weights(s.ambient)
        for fp in enumerate_fixed_points(s):
            tw = tangent_weights(fp, w)
            assert len(tw) == dimension(s)
            assert 0 not in tw


# ---------------------------------------------------------------------------
# integration

def test_known_integrals():
    assert realize_and_integrate(tau(1, "1"), FlagShape.parse("1:2")) == 1
    assert realize_and_integrate(tau(1, "1") ** 2, FlagShape.parse("1:3")) == 1
    assert realize_and_integrate(tau(2, "1"), FlagShape.parse("1:3")) == Fraction(1, 2)
    assert realize_and_integrate(tau(3, "1"), FlagShape.parse("1:4")) == Fraction(1, 6)
    assert realize_and_integrate(tau(1, "1") ** 4, FlagShape.parse("2:4")) == 2


def test_integration_keeps_only_the_top_degree_piece():
    s = FlagShape.parse("1:3")
    p = tau(1, "1") ** 2 + 5 * tau(1, "1") + 7
    assert realize_and_integrate(p, s) == realize_and_integrate(tau(1, "1") ** 2, s)
    assert realize_and_integrate(parse_poly("3"), s) == 0


def test_weight_vector_independence():
    cases = [
        ("1:3", tau(2, "1")),
        ("2:4", tau(1, "1") ** 4),
        ("2:4", tau(2, "1") * tau(1, "1") ** 2),
        ("1,2:3", tau(1, "1") * tau(1, "2") ** 2),
        ("1,2:3", tau(3, "2")),
    ]
    for text, p in cases:
        s = FlagShape.parse(text)
        a = realize_and_integrate(p, s, w=default_weights(s.ambient))
        b = realize_and_integrate(p, s, w=alt_weights(s.ambient))
        assert a == b, (text, p)


def _plain_localization(mono, shape, w):
    """Per-fixed-point Fraction sum for one degree = dimension monomial."""
    total = Fraction(0)
    for fp in enumerate_fixed_points(shape):
        val = Fraction(1)
        for v, k, pw in mono:
            step = fp.chain[int(v) - 1]
            val *= Fraction(sum(w[a - 1] ** k for a in step), factorial(k)) ** pw
        total += val / prod(tangent_weights(fp, w))
    return total


@pytest.mark.parametrize("text", ["1,2:4", "2:5", "1,2,3:4"])
@pytest.mark.parametrize("weights", [default_weights, alt_weights])
def test_localization_matches_plain_fixed_point_sum(text, weights):
    from quiver_virasoro.descendents import enumerate_monomials

    s = FlagShape.parse(text)
    w = weights(s.ambient)
    d = dimension(s)
    # both signs of the tangent product occur, so D // e_F runs with e_F < 0
    assert {prod(tangent_weights(fp, w)) > 0
            for fp in enumerate_fixed_points(s)} == {False, True}
    for p in enumerate_monomials(chain_quiver(s).vertices, d, min_degree=d):
        (mono,) = p.terms
        expected = _plain_localization(mono, s, w)
        assert realize_and_integrate(p, s, w) == expected, (text, p)
        assert flags._EVAL_CACHE[(s, w)].memo[mono] == expected
        assert realize_and_integrate(p, s, w) == expected


def test_projective_space_oracle_matches_localization():
    from quiver_virasoro.descendents import enumerate_monomials

    for n in (2, 3, 4):
        s = FlagShape.parse(f"1:{n}")
        for p in enumerate_monomials(("1",), n + 2):
            assert realize_and_integrate(p, s) == projective_space_oracle(n, p), (n, p)


def test_weight_validation():
    s = FlagShape.parse("1:3")
    with pytest.raises(ValueError, match="length"):
        realize_and_integrate(tau(1, "1"), s, w=(0, 1))
    with pytest.raises(ValueError, match="distinct"):
        realize_and_integrate(tau(1, "1"), s, w=(0, 1, 1))


def test_vertex_validation():
    s = FlagShape.parse("1:3")
    with pytest.raises(ValueError, match="not flag steps"):
        realize_and_integrate(tau(1, "9"), s)
    with pytest.raises(ValueError, match="flag step"):
        projective_space_oracle(3, tau(1, "2"))
    with pytest.raises(ValueError, match="n >= 2"):
        projective_space_oracle(1, tau(1, "1"))


# ---------------------------------------------------------------------------
# constraint residuals

def test_framed_residuals_vanish_on_small_grid():
    for text in ("1:2", "1:3", "2:4", "1,2:3"):
        s = FlagShape.parse(text)
        ctx = flag_context(s)
        from quiver_virasoro.descendents import enumerate_monomials

        for k in range(0, 3):
            for p in enumerate_monomials(ctx.quiver.vertices, dimension(s)):
                assert framed_virasoro_residual(s, k, p) == 0, (text, k, p)


def test_framed_residual_rejects_negative_mode():
    with pytest.raises(ValueError):
        framed_virasoro_residual(FlagShape.parse("1:2"), -1, tau(1, "1"))


def test_paper_delta_audit_value():
    s = FlagShape.parse("1:2")
    assert framed_virasoro_residual(s, 0, tau(1, "1"), "no-delta") == 0
    assert framed_virasoro_residual(s, 0, tau(1, "1"), "paper-delta") == 1


def test_weight_zero_residuals_vanish():
    for text in ("1:2", "1:3", "2:4"):
        s = FlagShape.parse(text)
        from quiver_virasoro.descendents import enumerate_monomials

        for p in enumerate_monomials(("1",), dimension(s), min_degree=1):
            assert weight_zero_residual(s, p) == 0, (text, p)
    s = FlagShape.parse("1,2:3")
    assert weight_zero_residual(s, tau(1, "1") * tau(1, "2")) == 0


@pytest.mark.parametrize("text", ACCEPTANCE_SHAPES + ["1,2:5", "1,2,3,4:5"])
def test_infinity_T_class_is_the_paper_delta_framed_class(text):
    # Framing at infinity: zeta(T_k) on the infinity quiver is framed T_k
    # with the paper's delta_{k,0}, the +1 T_class adds because ∞ is frozen.
    shape = FlagShape.parse(text)
    ictx, fctx = infinity_context(shape), flag_context(shape)
    for k in range(-1, 6):
        collapsed = zeta(T_class(k, ictx))
        assert collapsed == framed_T_class(k, fctx, convention="paper-delta"), k
        assert collapsed - framed_T_class(k, fctx) == int(k == 0), k


def test_weight_zero_residual_weight_independent():
    s = FlagShape.parse("1:3")
    p = tau(2, "1")
    assert weight_zero_residual(s, p, w=alt_weights(3)) == 0


# ---------------------------------------------------------------------------
# homogeneity: the flag operators shift degree by a fixed amount


@st.composite
def _flag_monomials(draw):
    """A flag shape and one monomial of degree <= 5 on its vertices."""
    shape = FlagShape.parse(draw(st.sampled_from(("1,2:4", "1,2,3:4"))))
    verts = flag_context(shape).quiver.vertices
    mono, left = (), draw(st.integers(0, 5))
    while left:
        k = draw(st.integers(1, left))
        mono = monomials.mul(mono, ((draw(st.sampled_from(verts)), k, 1),))
        left -= k
    return shape, mono


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_flag_monomials())
def test_flag_operators_are_homogeneous(shape_and_mono):
    shape, mono = shape_and_mono
    p, deg = DescPoly({mono: 1}), monomials.degree(mono)
    ctx = flag_context(shape)

    def degrees(q):
        return {monomials.degree(m) for m in q.terms}

    for k in range(-1, 4):
        assert degrees(apply_L(k, p, ctx)) <= {deg + k}, k
        assert degrees(apply_framed_L(k, p, ctx)) <= {deg + k}, k
    assert degrees(apply_Lwt0(p, infinity_context(shape))) <= {deg - 1}


def test_flag_operators_hit_their_predicted_degree():
    # the homogeneity property is not vacuous: each operator has terms
    shape = FlagShape.parse("1,2:4")
    p = tau(2, "1") * tau(1, "2")
    assert monomials.degree(next(iter(apply_L(1, p, flag_context(shape)).terms))) == 4
    assert monomials.degree(next(iter(apply_framed_L(2, p, flag_context(shape)).terms))) == 5
    assert monomials.degree(next(iter(apply_Lwt0(p, infinity_context(shape)).terms))) == 2
