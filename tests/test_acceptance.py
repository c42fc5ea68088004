"""End-to-end acceptance checks.

Each test verifies one acceptance criterion and writes a single
`ACCEPTANCE <n> pass|FAIL ...` line straight to the real stdout so the
verdicts stay visible in captured pytest runs.
"""

import time
from fractions import Fraction

from quiver_virasoro import cli
from quiver_virasoro.descendents import apply_L, context, enumerate_monomials, parse_poly, tau
from quiver_virasoro.flags import (
    FlagShape,
    alt_weights,
    default_weights,
    dimension,
    framed_virasoro_residual,
    infinity_context,
    projective_space_oracle,
    realize_and_integrate,
)
from quiver_virasoro.quivers import euler_form, framify, preset
from quiver_virasoro.vertex_algebra import (
    Lattice,
    VAState,
    central_charge,
    k0_residual,
    osc_monomials,
    vacuum,
    virasoro_mode,
)

SHAPES = ("1:2", "1:3", "1:4", "2:4", "2:5", "1,2:3", "1,2,3:4")


def _criterion(num, title):
    def deco(fn):
        def wrapper(capsys):
            t0 = time.perf_counter()
            try:
                detail = fn()
            except BaseException as exc:
                elapsed = time.perf_counter() - t0
                with capsys.disabled():
                    print(f"ACCEPTANCE {num} FAIL {title}: {exc} ({elapsed:.1f}s)")
                raise
            elapsed = time.perf_counter() - t0
            with capsys.disabled():
                print(f"ACCEPTANCE {num} pass {title}: {detail} ({elapsed:.1f}s)")

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    return deco


def _suite_rows(argv):
    args = cli.build_parser().parse_args(argv)
    return [cli._run_case(c) for c in args.build(args)]


def _fails(rows):
    return [r for r in rows if r["status"] != "pass"]


def _admissible(rows, shape):
    """Rows that can be nonzero by degree, read from the case ids:
    deg tau + k = dim for framed, deg tau = dim + 1 for wt0."""
    dim = dimension(FlagShape.parse(shape))
    count = 0
    for r in rows:
        if r["suite"] == "framed":
            k, text = r["case"].removeprefix("k=").split(",tau=")
            count += parse_poly(text).degree() + int(k) == dim
        else:
            count += parse_poly(r["case"].removeprefix("tau=")).degree() == dim + 1
    return count


@_criterion(1, "descendent commutators")
def test_criterion_1_descendent_commutators():
    t0 = time.perf_counter()
    combos = [
        ("A_1", (1,)),
        ("A_1", (2,)),
        ("A_2", (1, 1)),
        ("A_2", (2, 1)),
        ("P_2", (1, 1, 1)),
        ("Kronecker-2", (1, 1)),
    ]
    checked = violations = 0
    for name, dims in combos:
        q = preset(name)
        ctx = context(q, dims)
        for p in enumerate_monomials(q.vertices, 6):
            first = {k: apply_L(k, p, ctx) for k in range(-1, 4)}
            comp = {(n, m): apply_L(n, first[m], ctx) for n in first for m in first}
            for n in range(-1, 4):
                for m in range(-1, 4):
                    lhs = comp[(n, m)] - comp[(m, n)]
                    if m == n:
                        rhs = lhs - lhs
                    else:
                        s = n + m
                        rhs = Fraction(m - n) * (
                            first[s] if -1 <= s <= 3 else apply_L(s, p, ctx)
                        )
                    checked += 1
                    if lhs != rhs:
                        violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    return f"6 quiver/dim combos, n,m in [-1,3], deg<=6, {checked} brackets, 0 violations"


@_criterion(2, "framed constraints on flags")
def test_criterion_2_framed_constraints():
    t0 = time.perf_counter()
    total = admissible = 0
    for shape in SHAPES:
        rows = _suite_rows(["check", "framed", "--flag", shape])
        assert not _fails(rows), f"shape {shape}: {_fails(rows)[:3]}"
        live = _admissible(rows, shape)
        assert live >= 1, f"shape {shape}: no admissible case"
        total += len(rows)
        admissible += live
    audit = framed_virasoro_residual(
        FlagShape.parse("1:2"), 0, tau(1, "1"), "paper-delta"
    )
    assert audit == 1, f"audit residual {audit}, expected the documented 1"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"
    return (
        f"7 shapes, k in [0,3], deg<=dim+3, {total} residuals all 0, "
        f"{admissible} admissible (deg tau + k = dim); "
        "paper-delta audit (1:2, k=0, t[1,1]) = 1 as documented"
    )


@_criterion(3, "weight-zero route")
def test_criterion_3_weight_zero_route():
    total = admissible = 0
    for shape in SHAPES:
        rows = _suite_rows(["check", "wt0", "--flag", shape])
        assert not _fails(rows), f"shape {shape}: {_fails(rows)[:3]}"
        live = _admissible(rows, shape)
        assert live >= 1, f"shape {shape}: no admissible case"
        total += len(rows)
        admissible += live
    return (
        f"7 shapes, deg<=dim+3, {total} zeta(L_wt0) residuals all 0, "
        f"{admissible} admissible (deg tau = dim + 1)"
    )


@_criterion(4, "lattice vertex algebra axioms")
def test_criterion_4_va_axioms():
    counts = {}
    for name in ("A_1", "A_2"):
        rows = _suite_rows(["check", "va-axioms", "--preset", name])
        assert not _fails(rows), f"{name}: {_fails(rows)[:3]}"
        assert len(rows) >= 200
        counts[name] = len(rows)
    return (
        "Heisenberg/skew/iterate on 200 sampled depth<=3 triples per lattice "
        f"({counts['A_1']}+{counts['A_2']} identities)"
    )


@_criterion(5, "Virasoro modes with central charge")
def test_criterion_5_virasoro_central_charge():
    checked = 0
    for name, c in (("A_1", 2), ("A_2", 4)):
        lat = Lattice.from_quiver(framify(preset(name)))
        assert central_charge(lat) == c
        zero = vacuum(lat)
        got = virasoro_mode(2, virasoro_mode(-2, zero)) - virasoro_mode(
            -2, virasoro_mode(2, zero)
        )
        assert got == Fraction(c, 2) * zero, f"[L_2, L_-2]|0> on {name}"
        states = [zero]
        sector_pool = [
            (0,) * lat.rank,
            (0,) * (lat.rank - 1) + (1,),
            (1,) + (0,) * (lat.rank - 2) + (1,),
            (0,) * (lat.rank - 1) + (-1,),
            (1, 1) + (0,) * (lat.rank - 2),
        ]
        for deg in range(1, 5):
            monos = osc_monomials(lat, deg)
            sec = tuple(Fraction(x) for x in sector_pool[deg % len(sector_pool)])
            states.append(VAState(lat, {(sec, monos[len(monos) // 2]): Fraction(1)}))
        for s in states:
            first = {m: virasoro_mode(m, s) for m in range(-3, 4)}
            comp = {(n, m): virasoro_mode(n, first[m]) for n in first for m in first}
            for n in range(-3, 4):
                for m in range(-3, 4):
                    lhs = comp[(n, m)] - comp[(m, n)]
                    rhs = Fraction(n - m) * (
                        first[n + m] if -3 <= n + m <= 3 else virasoro_mode(n + m, s)
                    )
                    if n + m == 0:
                        rhs = rhs + Fraction((n**3 - n) * c, 12) * s
                    checked += 1
                    assert lhs == rhs, (name, n, m)
    return (
        "C=2 and C=4 confirmed; [L_2,L_-2]|0> = (C/2)|0>; "
        f"{checked} bracket cases on depth<=4 states, n,m in [-3,3]"
    )


@_criterion(6, "descendent/state duality")
def test_criterion_6_duality():
    rows = _suite_rows(["check", "duality", "--preset", "A_1"])
    assert not _fails(rows), _fails(rows)[:3]
    framified = [r for r in rows if r["case"].startswith("framified")]
    embedded = [r for r in rows if r["case"].startswith("embedded")]
    assert framified and embedded
    return (
        f"k in [-1,3], deg<=5: {len(framified)} framified pairings with the "
        f"delta shift and {len(embedded)} embedded pairings without it"
    )


@_criterion(7, "physical-state machinery")
def test_criterion_7_physical_states():
    for name in ("A_1", "A_2"):
        lat = Lattice.from_quiver(framify(preset(name)))
        q = framify(preset(name))
        for i, v in enumerate(lat.basis):
            if v in q.frozen:
                continue
            sec = tuple(Fraction(int(j == i)) for j in range(lat.rank))
            assert k0_residual(vacuum(lat, sec)).is_zero(), (name, v)
    rows = _suite_rows(["check", "bracket", "--preset", "A_1"])
    assert not _fails(rows), _fails(rows)[:3]
    pairs = [r for r in rows if r["case"].startswith("pair")]
    assert len(pairs) >= 50
    return (
        "k0_residual(e^v) = 0 for every unfrozen simple root; "
        f"{len(pairs)} sampled brackets stay inside the residual-free space"
    )


def _schubert_sigma1_power(r, n, power):
    """Coefficient expansion of sigma_1^power on Gr(r, n) by the Pieri rule."""
    box_cols = n - r
    coeffs = {(0,) * r: 1}
    for _ in range(power):
        nxt = {}
        for lam, c in coeffs.items():
            for i in range(r):
                upper = box_cols if i == 0 else lam[i - 1]
                if lam[i] < upper:
                    mu = lam[:i] + (lam[i] + 1,) + lam[i + 1 :]
                    nxt[mu] = nxt.get(mu, 0) + c
        coeffs = nxt
    return coeffs


@_criterion(8, "localization soundness")
def test_criterion_8_localization():
    known = [
        ("1:2", tau(1, "1"), Fraction(1)),
        ("1:3", tau(1, "1") ** 2, Fraction(1)),
        ("1:3", tau(2, "1"), Fraction(1, 2)),
        ("1:4", tau(3, "1"), Fraction(1, 6)),
        ("2:4", tau(1, "1") ** 4, Fraction(2)),
    ]
    for text, p, want in known:
        s = FlagShape.parse(text)
        a = realize_and_integrate(p, s, w=default_weights(s.ambient))
        b = realize_and_integrate(p, s, w=alt_weights(s.ambient))
        assert a == b == want, (text, p, a, b)

    agreements = 0
    for n in range(2, 6):
        s = FlagShape.parse(f"1:{n}")
        for p in enumerate_monomials(("1",), n + 1):
            a = realize_and_integrate(p, s, w=default_weights(n))
            b = realize_and_integrate(p, s, w=alt_weights(n))
            o = projective_space_oracle(n, p)
            assert a == b == o, (n, p, a, b, o)
            agreements += 1

    # independent route to Gr(2,4): sigma_1^4 = 2 sigma_{2,2} by Pieri, and
    # sigma_{2,2} is the point class
    coeffs = _schubert_sigma1_power(2, 4, 4)
    assert coeffs == {(2, 2): 2}
    assert realize_and_integrate(tau(1, "1") ** 4, FlagShape.parse("2:4")) == 2
    return (
        "two weight vectors agree on every integral; projective oracle "
        f"matched on {agreements} monomials (n<=5); Gr(2,4) tau_1^4 = 2 "
        "equals the Pieri count of sigma_{2,2} in sigma_1^4"
    )


@_criterion(9, "dimension identity across modules")
def test_criterion_9_dimension_identity():
    for text in SHAPES:
        s = FlagShape.parse(text)
        ctx = infinity_context(s)
        chi = euler_form(ctx.quiver, ctx.dim, ctx.dim)
        assert dimension(s) == -chi, (text, dimension(s), chi)
    return "dimension(shape) = -chi((1,d),(1,d)) for all 7 acceptance shapes"
