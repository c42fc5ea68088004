"""Command-line verifier for the quiver Virasoro constraints.

The ``qvc`` entry point exposes two commands:

* ``qvc check SUITE`` runs one of the verification suites and emits one JSON
  object per case on stdout (fields: ``suite``, ``case``, ``status``,
  ``residual``, ``ms``), with a human-readable summary table on stderr.  A
  case that raises becomes a row with status ``error`` and an ``error``
  field; the run goes on.  The exit code is 0 iff every case passed.  Bad
  input ends the run with one ``qvc:`` line and exit 1 before any case runs:
  ``--jobs`` below 1, a ``--report`` path that cannot be opened, a suite
  without cases, or a flag suite in which no case is admissible by degree.
* ``qvc integrate EXPR --flag DIMS:N`` evaluates a descendent expression on a
  flag variety by torus localization and prints the exact rational value.

Suites:

* ``commutators`` -- ``[L_n, L_m] = (m - n) L_{n+m}`` for the descendent
  operators on a quiver context, ``n, m`` in ``[-1, kmax]``.  With ``--frame``
  the framed operators are checked on ``[0, kmax]`` instead (the framed
  bracket with ``L_{-1}`` picks up an inhomogeneous ``tau(framing)`` term, so
  ``n = -1`` is excluded by design).
* ``framed`` -- vanishing of the framed constraint integrals on a flag
  variety for ``k`` in ``[0, kmax]`` and all monomials up to ``--degmax``.
* ``wt0`` -- vanishing of the weight-zero constraint route on the same grid.
* ``duality`` -- adjointness of the descendent operators and the lattice
  Virasoro operators under the residue pairing, both on the framified
  lattice (with the ``k = 0`` shift) and on the embedded unframed context.
* ``va-axioms`` -- Heisenberg commutation, skew-symmetry and the iterate
  identity for vertex operators on sampled states of the framified lattice.
* ``bracket`` -- the zero-mode residual: base cases, closure of the induced
  bracket on sampled residual-free states.

Reports are deterministic: case lists are generated in a fixed order from a
fixed seed, and ``--jobs`` only changes how cases are distributed across
worker processes, never their order or content.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from itertools import product
from multiprocessing import Pool

from . import monomials
from .descendents import (
    DescPoly,
    VirContext,
    apply_L,
    apply_framed_L,
    context,
    enumerate_monomials,
    parse_poly,
    poly_to_str,
)
from .flags import (
    FlagShape,
    dimension,
    framed_virasoro_residual,
    realize_and_integrate,
    weight_zero_residual,
)
from .linalg import kernel_basis
from .quivers import Quiver, framify, parse_quiver, preset, preset_names
from .vertex_algebra import (
    Lattice,
    VAState,
    dual_pairing_sides,
    heisenberg_mode,
    k0_residual,
    max_nonzero_mode,
    osc_monomials,
    translate,
    vacuum,
    vertex_mode,
    virasoro_mode,
)

# --------------------------------------------------------------------------
# shared helpers


def _residual(x: DescPoly | VAState) -> Fraction:
    """Sum of the absolute coefficients: 0 exactly when x is zero."""
    return sum((abs(c) for c in x.terms.values()), Fraction(0))


def _parse_csv_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise SystemExit(f"qvc: invalid {what} {text!r}: expected comma-separated integers")


def _vertex_ints(flag: str, text, from_file, q, count: int, what: str):
    """The --dim/--frame vector from the flag, else from the quiver file,
    else None; its length must be ``count`` and its entries nonnegative."""
    if text is not None:
        vec = _parse_csv_ints(text, flag)
    elif from_file is not None:
        missing = [v for v in q.vertices if v not in from_file]
        if missing:
            raise SystemExit(f"qvc: the quiver file gives no {flag[2:]} for vertex {missing[0]!r}")
        vec = tuple(from_file[v] for v in q.vertices)
    else:
        return None
    if len(vec) != count:
        raise SystemExit(f"qvc: {flag} has {len(vec)} entries but the quiver has {count} {what}")
    if min(vec, default=0) < 0:
        raise SystemExit(f"qvc: {flag} entries must be nonnegative, got {vec}")
    return vec


def _load_quiver(args) -> tuple[Quiver, tuple[int, ...], tuple[int, ...] | None]:
    """Resolve --quiver/--preset/--dim/--frame into (quiver, dims, frames)."""
    if args.quiver is not None and args.preset is not None:
        raise SystemExit("qvc: --quiver and --preset are mutually exclusive")
    file_dims = file_frames = None
    if args.quiver is not None:
        try:
            text = open(args.quiver, encoding="utf-8").read()
        except OSError as exc:
            raise SystemExit(f"qvc: cannot read quiver file: {exc}")
        try:
            q, file_dims, file_frames = parse_quiver(text)
        except ValueError as exc:
            raise SystemExit(f"qvc: invalid quiver file: {exc}")
    elif args.preset is not None:
        try:
            q = preset(args.preset)
        except ValueError:
            names = ", ".join(preset_names())
            raise SystemExit(f"qvc: unknown preset {args.preset!r} (known: {names})")
    else:
        raise SystemExit("qvc: one of --quiver or --preset is required")

    dims = _vertex_ints("--dim", args.dim, file_dims, q, len(q.vertices), "vertices")
    frames = _vertex_ints(
        "--frame", getattr(args, "frame", None), file_frames, q, len(q.unfrozen),
        "unfrozen vertices",
    )
    if frames is not None and q.frozen:
        raise SystemExit("qvc: --frame applies only to quivers without frozen vertices")
    return q, dims or (1,) * len(q.vertices), frames


def _require_flag(args) -> FlagShape:
    if args.flag is None:
        raise SystemExit("qvc: this suite requires --flag DIMS:N (e.g. --flag 1,2:3)")
    try:
        return FlagShape.parse(args.flag)
    except ValueError as exc:
        raise SystemExit(f"qvc: invalid --flag: {exc}")


# --------------------------------------------------------------------------
# case evaluation
#
# A case is (suite, case id, check, payload): check is one of the module-level
# functions below and payload the tuple of its arguments.  Payloads hold the
# value objects themselves (contexts, flag shapes, lattice states); under
# --jobs they are pickled into the workers with the check.  Descendent
# polynomials travel as their canonical text, which is also the case id.


def _eval_commutator(ctx: VirContext, convention: str, n: int, m: int, ptext: str) -> Fraction:
    p = parse_poly(ptext)
    if ctx.framing is None:
        L = lambda k, x: apply_L(k, x, ctx)
        lo = -1
    else:
        L = lambda k, x: apply_framed_L(k, x, ctx, convention=convention)
        lo = 0
    lhs = L(n, L(m, p)) - L(m, L(n, p))
    rhs = (m - n) * L(n + m, p) if n + m >= lo else DescPoly.zero()
    return _residual(lhs - rhs)


def _eval_framed(shape: FlagShape, k: int, ptext: str, convention: str) -> Fraction:
    return abs(framed_virasoro_residual(shape, k, parse_poly(ptext), convention=convention))


def _eval_wt0(shape: FlagShape, ptext: str) -> Fraction:
    return abs(weight_zero_residual(shape, parse_poly(ptext)))


def _eval_duality(k: int, ptext: str, state: VAState, ctx: VirContext) -> Fraction:
    lhs, rhs = dual_pairing_sides(k, parse_poly(ptext), state, state.lattice, ctx=ctx)
    return abs(lhs - rhs)


def _eval_heisenberg(x: tuple[int, ...], y: tuple[int, ...], n: int, m: int,
                     s: VAState) -> Fraction:
    lat = s.lattice
    lhs = heisenberg_mode(x, n, heisenberg_mode(y, m, s)) - heisenberg_mode(
        y, m, heisenberg_mode(x, n, s)
    )
    expect = (
        (Fraction(n) * lat.qsym(x, y)) * s if n + m == 0 and n != 0 else VAState(lat, {})
    )
    return _residual(lhs - expect)


def _eval_skew(a: VAState, b: VAState, n: int) -> Fraction:
    """a_(n) b  =  sum_i (-1)^{i+n+1} T^i/i! ( b_(n+i) a )."""
    lhs = vertex_mode(a, n, b)
    rhs = VAState(a.lattice, {})
    top = max_nonzero_mode(b, a)
    i = 0
    sign = -1 if n % 2 == 0 else 1
    fact = Fraction(1)
    while n + i <= top:
        term = vertex_mode(b, n + i, a)
        if not term.is_zero():
            for _ in range(i):
                term = translate(term)
            rhs = rhs + (Fraction(sign, 1) / fact) * term
        i += 1
        sign = -sign
        fact *= i
    return _residual(lhs - rhs)


def _binom_gen(m: int, i: int) -> Fraction:
    out = Fraction(1)
    for j in range(i):
        out *= Fraction(m - j, j + 1)
    return out


def _eval_iterate(a: VAState, a2: VAState, b: VAState, m: int, n: int) -> Fraction:
    """a_(m)(a'_(n) b) - sum over compositions (the iterate/Borcherds identity)."""
    lhs = vertex_mode(a, m, vertex_mode(a2, n, b)) - vertex_mode(
        a2, n, vertex_mode(a, m, b)
    )
    rhs = VAState(a.lattice, {})
    top = max_nonzero_mode(a, a2)
    for j in range(0, top + 1):
        inner = vertex_mode(a, j, a2)
        if inner.is_zero():
            continue
        rhs = rhs + _binom_gen(m, j) * vertex_mode(inner, m + n - j, b)
    return _residual(lhs - rhs)


def _eval_virasoro(n: int, m: int, s: VAState) -> Fraction:
    lhs = virasoro_mode(n, virasoro_mode(m, s)) - virasoro_mode(m, virasoro_mode(n, s))
    rhs = (Fraction(n - m)) * virasoro_mode(n + m, s)
    if n + m == 0:
        rhs = rhs + Fraction((n**3 - n) * s.lattice.rank, 12) * s
    return _residual(lhs - rhs)


def _eval_bracket_base(s: VAState) -> Fraction:
    return _residual(k0_residual(s))


def _eval_bracket_pair(a: VAState, b: VAState) -> Fraction:
    return _residual(k0_residual(vertex_mode(a, 0, b)))


def _run_case(case):
    suite, case_id, check, payload = case
    t0 = time.perf_counter()
    try:
        residual = check(*payload)
    except Exception as exc:  # one raising case must not abort the run
        return {
            "suite": suite,
            "case": case_id,
            "status": "error",
            "residual": None,
            "error": f"{type(exc).__name__}: {exc}",
            "ms": round((time.perf_counter() - t0) * 1000.0, 3),
        }
    ms = (time.perf_counter() - t0) * 1000.0
    return {
        "suite": suite,
        "case": case_id,
        "status": "pass" if residual == 0 else "fail",
        "residual": str(residual),
        "ms": round(ms, 3),
    }


# --------------------------------------------------------------------------
# case-list builders (run in the parent; deterministic)


def _build_commutators(args):
    q, dims, frames = _load_quiver(args)
    ctx = context(q, dims, framing=frames)
    kmax = 3 if args.kmax is None else args.kmax
    degmax = 6 if args.degmax is None else args.degmax
    lo = -1 if frames is None else 0
    cases = []
    for p in enumerate_monomials(q.vertices, degmax):
        ptext = poly_to_str(p)
        for n in range(lo, kmax + 1):
            for m in range(n + 1, kmax + 1):
                cid = f"n={n},m={m},p={ptext}"
                cases.append(
                    ("commutators", cid, _eval_commutator, (ctx, args.convention, n, m, ptext))
                )
    return cases


def _require_admissible(suite: str, cases, admissible: int, rule: str) -> None:
    """Every flag operator is homogeneous, so only a case whose operator
    output has degree dim can integrate to nonzero; a nonempty run without
    such a case checks nothing."""
    if cases and not admissible:
        raise SystemExit(
            f"qvc: suite {suite} has no admissible case ({rule}) with these parameters"
        )


def _build_framed(args):
    shape = _require_flag(args)
    dim = dimension(shape)
    kmax = 3 if args.kmax is None else args.kmax
    degmax = (dim + 3) if args.degmax is None else args.degmax
    vertices = tuple(str(i) for i in range(1, len(shape.dims) + 1))
    cases = []
    admissible = 0
    for k in range(0, kmax + 1):
        for p in enumerate_monomials(vertices, degmax):
            admissible += p.degree() + k == dim
            ptext = poly_to_str(p)
            cid = f"k={k},tau={ptext}"
            cases.append(("framed", cid, _eval_framed, (shape, k, ptext, args.convention)))
    _require_admissible("framed", cases, admissible, f"deg tau + k = dim = {dim}")
    return cases


def _build_wt0(args):
    shape = _require_flag(args)
    dim = dimension(shape)
    degmax = (dim + 3) if args.degmax is None else args.degmax
    vertices = tuple(str(i) for i in range(1, len(shape.dims) + 1))
    cases = []
    admissible = 0
    for p in enumerate_monomials(vertices, degmax, min_degree=1):
        admissible += p.degree() == dim + 1
        ptext = poly_to_str(p)
        cases.append(("wt0", f"tau={ptext}", _eval_wt0, (shape, ptext)))
    _require_admissible("wt0", cases, admissible, f"deg tau = dim + 1 = {dim + 1}")
    return cases


def _build_duality(args):
    q, dims, _ = _load_quiver(args)
    if q.frozen:
        raise SystemExit("qvc: the duality suite expects an unframed quiver")
    fr = framify(q)
    kmax = 3 if args.kmax is None else args.kmax
    degmax = 5 if args.degmax is None else args.degmax

    # Full framified sector (frozen copies get multiplicity 1) and the
    # embedded unframed sector (copies at 0).
    copies = len(fr.vertices) - len(q.vertices)
    sector_full = (1,) * copies + dims
    sector_emb = (0,) * copies + dims

    taus = {d: [] for d in range(0, degmax + 1)}
    for p in enumerate_monomials(q.vertices, degmax):
        taus[p.degree() if not p.is_zero() else 0].append(poly_to_str(p))
    lat = Lattice.from_quiver(fr)
    # The framified check runs over the full oscillator algebra; the embedded
    # check pairs against the unframed descendent algebra, so its states use
    # base-vertex oscillators only.
    osc_full = {d: list(osc_monomials(lat, d)) for d in range(0, degmax + 1)}
    base = set(q.vertices)
    osc_base = {
        d: [m for m in monos if all(v in base for v, _, _ in m)]
        for d, monos in osc_full.items()
    }

    cases = []
    for variant, sector, osc, ctx in (
        ("framified", sector_full, osc_full, context(fr, sector_full)),
        ("embedded", sector_emb, osc_base, context(q, dims)),
    ):
        for k in range(-1, kmax + 1):
            for tdeg in range(0, degmax + 1):
                sdeg = tdeg + k
                if sdeg < 0 or sdeg > degmax:
                    continue
                for ptext in taus[tdeg]:
                    for mono in osc[sdeg]:
                        mtxt = (
                            "*".join(f"x[{v},{kk}]^{pw}" for v, kk, pw in mono) or "1"
                        )
                        cid = f"{variant},k={k},tau={ptext},s={mtxt}"
                        state = VAState(lat, {(sector, mono): 1})
                        cases.append(("duality", cid, _eval_duality, (k, ptext, state, ctx)))
    return cases


def _random_state(rng: random.Random, lat: Lattice, sector, max_depth: int) -> VAState:
    """A small random oscillator state in the given sector (depth <= max_depth)."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        mono = ()
        left = rng.randint(0, max_depth)
        while left > 0:
            k = rng.randint(1, left)
            mono = monomials.mul(mono, ((rng.choice(lat.basis), k, 1),))
            left -= k
        monomials.add_into(terms, (sector, mono), Fraction(rng.randint(-3, 3)))
    terms = {key: c for key, c in terms.items() if c}
    if not terms:
        terms = {(sector, ()): Fraction(1)}
    return VAState(lat, terms)


def _random_sector(rng: random.Random, lat: Lattice, lo=-2, hi=2):
    return tuple(rng.randint(lo, hi) for _ in lat.basis)


def _build_va_axioms(args):
    q, _, _ = _load_quiver(args)
    if not q.frozen:
        q = framify(q)
    lat = Lattice.from_quiver(q)
    samples = 200 if args.samples is None else args.samples
    rng = random.Random(20240 + len(q.vertices))

    # Mode-window and depth budgets keep each case in the millisecond range
    # (higher-rank lattices have far larger oscillator spaces per degree);
    # every accepted instance is still an exact identity check, and each
    # triple contains a depth-3 state.
    window_cap = 4 if lat.rank <= 2 else 3
    left_depth = 3 if lat.rank <= 2 else 2

    def draw_triple():
        a = a2 = b = window = None
        for _ in range(64):
            a = _random_state(rng, lat, _random_sector(rng, lat, -1, 1), left_depth)
            b = _random_state(rng, lat, _random_sector(rng, lat, -1, 1), 3)
            a2 = _random_state(rng, lat, _random_sector(rng, lat, -1, 1), 2)
            window = max(
                max_nonzero_mode(a, a2),
                max_nonzero_mode(b, a),
                max_nonzero_mode(a, b),
                # a2-vs-b controls the outer series of the iterate check:
                # the composed mode acts from the sector sum, so both
                # pairings against b must stay narrow.
                max_nonzero_mode(a2, b),
            )
            if window <= window_cap:
                return a, a2, b, window
        return a, a2, b, window

    cases = []
    for idx in range(samples):
        a, a2, b, window = draw_triple()

        x = tuple(rng.randint(-2, 2) for _ in lat.basis)
        y = tuple(rng.randint(-2, 2) for _ in lat.basis)
        n = rng.randint(-3, 3)
        m = -n if rng.random() < 0.5 else rng.randint(-3, 3)
        cases.append(
            ("va-axioms", f"heisenberg[{idx}],n={n},m={m}", _eval_heisenberg, (x, y, n, m, b))
        )
        ns = rng.randint(-2, 2)
        cases.append(("va-axioms", f"skew[{idx}],n={ns}", _eval_skew, (a, b, ns)))
        mi, ni = rng.randint(-1, 1), rng.randint(-1, 1)
        if mi + ni < 0 and window > 1:
            # Negative total modes on wide windows are the one expensive
            # corner (the outer creation series deepen with -(m+n));
            # keep those instances to narrow-window triples.
            mi, ni = rng.randint(0, 1), rng.randint(0, 1)
        cases.append(
            ("va-axioms", f"iterate[{idx}],m={mi},n={ni}", _eval_iterate, (a, a2, b, mi, ni))
        )
        if idx % 4 == 0:
            nv, mv = rng.randint(-3, 3), rng.randint(-3, 3)
            cases.append(
                ("va-axioms", f"virasoro[{idx}],n={nv},m={mv}", _eval_virasoro, (nv, mv, b))
            )
    return cases


def _build_bracket(args):
    q, _, _ = _load_quiver(args)
    if not q.frozen:
        q = framify(q)
    lat = Lattice.from_quiver(q)
    samples = 60 if args.samples is None else args.samples

    cases = []
    # Base cases: pure sector states on the unfrozen simple roots (the
    # frozen copies have q(alpha, alpha) = 0, so they are not residual-free).
    for v in q.unfrozen:
        sec = tuple(int(b == v) for b in lat.basis)
        cid = "base,sector=(" + ",".join(str(x) for x in sec) + ")"
        cases.append(("bracket", cid, _eval_bracket_base, (vacuum(lat, sec),)))

    # Pool of residual-free states: kernel of the zero-mode residual per
    # (sector, oscillator degree), found by exact linear algebra.
    pool = []
    span = (-1, 0, 1)
    sectors = list(product(span, repeat=lat.rank))
    # Higher-rank lattices get a thinner sector/degree grid: the kernel
    # computation runs one residual per basis monomial, and the full cube
    # is quadratically more expensive while adding little pool variety.
    if lat.rank > 2:
        sectors = [s for s in sectors if sum(1 for x in s if x) <= 2]
    for sec in sectors:
        for deg in (0, 1, 2):
            if deg == 2 and lat.rank > 2 and sum(1 for x in sec if x) > 1:
                continue
            monos = osc_monomials(lat, deg)
            if not monos:
                continue
            images = []
            for mono in monos:
                s = VAState(lat, {(sec, mono): Fraction(1)})
                images.append(k0_residual(s))
            keys = sorted({key for img in images for key in img.terms})
            if not keys:
                for mono in monos:
                    pool.append(VAState(lat, {(sec, mono): Fraction(1)}))
                continue
            matrix = [[img.terms.get(key, Fraction(0)) for img in images] for key in keys]
            for vec in kernel_basis(matrix):
                terms = {
                    (sec, monos[i]): c for i, c in enumerate(vec) if c
                }
                if terms:
                    pool.append(VAState(lat, terms))
    if len(pool) < 2:
        raise SystemExit("qvc: bracket suite could not build a state pool")

    # Window-budgeted pair sampling keeps each bracket evaluation cheap;
    # accepted pairs are exact closure checks.
    cap = 3 if lat.rank <= 2 else 2
    rng = random.Random(424242)
    for idx in range(samples):
        i = j = 0
        for _ in range(64):
            i = rng.randrange(len(pool))
            j = rng.randrange(len(pool))
            if max_nonzero_mode(pool[i], pool[j]) <= cap:
                break
        cases.append(("bracket", f"pair[{idx}]", _eval_bracket_pair, (pool[i], pool[j])))
    return cases


_BUILDERS = {
    "commutators": _build_commutators,
    "framed": _build_framed,
    "wt0": _build_wt0,
    "duality": _build_duality,
    "va-axioms": _build_va_axioms,
    "bracket": _build_bracket,
}


# --------------------------------------------------------------------------
# drivers


def _run_check(args) -> int:
    t0 = time.perf_counter()
    if args.jobs < 1:
        raise SystemExit(f"qvc: --jobs must be at least 1, got {args.jobs}")
    try:
        report = open(args.report, "w", encoding="utf-8") if args.report else None
    except OSError as exc:
        raise SystemExit(f"qvc: cannot open report file: {exc}")
    with report or nullcontext():
        try:
            cases = _BUILDERS[args.suite](args)
        except ValueError as exc:
            raise SystemExit(f"qvc: cannot build suite {args.suite}: {exc}")
        if not cases:
            raise SystemExit(f"qvc: suite {args.suite} has no cases with these parameters")
        jobs = min(args.jobs, len(cases))
        if jobs > 1:
            with Pool(processes=jobs) as pool:
                results = pool.map(_run_case, cases, chunksize=max(1, len(cases) // (jobs * 8)))
        else:
            results = [_run_case(c) for c in cases]

        failures = errors = 0
        for row in results:
            line = json.dumps(row, sort_keys=True)
            print(line)
            if report:
                report.write(line + "\n")
            if row["status"] == "fail":
                failures += 1
            elif row["status"] == "error":
                errors += 1

    elapsed = time.perf_counter() - t0
    total = len(results)
    print(
        f"suite {args.suite}: {total} cases, {failures} failed, {errors} errors, {elapsed:.2f}s",
        file=sys.stderr,
    )
    if failures or errors:
        worst = [r for r in results if r["status"] != "pass"][:5]
        for r in worst:
            detail = r.get("error") or f"residual={r['residual']}"
            print(f"  {r['status'].upper()} {r['case']} {detail}", file=sys.stderr)
    return 0 if failures == errors == 0 else 1


def _run_integrate(args) -> int:
    shape = _require_flag(args)
    try:
        p = parse_poly(args.expr)
    except ValueError as exc:
        raise SystemExit(f"qvc: cannot parse expression: {exc}")
    try:
        value = realize_and_integrate(p, shape)
    except ValueError as exc:
        raise SystemExit(f"qvc: {exc}")
    print(value)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvc",
        description="Verify quiver Virasoro constraints and integrate descendents on flag varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a verification suite")
    check.add_argument(
        "suite",
        choices=sorted(_BUILDERS),
        help="which suite to run",
    )
    check.add_argument("--quiver", help="path to a quiver description file")
    check.add_argument("--preset", help="built-in quiver preset name")
    check.add_argument("--dim", help="dimension vector, comma-separated")
    check.add_argument("--frame", help="framing vector, comma-separated (commutators suite)")
    check.add_argument("--flag", help="flag shape DIMS:N, e.g. 1,2:3 (framed/wt0 suites)")
    check.add_argument("--kmax", type=int, help="largest operator index (default 3)")
    check.add_argument(
        "--degmax", type=int, help="largest monomial degree (default: suite-specific)"
    )
    check.add_argument(
        "--convention",
        choices=("no-delta", "paper-delta"),
        default="no-delta",
        help="framed constant-term convention (default no-delta)",
    )
    check.add_argument(
        "--samples", type=int, help="sample count for randomized suites (default 200/60)"
    )
    check.add_argument(
        "--jobs", type=int, default=1, help="worker processes, at least 1 (default 1)"
    )
    check.add_argument("--report", help="also write the JSON lines to this file")
    check.set_defaults(func=_run_check)

    integ = sub.add_parser("integrate", help="integrate a descendent expression on a flag variety")
    integ.add_argument("expr", help='descendent expression, e.g. "t[1,1]^4"')
    integ.add_argument("--flag", required=True, help="flag shape DIMS:N, e.g. 2:4")
    integ.set_defaults(func=_run_integrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
