"""Command-line verifier for the quiver Virasoro constraints.

The ``qvc`` entry point exposes two commands:

* ``qvc check SUITE [options]`` runs one of the verification suites and
  emits one JSON object per case on stdout (fields: ``suite``, ``case``,
  ``status``, ``residual``, ``ms``), with a summary on stderr.  A case that
  raises becomes a row with status ``error`` and an ``error`` field; the run
  goes on.  The exit code is 0 iff every case passed.  Each suite has its
  own parser and accepts only the options it reads; ``qvc check SUITE -h``
  lists them with their defaults.  Bad input ends the run with one ``qvc:``
  line and exit 1 before any case runs: a parse error (an unknown option
  included), a ``--report`` path that cannot be opened, a suite without
  cases, or a flag suite in which no case is admissible by degree.
* ``qvc integrate EXPR --flag DIMS:N`` evaluates a descendent expression on a
  flag variety by torus localization and prints the exact rational value.

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
    commutator_defect,
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
    bracket_residual,
    dual_pairing_sides,
    heisenberg_defect,
    iterate_defect,
    k0_residual,
    max_nonzero_mode,
    osc_monomials,
    skew_defect,
    vacuum,
    virasoro_defect,
)

# --------------------------------------------------------------------------
# shared helpers


def _residual(x) -> Fraction:
    """|x| of a number, the sum of the absolute coefficients of a DescPoly
    or VAState: 0 exactly when x is zero."""
    if isinstance(x, (DescPoly, VAState)):
        return sum((abs(c) for c in x.terms.values()), Fraction(0))
    return abs(x)


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

    dims = _vertex_ints(
        "--dim", getattr(args, "dim", None), file_dims, q, len(q.vertices), "vertices"
    )
    frames = _vertex_ints(
        "--frame", getattr(args, "frame", None), file_frames, q, len(q.unfrozen),
        "unfrozen vertices",
    )
    if frames is not None and q.frozen:
        raise SystemExit("qvc: --frame applies only to quivers without frozen vertices")
    return q, dims or (1,) * len(q.vertices), frames


# --------------------------------------------------------------------------
# case evaluation
#
# A case is (suite, case id, check, payload): check is a module-level
# function, payload the tuple of its arguments, and the residual of a case
# is _residual of what check returns.  Payloads hold the value objects
# themselves; under --jobs they are pickled into the workers with the check.
# Flag and duality polynomials travel as their canonical text (the case id).
# The flag and duality adapters below parse that text for their functions.


def _eval_framed(shape: FlagShape, k: int, ptext: str, convention: str) -> Fraction:
    return framed_virasoro_residual(shape, k, parse_poly(ptext), convention=convention)


def _eval_wt0(shape: FlagShape, ptext: str) -> Fraction:
    return weight_zero_residual(shape, parse_poly(ptext))


def _eval_duality(k: int, ptext: str, state: VAState, ctx: VirContext) -> Fraction:
    lhs, rhs = dual_pairing_sides(k, parse_poly(ptext), state, state.lattice, ctx=ctx)
    return lhs - rhs


def _run_case(case):
    suite, case_id, check, payload = case
    t0 = time.perf_counter()
    try:
        residual = _residual(check(*payload))
        row = {"status": "pass" if residual == 0 else "fail", "residual": str(residual)}
    except Exception as exc:  # one raising case must not abort the run
        row = {"status": "error", "residual": None, "error": f"{type(exc).__name__}: {exc}"}
    ms = (time.perf_counter() - t0) * 1000.0
    return {"suite": suite, "case": case_id, **row, "ms": round(ms, 3)}


# --------------------------------------------------------------------------
# case-list builders (run in the parent; deterministic)


def _build_commutators(args):
    q, dims, frames = _load_quiver(args)
    if frames is None and args.convention != "no-delta":
        raise SystemExit("qvc: --convention applies only to framed commutators (--frame)")
    ctx = context(q, dims, framing=frames)
    lo = -1 if frames is None else 0
    cases = []
    for p in enumerate_monomials(q.vertices, args.degmax):
        ptext = poly_to_str(p)
        for n in range(lo, args.kmax + 1):
            for m in range(n + 1, args.kmax + 1):
                cid = f"n={n},m={m},p={ptext}"
                cases.append(
                    ("commutators", cid, commutator_defect, (n, m, p, ctx, args.convention))
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
    shape = args.flag
    dim = dimension(shape)
    degmax = (dim + 3) if args.degmax is None else args.degmax
    vertices = tuple(str(i) for i in range(1, len(shape.dims) + 1))
    cases = []
    admissible = 0
    for k in range(0, args.kmax + 1):
        for p in enumerate_monomials(vertices, degmax):
            admissible += p.degree() + k == dim
            ptext = poly_to_str(p)
            cid = f"k={k},tau={ptext}"
            cases.append(("framed", cid, _eval_framed, (shape, k, ptext, args.convention)))
    _require_admissible("framed", cases, admissible, f"deg tau + k = dim = {dim}")
    return cases


def _build_wt0(args):
    shape = args.flag
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

    # Full framified sector (frozen copies get multiplicity 1) and the
    # embedded unframed sector (copies at 0).
    copies = len(fr.vertices) - len(q.vertices)
    sector_full = (1,) * copies + dims
    sector_emb = (0,) * copies + dims

    taus = {d: [] for d in range(0, args.degmax + 1)}
    for p in enumerate_monomials(q.vertices, args.degmax):
        taus[p.degree() if not p.is_zero() else 0].append(poly_to_str(p))
    lat = Lattice.from_quiver(fr)
    # The framified check runs over the full oscillator algebra; the embedded
    # check pairs against the unframed descendent algebra, so its states use
    # base-vertex oscillators only.
    osc_full = {d: list(osc_monomials(lat, d)) for d in range(0, args.degmax + 1)}
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
        for k in range(-1, args.kmax + 1):
            for tdeg in range(0, args.degmax + 1):
                sdeg = tdeg + k
                if sdeg < 0 or sdeg > args.degmax:
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
    for idx in range(args.samples):
        a, a2, b, window = draw_triple()

        x = tuple(rng.randint(-2, 2) for _ in lat.basis)
        y = tuple(rng.randint(-2, 2) for _ in lat.basis)
        n = rng.randint(-3, 3)
        m = -n if rng.random() < 0.5 else rng.randint(-3, 3)
        cases.append(
            ("va-axioms", f"heisenberg[{idx}],n={n},m={m}", heisenberg_defect, (x, y, n, m, b))
        )
        ns = rng.randint(-2, 2)
        cases.append(("va-axioms", f"skew[{idx}],n={ns}", skew_defect, (a, b, ns)))
        mi, ni = rng.randint(-1, 1), rng.randint(-1, 1)
        if mi + ni < 0 and window > 1:
            # Negative total modes on wide windows are the one expensive
            # corner (the outer creation series deepen with -(m+n));
            # keep those instances to narrow-window triples.
            mi, ni = rng.randint(0, 1), rng.randint(0, 1)
        cases.append(
            ("va-axioms", f"iterate[{idx}],m={mi},n={ni}", iterate_defect, (a, a2, b, mi, ni))
        )
        if idx % 4 == 0:
            nv, mv = rng.randint(-3, 3), rng.randint(-3, 3)
            cases.append(
                ("va-axioms", f"virasoro[{idx}],n={nv},m={mv}", virasoro_defect, (nv, mv, b))
            )
    return cases


def _build_bracket(args):
    q, _, _ = _load_quiver(args)
    if not q.frozen:
        q = framify(q)
    lat = Lattice.from_quiver(q)

    cases = []
    # Base cases: pure sector states on the unfrozen simple roots (the
    # frozen copies have q(alpha, alpha) = 0, so they are not residual-free).
    for v in q.unfrozen:
        sec = tuple(int(b == v) for b in lat.basis)
        cid = "base,sector=(" + ",".join(str(x) for x in sec) + ")"
        cases.append(("bracket", cid, k0_residual, (vacuum(lat, sec),)))

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
    for idx in range(args.samples):
        i = j = 0
        for _ in range(64):
            i = rng.randrange(len(pool))
            j = rng.randrange(len(pool))
            if max_nonzero_mode(pool[i], pool[j]) <= cap:
                break
        cases.append(("bracket", f"pair[{idx}]", bracket_residual, (pool[i], pool[j])))
    return cases


# --------------------------------------------------------------------------
# drivers


def _run_check(args) -> int:
    t0 = time.perf_counter()
    try:
        report = open(args.report, "w", encoding="utf-8") if args.report else None
    except OSError as exc:
        raise SystemExit(f"qvc: cannot open report file: {exc}")
    with report or nullcontext():
        try:
            cases = args.build(args)
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

        for row in results:
            line = json.dumps(row, sort_keys=True)
            print(line)
            if report:
                report.write(line + "\n")

    elapsed = time.perf_counter() - t0
    failures = sum(r["status"] == "fail" for r in results)
    errors = sum(r["status"] == "error" for r in results)
    print(
        f"suite {args.suite}: {len(results)} cases, {failures} failed, {errors} errors, "
        f"{elapsed:.2f}s",
        file=sys.stderr,
    )
    for r in [r for r in results if r["status"] != "pass"][:5]:
        detail = r.get("error") or f"residual={r['residual']}"
        print(f"  {r['status'].upper()} {r['case']} {detail}", file=sys.stderr)
    return 0 if failures == errors == 0 else 1


def _run_integrate(args) -> int:
    try:
        p = parse_poly(args.expr)
    except ValueError as exc:
        raise SystemExit(f"qvc: cannot parse expression: {exc}")
    try:
        value = realize_and_integrate(p, args.flag)
    except ValueError as exc:
        raise SystemExit(f"qvc: {exc}")
    print(value)
    return 0


class _Parser(argparse.ArgumentParser):
    """Every parse error is one ``qvc:`` line and exit 1, like all bad input."""

    def error(self, message):
        raise SystemExit(f"qvc: {message}")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid int value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _flag_shape(text: str) -> FlagShape:
    try:
        return FlagShape.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# option -> its argparse spec; each suite below names the options it reads,
# with its own defaults
_OPTIONS = {
    "dim": dict(help="dimension vector, comma-separated (default: the file's, else all 1)"),
    "frame": dict(help="framing vector, comma-separated (default: the file's, else none)"),
    "flag": dict(type=_flag_shape, required=True, help="flag shape DIMS:N, e.g. 1,2:3"),
    "kmax": dict(type=int, help="largest operator index (default %(default)s)"),
    "degmax": dict(type=int, help="largest monomial degree (default %(default)s)"),
    "convention": dict(choices=("no-delta", "paper-delta"),
                       help="framed constant-term convention (default %(default)s)"),
    "samples": dict(type=_int_at_least(0), help="number of sampled cases (default %(default)s)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qvc",
        description="Verify quiver Virasoro constraints and integrate descendents on flag varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = _Parser(add_help=False)
    run.add_argument("--jobs", type=_int_at_least(1), default=1,
                     help="worker processes (default 1)")
    run.add_argument("--report", help="also write the JSON lines to this file")
    source = _Parser(add_help=False)
    source.add_argument("--quiver", help="path to a quiver description file")
    source.add_argument("--preset", help="built-in quiver preset name")

    check = sub.add_parser("check", help="run a verification suite")
    suites = check.add_subparsers(dest="suite", required=True, metavar="SUITE")
    for name, build, parents, options, summary in (
        ("commutators", _build_commutators, [source, run],
         dict(dim=None, frame=None, kmax=3, degmax=6, convention="no-delta"),
         "[L_n, L_m] = (m - n) L_{n+m} on descendents"),
        ("framed", _build_framed, [run],
         dict(flag=None, kmax=3, degmax=None, convention="no-delta"),
         "framed constraint integrals vanish on a flag variety"),
        ("wt0", _build_wt0, [run], dict(flag=None, degmax=None),
         "the weight-zero constraint integrals vanish on a flag variety"),
        ("duality", _build_duality, [source, run], dict(dim=None, kmax=3, degmax=5),
         "descendent and lattice Virasoro operators are adjoint"),
        ("va-axioms", _build_va_axioms, [source, run], dict(samples=200),
         "vertex-algebra identities on sampled lattice states"),
        ("bracket", _build_bracket, [source, run], dict(samples=60),
         "the zero-mode residual and closure of the induced bracket"),
    ):
        p = suites.add_parser(name, parents=parents, help=summary, description=summary)
        for option, default in options.items():
            spec = _OPTIONS[option]
            if option == "degmax" and default is None:  # the flag suites
                spec = {**spec, "help": "largest monomial degree (default: flag dimension + 3)"}
            p.add_argument(f"--{option}", default=default, **spec)
        p.set_defaults(func=_run_check, build=build)

    integ = sub.add_parser("integrate", help="integrate a descendent expression on a flag variety")
    integ.add_argument("expr", help='descendent expression, e.g. "t[1,1]^4"')
    integ.add_argument("--flag", **_OPTIONS["flag"])
    integ.set_defaults(func=_run_integrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
