"""Command-line verifier for the quiver Virasoro constraints.

The ``qvc`` entry point exposes two commands:

* ``qvc check SUITE`` runs one of the verification suites and emits one JSON
  object per case on stdout (fields: ``suite``, ``case``, ``status``,
  ``residual``, ``ms``), with a human-readable summary table on stderr.  The
  exit code is 0 iff every case passed.
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
from fractions import Fraction
from multiprocessing import Pool

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
from .quivers import parse_quiver, preset, preset_names, serialize_quiver
from .vertex_algebra import (
    Lattice,
    VAState,
    dual_pairing_sides,
    k0_residual,
    vacuum,
    vertex_mode,
    virasoro_mode,
)

# --------------------------------------------------------------------------
# shared helpers


def _abs_sum(terms) -> Fraction:
    return sum((abs(c) for c in terms.values()), Fraction(0))


def _poly_residual(p: DescPoly) -> Fraction:
    return _abs_sum(p.terms)


def _state_residual(s: VAState) -> Fraction:
    return _abs_sum(s.terms)


def _parse_csv_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise SystemExit(f"qvc: invalid {what} {text!r}: expected comma-separated integers")


def _load_quiver(args) -> tuple[str, tuple[int, ...], tuple[int, ...] | None]:
    """Resolve --quiver/--preset/--dim/--frame into (serialized quiver, dims, frames)."""
    if args.quiver is not None and args.preset is not None:
        raise SystemExit("qvc: --quiver and --preset are mutually exclusive")
    file_dims = file_frames = None
    if args.quiver is not None:
        try:
            text = open(args.quiver, encoding="utf-8").read()
        except OSError as exc:
            raise SystemExit(f"qvc: cannot read quiver file: {exc}")
        q, file_dims, file_frames = parse_quiver(text)
    elif args.preset is not None:
        try:
            q = preset(args.preset)
        except ValueError:
            names = ", ".join(preset_names())
            raise SystemExit(f"qvc: unknown preset {args.preset!r} (known: {names})")
    else:
        raise SystemExit("qvc: one of --quiver or --preset is required")

    if args.dim is not None:
        dims = _parse_csv_ints(args.dim, "--dim")
    elif file_dims is not None:
        dims = tuple(file_dims[v] for v in q.vertices)
    else:
        dims = tuple(1 for _ in q.vertices)
    if len(dims) != len(q.vertices):
        raise SystemExit(
            f"qvc: --dim has {len(dims)} entries but the quiver has {len(q.vertices)} vertices"
        )

    frames = None
    if getattr(args, "frame", None) is not None:
        frames = _parse_csv_ints(args.frame, "--frame")
    elif file_frames is not None:
        frames = tuple(file_frames[v] for v in q.vertices)
    if frames is not None and len(frames) != len(q.unfrozen):
        raise SystemExit(
            f"qvc: --frame has {len(frames)} entries but the quiver has"
            f" {len(q.unfrozen)} unfrozen vertices"
        )
    return serialize_quiver(q), dims, frames


def _require_flag(args) -> FlagShape:
    if args.flag is None:
        raise SystemExit("qvc: this suite requires --flag DIMS:N (e.g. --flag 1,2:3)")
    try:
        return FlagShape.parse(args.flag)
    except ValueError as exc:
        raise SystemExit(f"qvc: invalid --flag: {exc}")


# --------------------------------------------------------------------------
# worker-side case evaluation
#
# Cases are small tuples of primitives so they pickle cheaply; each worker
# process rebuilds (and caches) the heavier context objects on first use.

_CTX_CACHE: dict = {}


def _ctx_for(qtext: str, dims: tuple[int, ...], framing: tuple[int, ...] | None) -> VirContext:
    key = (qtext, dims, framing)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        q, _, _ = parse_quiver(qtext)
        ctx = context(q, dims, framing=framing)
        _CTX_CACHE[key] = ctx
    return ctx


def _lattice_for(qtext: str) -> Lattice:
    key = ("lattice", qtext)
    lat = _CTX_CACHE.get(key)
    if lat is None:
        q, _, _ = parse_quiver(qtext)
        lat = Lattice.from_quiver(q)
        _CTX_CACHE[key] = lat
    return lat


def _state_from_wire(lat: Lattice, wire) -> VAState:
    terms = {
        (tuple(Fraction(x) for x in sector), tuple((v, k, p) for v, k, p in mono)): Fraction(coeff)
        for sector, mono, coeff in wire
    }
    return VAState(lat, terms)


def _state_to_wire(s: VAState):
    return tuple(
        (tuple(str(x) for x in sector), mono, str(coeff))
        for (sector, mono), coeff in sorted(s.terms.items())
    )


def _eval_commutator(payload) -> Fraction:
    qtext, dims, framing, convention, n, m, ptext = payload
    ctx = _ctx_for(qtext, dims, framing)
    p = parse_poly(ptext)
    if framing is None:
        L = lambda k, x: apply_L(k, x, ctx)
        lo = -1
    else:
        L = lambda k, x: apply_framed_L(k, x, ctx, convention=convention)
        lo = 0
    lhs = L(n, L(m, p)) - L(m, L(n, p))
    rhs = (m - n) * L(n + m, p) if n + m >= lo else DescPoly.zero()
    return _poly_residual(lhs - rhs)


def _eval_framed(payload) -> Fraction:
    shape_text, k, ptext, convention = payload
    shape = FlagShape.parse(shape_text)
    return abs(framed_virasoro_residual(shape, k, parse_poly(ptext), convention=convention))


def _eval_wt0(payload) -> Fraction:
    shape_text, ptext = payload
    shape = FlagShape.parse(shape_text)
    return abs(weight_zero_residual(shape, parse_poly(ptext)))


def _eval_duality(payload) -> Fraction:
    qtext, fr_qtext, variant, k, ptext, sector, mono = payload
    lat = _lattice_for(fr_qtext)
    tau_p = parse_poly(ptext)
    state = VAState(lat, {(tuple(Fraction(x) for x in sector), tuple(mono)): Fraction(1)})
    if variant == "framified":
        ctx = _ctx_for(fr_qtext, tuple(int(x) for x in sector), None)
    else:
        q, _, _ = parse_quiver(qtext)
        base_dims = tuple(int(x) for x in sector[len(sector) - len(q.vertices):])
        ctx = _ctx_for(qtext, base_dims, None)
    lhs, rhs = dual_pairing_sides(k, tau_p, state, lat, ctx=ctx)
    return abs(lhs - rhs)


def _eval_heisenberg(payload) -> Fraction:
    qtext, xvec, yvec, n, m, wire = payload
    lat = _lattice_for(qtext)
    s = _state_from_wire(lat, wire)
    x = tuple(Fraction(v) for v in xvec)
    y = tuple(Fraction(v) for v in yvec)
    from .vertex_algebra import heisenberg_mode

    lhs = heisenberg_mode(x, n, heisenberg_mode(y, m, s)) - heisenberg_mode(
        y, m, heisenberg_mode(x, n, s)
    )
    expect = (
        (Fraction(n) * lat.qsym(x, y)) * s if n + m == 0 and n != 0 else VAState(lat, {})
    )
    return _state_residual(lhs - expect)


def _eval_skew(payload) -> Fraction:
    """a_(n) b  =  sum_i (-1)^{i+n+1} T^i/i! ( b_(n+i) a )."""
    qtext, awire, bwire, n = payload
    lat = _lattice_for(qtext)
    a = _state_from_wire(lat, awire)
    b = _state_from_wire(lat, bwire)
    from .vertex_algebra import max_nonzero_mode, translate

    lhs = vertex_mode(a, n, b)
    rhs = VAState(lat, {})
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
    return _state_residual(lhs - rhs)


def _binom_gen(m: int, i: int) -> Fraction:
    out = Fraction(1)
    for j in range(i):
        out *= Fraction(m - j, j + 1)
    return out


def _eval_iterate(payload) -> Fraction:
    """a_(m)(a'_(n) b) - sum over compositions (the iterate/Borcherds identity)."""
    qtext, awire, a2wire, bwire, m, n = payload
    lat = _lattice_for(qtext)
    a = _state_from_wire(lat, awire)
    a2 = _state_from_wire(lat, a2wire)
    b = _state_from_wire(lat, bwire)
    from .vertex_algebra import max_nonzero_mode

    lhs = vertex_mode(a, m, vertex_mode(a2, n, b)) - vertex_mode(
        a2, n, vertex_mode(a, m, b)
    )
    rhs = VAState(lat, {})
    top = max_nonzero_mode(a, a2)
    for j in range(0, top + 1):
        inner = vertex_mode(a, j, a2)
        if inner.is_zero():
            continue
        rhs = rhs + _binom_gen(m, j) * vertex_mode(inner, m + n - j, b)
    return _state_residual(lhs - rhs)


def _eval_virasoro(payload) -> Fraction:
    qtext, n, m, wire = payload
    lat = _lattice_for(qtext)
    s = _state_from_wire(lat, wire)
    lhs = virasoro_mode(n, virasoro_mode(m, s)) - virasoro_mode(m, virasoro_mode(n, s))
    rhs = (Fraction(n - m)) * virasoro_mode(n + m, s)
    if n + m == 0:
        rhs = rhs + Fraction((n**3 - n) * lat.rank, 12) * s
    return _state_residual(lhs - rhs)


def _eval_bracket_base(payload) -> Fraction:
    qtext, sector = payload
    lat = _lattice_for(qtext)
    s = vacuum(lat, tuple(Fraction(x) for x in sector))
    return _state_residual(k0_residual(s))


def _eval_bracket_pair(payload) -> Fraction:
    qtext, awire, bwire = payload
    lat = _lattice_for(qtext)
    a = _state_from_wire(lat, awire)
    b = _state_from_wire(lat, bwire)
    return _state_residual(k0_residual(vertex_mode(a, 0, b)))


_EVALUATORS = {
    "commutator": _eval_commutator,
    "framed": _eval_framed,
    "wt0": _eval_wt0,
    "duality": _eval_duality,
    "heisenberg": _eval_heisenberg,
    "skew": _eval_skew,
    "iterate": _eval_iterate,
    "virasoro": _eval_virasoro,
    "bracket-base": _eval_bracket_base,
    "bracket-pair": _eval_bracket_pair,
}


def _run_case(case):
    suite, case_id, kind, payload = case
    t0 = time.perf_counter()
    residual = _EVALUATORS[kind](payload)
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
    qtext, dims, frames = _load_quiver(args)
    q, _, _ = parse_quiver(qtext)
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
                    (
                        "commutators",
                        cid,
                        "commutator",
                        (qtext, dims, frames, args.convention, n, m, ptext),
                    )
                )
    return cases


def _build_framed(args):
    shape = _require_flag(args)
    kmax = 3 if args.kmax is None else args.kmax
    degmax = (dimension(shape) + 3) if args.degmax is None else args.degmax
    vertices = tuple(str(i) for i in range(1, len(shape.dims) + 1))
    cases = []
    for k in range(0, kmax + 1):
        for p in enumerate_monomials(vertices, degmax):
            ptext = poly_to_str(p)
            cid = f"k={k},tau={ptext}"
            cases.append(("framed", cid, "framed", (str(shape), k, ptext, args.convention)))
    return cases


def _build_wt0(args):
    shape = _require_flag(args)
    degmax = (dimension(shape) + 3) if args.degmax is None else args.degmax
    vertices = tuple(str(i) for i in range(1, len(shape.dims) + 1))
    cases = []
    for p in enumerate_monomials(vertices, degmax, min_degree=1):
        ptext = poly_to_str(p)
        cases.append(("wt0", f"tau={ptext}", "wt0", (str(shape), ptext)))
    return cases


def _build_duality(args):
    qtext, dims, _ = _load_quiver(args)
    q, _, _ = parse_quiver(qtext)
    if q.frozen:
        raise SystemExit("qvc: the duality suite expects an unframed quiver")
    from .quivers import framify

    fr = framify(q)
    fr_text = serialize_quiver(fr)
    kmax = 3 if args.kmax is None else args.kmax
    degmax = 5 if args.degmax is None else args.degmax

    # Full framified sector (frozen copies get multiplicity 1) and the
    # embedded unframed sector (copies at 0).
    copies = len(fr.vertices) - len(q.vertices)
    sector_full = tuple(str(x) for x in (1,) * copies + dims)
    sector_emb = tuple(str(x) for x in (0,) * copies + dims)

    taus = {d: [] for d in range(0, degmax + 1)}
    for p in enumerate_monomials(q.vertices, degmax):
        taus[p.degree() if not p.is_zero() else 0].append(poly_to_str(p))
    from .vertex_algebra import _osc_monomials

    lat = Lattice.from_quiver(fr)
    # The framified check runs over the full oscillator algebra; the embedded
    # check pairs against the unframed descendent algebra, so its states use
    # base-vertex oscillators only.
    osc_full = {d: list(_osc_monomials(lat, d)) for d in range(0, degmax + 1)}
    base = set(q.vertices)
    osc_base = {
        d: [m for m in monos if all(v in base for v, _, _ in m)]
        for d, monos in osc_full.items()
    }

    cases = []
    for variant, sector, osc in (
        ("framified", sector_full, osc_full),
        ("embedded", sector_emb, osc_base),
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
                        cases.append(
                            (
                                "duality",
                                cid,
                                "duality",
                                (qtext, fr_text, variant, k, ptext, sector, mono),
                            )
                        )
    return cases


def _random_state(rng: random.Random, lat: Lattice, sector, max_depth: int) -> VAState:
    """A small random oscillator state in the given sector (depth <= max_depth)."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        mono = []
        depth = rng.randint(0, max_depth)
        left = depth
        while left > 0:
            k = rng.randint(1, left)
            v = rng.choice(lat.basis)
            mono.append((v, k))
            left -= k
        key = {}
        for v, k in mono:
            key[(v, k)] = key.get((v, k), 0) + 1
        mono_t = tuple(sorted((v, k, p) for (v, k), p in key.items()))
        terms[(sector, mono_t)] = terms.get((sector, mono_t), Fraction(0)) + Fraction(
            rng.randint(-3, 3)
        )
    terms = {key: c for key, c in terms.items() if c}
    if not terms:
        terms = {(sector, ()): Fraction(1)}
    return VAState(lat, terms)


def _random_sector(rng: random.Random, lat: Lattice, lo=-2, hi=2):
    return tuple(Fraction(rng.randint(lo, hi)) for _ in lat.basis)


def _build_va_axioms(args):
    qtext, _, _ = _load_quiver(args)
    q, _, _ = parse_quiver(qtext)
    if not q.frozen:
        from .quivers import framify

        q = framify(q)
        qtext = serialize_quiver(q)
    lat = Lattice.from_quiver(q)
    samples = 200 if args.samples is None else args.samples
    rng = random.Random(20240 + len(q.vertices))
    from .vertex_algebra import max_nonzero_mode

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
        awire, a2wire, bwire = _state_to_wire(a), _state_to_wire(a2), _state_to_wire(b)

        x = tuple(Fraction(rng.randint(-2, 2)) for _ in lat.basis)
        y = tuple(Fraction(rng.randint(-2, 2)) for _ in lat.basis)
        n = rng.randint(-3, 3)
        m = -n if rng.random() < 0.5 else rng.randint(-3, 3)
        cases.append(
            (
                "va-axioms",
                f"heisenberg[{idx}],n={n},m={m}",
                "heisenberg",
                (qtext, tuple(str(v) for v in x), tuple(str(v) for v in y), n, m, bwire),
            )
        )
        ns = rng.randint(-2, 2)
        cases.append(
            ("va-axioms", f"skew[{idx}],n={ns}", "skew", (qtext, awire, bwire, ns))
        )
        mi, ni = rng.randint(-1, 1), rng.randint(-1, 1)
        if mi + ni < 0 and window > 1:
            # Negative total modes on wide windows are the one expensive
            # corner (the outer creation series deepen with -(m+n));
            # keep those instances to narrow-window triples.
            mi, ni = rng.randint(0, 1), rng.randint(0, 1)
        cases.append(
            (
                "va-axioms",
                f"iterate[{idx}],m={mi},n={ni}",
                "iterate",
                (qtext, awire, a2wire, bwire, mi, ni),
            )
        )
        if idx % 4 == 0:
            nv, mv = rng.randint(-3, 3), rng.randint(-3, 3)
            cases.append(
                (
                    "va-axioms",
                    f"virasoro[{idx}],n={nv},m={mv}",
                    "virasoro",
                    (qtext, nv, mv, bwire),
                )
            )
    return cases


def _build_bracket(args):
    qtext, _, _ = _load_quiver(args)
    q, _, _ = parse_quiver(qtext)
    if not q.frozen:
        from .quivers import framify

        q = framify(q)
        qtext = serialize_quiver(q)
    lat = Lattice.from_quiver(q)
    samples = 60 if args.samples is None else args.samples

    cases = []
    # Base cases: pure sector states on the unfrozen simple roots (the
    # frozen copies have q(alpha, alpha) = 0, so they are not residual-free).
    base_sectors = []
    for v in q.unfrozen:
        sec = tuple(Fraction(1 if b == v else 0) for b in lat.basis)
        base_sectors.append(sec)
    for sec in base_sectors:
        cid = "base,sector=(" + ",".join(str(x) for x in sec) + ")"
        cases.append(("bracket", cid, "bracket-base", (qtext, tuple(str(x) for x in sec))))

    # Pool of residual-free states: kernel of the zero-mode residual per
    # (sector, oscillator degree), found by exact linear algebra.
    from .linalg import kernel_basis
    from .vertex_algebra import _osc_monomials

    pool = []
    sectors = []
    span = [-1, 0, 1]
    for coords in _cartesian(span, lat.rank):
        sectors.append(tuple(Fraction(c) for c in coords))
    # Higher-rank lattices get a thinner sector/degree grid: the kernel
    # computation runs one residual per basis monomial, and the full cube
    # is quadratically more expensive while adding little pool variety.
    if lat.rank > 2:
        sectors = [s for s in sectors if sum(1 for x in s if x) <= 2]
    for sec in sectors:
        for deg in (0, 1, 2):
            if deg == 2 and lat.rank > 2 and sum(1 for x in sec if x) > 1:
                continue
            monos = _osc_monomials(lat, deg)
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
    wires = [_state_to_wire(s) for s in pool]

    # Window-budgeted pair sampling keeps each bracket evaluation cheap;
    # accepted pairs are exact closure checks.
    from .vertex_algebra import max_nonzero_mode

    cap = 3 if lat.rank <= 2 else 2
    rng = random.Random(424242)
    for idx in range(samples):
        i = j = 0
        for _ in range(64):
            i = rng.randrange(len(pool))
            j = rng.randrange(len(pool))
            if max_nonzero_mode(pool[i], pool[j]) <= cap:
                break
        cases.append(("bracket", f"pair[{idx}]", "bracket-pair", (qtext, wires[i], wires[j])))
    return cases


def _cartesian(values, n):
    if n == 0:
        yield ()
        return
    for rest in _cartesian(values, n - 1):
        for v in values:
            yield rest + (v,)


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
    cases = _BUILDERS[args.suite](args)
    jobs = args.jobs or 1
    if jobs > 1 and len(cases) > 1:
        with Pool(processes=jobs) as pool:
            results = pool.map(_run_case, cases, chunksize=max(1, len(cases) // (jobs * 8)))
    else:
        results = [_run_case(c) for c in cases]

    report_lines = []
    failures = 0
    for row in results:
        line = json.dumps(row, sort_keys=True)
        print(line)
        report_lines.append(line)
        if row["status"] != "pass":
            failures += 1
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write("\n".join(report_lines) + ("\n" if report_lines else ""))

    elapsed = time.perf_counter() - t0
    total = len(results)
    print(
        f"suite {args.suite}: {total} cases, {failures} failed, {elapsed:.2f}s",
        file=sys.stderr,
    )
    if failures:
        worst = [r for r in results if r["status"] != "pass"][:5]
        for r in worst:
            print(f"  FAIL {r['case']} residual={r['residual']}", file=sys.stderr)
    return 0 if failures == 0 else 1


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
    check.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
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
