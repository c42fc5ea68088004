"""Descendent polynomial algebra and its Virasoro operators.

States are polynomials in commuting generators ``t[i,v]`` (written
``tau_i(v)`` in the docs) with ``i >= 1`` an integer index and ``v`` a
vertex name; coefficients are exact rationals.  The index-0 symbol is not a
generator: wherever an operator produces ``tau_0(v)`` it is eagerly
evaluated to the dimension ``d_v`` of the ambient context, which is why
every operator takes a :class:`VirContext`.

Operators implemented here:

* ``apply_R(k, p, ctx)`` — the derivation with
  ``R_k tau_i(v) = (i)(i+1)...(i+k) tau_{i+k}(v)`` (empty product at
  ``k = -1``, so ``R_{-1} tau_1(v) = d_v``),
* ``T_class(k, ctx)`` — the multiplication class
  ``sum_{i+j=k} i! j! sum_{v,w} td[w][v] tau_i(w) tau_j(v)`` plus ``1`` at
  ``k = 0`` when the quiver has frozen vertices,
* ``apply_L(k, p, ctx)`` = ``R_k + (T_k .)`` — the Virasoro constraints,
* ``framed_T_class`` / ``apply_framed_L`` — the framed variant
  ``T_k - k! tau_k(nbar)``; the historical ``+delta_{k,0}`` normalization
  is available as ``convention="paper-delta"`` for audits and is *not* the
  default (it shifts the k = 0 constraint by the identity, which the
  integral checks expose as a residual of exactly 1),
* ``apply_Lwt0(p, ctx)`` — the weight-zero combination
  ``sum_{j>=-1} ((-1)^j/(j+1)!) L_j R_{-1}^{j+1}``, lands in ker R_{-1},
* ``zeta(p)`` — pushforward that kills every monomial touching the
  reserved framing vertex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Mapping

from . import monomials
from .monomials import Monomial
from .quivers import INFINITY, Quiver, coords, todd_matrix

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DescPoly:
    """Immutable sparse polynomial in the descendent generators."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[m] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("DescPoly is immutable")

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return DescPoly, (self.terms,)

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls) -> "DescPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "DescPoly":
        return cls({(): Fraction(c)})

    # -- ring structure ----------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DescPoly.const(other)
        if not isinstance(other, DescPoly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, _ZERO) + c
        return DescPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return DescPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DescPoly.const(other)
        if not isinstance(other, DescPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return DescPoly({m: c * v for m, v in self.terms.items()})
        if not isinstance(other, DescPoly):
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomials.mul(m1, m2)
                out[m] = out.get(m, _ZERO) + c1 * c2
        return DescPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = DescPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- structure ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Top degree (deg tau_i = i); the zero polynomial has degree -1."""
        return max((monomials.degree(m) for m in self.terms), default=-1)

    def homogeneous_component(self, deg: int) -> "DescPoly":
        return DescPoly({m: c for m, c in self.terms.items()
                         if monomials.degree(m) == deg})

    def vertices(self) -> set[str]:
        return {v for m in self.terms for v, _, _ in m}

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DescPoly.const(other)
        if not isinstance(other, DescPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        return poly_to_str(self)

    def __repr__(self):
        return f"DescPoly({poly_to_str(self)!r})"


def tau(i: int, v: str) -> DescPoly:
    """The generator ``t[i,v]``; the index must be a positive integer."""
    if i < 1:
        raise ValueError("descendent indices start at 1; tau_0 is the "
                         "dimension scalar and never appears as a generator")
    return DescPoly({((v, int(i), 1),): _ONE})


# ---------------------------------------------------------------------------
# text form

def _mono_to_str(m: Monomial) -> str:
    parts = []
    for v, i, p in m:
        parts.append(f"t[{i},{v}]" if p == 1 else f"t[{i},{v}]^{p}")
    return "*".join(parts)


def poly_to_str(p: DescPoly) -> str:
    """Canonical text form, e.g. ``3/2*t[2,v1]*t[1,v2] + t[1,v1]^2``."""
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda mc: (-monomials.degree(mc[0]), mc[0]))
    chunks = []
    for m, c in items:
        if not m:
            s = str(c)
        elif c == 1:
            s = _mono_to_str(m)
        elif c == -1:
            s = "-" + _mono_to_str(m)
        else:
            s = f"{c}*{_mono_to_str(m)}"
        chunks.append(s)
    out = chunks[0]
    for s in chunks[1:]:
        out += " - " + s[1:] if s.startswith("-") else " + " + s
    return out


_FACTOR_RE = re.compile(r"^t\[(\d+),([^\],\s]+)\](?:\^(\d+))?$")
_RATIONAL_RE = re.compile(r"^\d+(?:/\d+)?$")


def _split_terms(s: str) -> list[str]:
    """Split on top-level + and - (bracket-aware); keeps the sign."""
    terms, depth, cur = [], 0, ""
    for ch in s:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch in "+-" and depth == 0 and cur.strip():
            terms.append(cur.strip())
            cur = ch if ch == "-" else ""
            continue
        cur += ch
    if cur.strip():
        terms.append(cur.strip())
    return terms


def parse_poly(s: str) -> DescPoly:
    """Inverse of :func:`poly_to_str` (whitespace-insensitive)."""
    s = s.strip()
    if not s or s == "0":
        return DescPoly.zero()
    total = DescPoly.zero()
    for term in _split_terms(s):
        term = term.strip()
        sign = _ONE
        while term.startswith(("+", "-")):
            if term[0] == "-":
                sign = -sign
            term = term[1:].strip()
        coeff = sign
        mono: Monomial = ()
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {term!r}")
            m = _FACTOR_RE.match(factor)
            if m:
                i, v, pw = int(m.group(1)), m.group(2), int(m.group(3) or 1)
                if i < 1:
                    raise ValueError(f"bad descendent index in {factor!r}")
                if pw:
                    mono = monomials.mul(mono, ((v, i, pw),))
            elif _RATIONAL_RE.match(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {factor!r}") from None
            else:
                raise ValueError(f"cannot parse factor {factor!r}")
        total = total + DescPoly({mono: coeff})
    return total


# ---------------------------------------------------------------------------
# contexts

@dataclass(frozen=True)
class VirContext:
    """A quiver with a dimension vector (and, optionally, a framing vector).

    The framing vector is only meaningful for quivers without frozen
    vertices and feeds the framed operators; plain contexts over quivers
    with frozen vertices get the delta_{k,0} correction in T_class instead.
    """

    quiver: Quiver
    dim: tuple[int, ...]
    framing: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.framing is not None and self.quiver.frozen:
            raise ValueError("a framing vector applies only to quivers without "
                             "frozen vertices")
        n = len(self.quiver.vertices)
        for name, vec in (("dim", self.dim), ("framing", self.framing)):
            if vec is None:
                continue
            if len(vec) != n:
                raise ValueError(f"{name} vector has {len(vec)} entries but the "
                                 f"quiver has {n} vertices")
            if any(x < 0 for x in vec):
                raise ValueError(f"{name} vector entries must be nonnegative, "
                                 f"got {vec}")

    def dim_of(self, v: str) -> int:
        return self.dim[self.quiver.index(v)]


def context(q: Quiver, dim, framing=None) -> VirContext:
    """The context of q; each vector is a sequence in vertex order or a
    {vertex: value} mapping (absent vertices 0), checked by VirContext."""
    def ordered(d):
        # dict first: the flag contexts pass dicts, once per case
        return coords(q, d) if isinstance(d, (dict, Mapping)) else tuple(d)

    return VirContext(q, ordered(dim), None if framing is None else ordered(framing))


# ---------------------------------------------------------------------------
# operators

def _check_vertices(p: DescPoly, ctx: VirContext):
    bad = p.vertices() - set(ctx.quiver.vertices)
    if bad:
        raise ValueError(f"polynomial uses vertices {sorted(bad)} not in "
                         "the context quiver")


def apply_R(k: int, p: DescPoly, ctx: VirContext) -> DescPoly:
    """The derivation R_k (degree shift +k); defined for k >= -1."""
    if k < -1:
        raise ValueError("R_k is defined for k >= -1")
    _check_vertices(p, ctx)
    out = DescPoly.zero()
    for m, c in p.terms.items():
        for pos, (v, i, pw) in enumerate(m):
            # weight (i)(i+1)...(i+k); empty product when k = -1
            w = _ONE
            for j in range(k + 1):
                w *= i + j
            if w == 0:
                continue
            coeff = c * pw * w
            if i + k == 0:
                repl: Monomial = ()
                coeff *= ctx.dim_of(v)
            else:
                repl = ((v, i + k, 1),)
            mono = monomials.mul(monomials.drop_factor(m, pos), repl)
            out = out + DescPoly({mono: coeff})
    return out


@lru_cache(maxsize=None)
def _t_class_cached(ctx: VirContext, k: int) -> DescPoly:
    q = ctx.quiver
    td = todd_matrix(q)
    names = q.vertices
    out = DescPoly.zero()
    for i in range(k + 1):
        j = k - i
        scale = Fraction(factorial(i) * factorial(j))
        for a, w in enumerate(names):
            for b, v in enumerate(names):
                coeff = td[a][b]
                if not coeff:
                    continue
                left = (DescPoly.const(ctx.dim[a]) if i == 0 else tau(i, w))
                right = (DescPoly.const(ctx.dim[b]) if j == 0 else tau(j, v))
                out = out + scale * coeff * (left * right)
    if k == 0 and q.frozen:
        out = out + 1
    return out


def T_class(k: int, ctx: VirContext) -> DescPoly:
    """The multiplication part of L_k; T_{-1} = 0.

    Includes the +1 constant at k = 0 exactly when the context quiver has
    frozen vertices.
    """
    if k < -1:
        raise ValueError("T_k is defined for k >= -1")
    if k == -1:
        return DescPoly.zero()
    return _t_class_cached(ctx, k)


def apply_L(k: int, p: DescPoly, ctx: VirContext) -> DescPoly:
    """Virasoro operator L_k = R_k + (T_k . ) for k >= -1."""
    return apply_R(k, p, ctx) + T_class(k, ctx) * p


def apply_Lwt0(p: DescPoly, ctx: VirContext) -> DescPoly:
    """Weight-zero combination sum_j ((-1)^j/(j+1)!) L_j R_{-1}^{j+1} p.

    The sum truncates once R_{-1}^{j+1} kills p (each R_{-1} lowers degree
    by one); the image lies in ker R_{-1}.  Every term of every L_j goes
    straight into one accumulator.
    """
    out: dict[Monomial, Fraction] = {}
    r = p
    j = -1
    while not r.is_zero():
        scale = Fraction(-1 if j % 2 else 1, factorial(j + 1))
        for m, c in apply_R(j, r, ctx).terms.items():
            monomials.add_into(out, m, scale * c)
        for m1, c1 in T_class(j, ctx).terms.items():
            for m2, c2 in r.terms.items():
                monomials.add_into(out, monomials.mul(m1, m2), scale * c1 * c2)
        r = apply_R(-1, r, ctx)
        j += 1
    return DescPoly(out)


def _tau_of_framing(k: int, ctx: VirContext) -> DescPoly:
    """tau_k(nbar) = sum_v n_v tau_k(v); at k = 0 this is sum_v n_v d_v."""
    if ctx.framing is None:
        raise ValueError("tau_k(nbar) needs a framed context")
    if k == 0:
        return DescPoly.const(sum(n * d for n, d in zip(ctx.framing, ctx.dim)))
    out = DescPoly.zero()
    for v, n in zip(ctx.quiver.vertices, ctx.framing):
        if n:
            out = out + n * tau(k, v)
    return out


def framed_T_class(k: int, ctx: VirContext,
                   convention: str = "no-delta") -> DescPoly:
    """T-class of the framed constraints: T_k - k! tau_k(nbar).

    ``convention="paper-delta"`` adds the historical +1 at k = 0; the
    default omits it (the framed pushforward cancels that constant, and the
    geometric residual checks only vanish without it).  k = -1 gives 0.

    Framing at infinity gives the paper-delta form: with q framed by n and
    dim d, ``zeta(T_class(k, context(frame_at_infinity(q, n), (1, *d))))``
    equals this class under ``"paper-delta"`` for every k, and differs from
    the default by delta_{k,0}, the +1 that T_class adds because ∞ is
    frozen (tested for A_1 and on the flag shapes' ``infinity_context``).
    """
    if ctx.framing is None:
        raise ValueError("framed_T_class needs a context with a framing")
    if convention not in ("no-delta", "paper-delta"):
        raise ValueError(f"unknown convention {convention!r}")
    if k < -1:
        raise ValueError("T_k is defined for k >= -1")
    if k == -1:
        return DescPoly.zero()
    out = T_class(k, ctx) - factorial(k) * _tau_of_framing(k, ctx)
    if k == 0 and convention == "paper-delta":
        out = out + 1
    return out


def apply_framed_L(k: int, p: DescPoly, ctx: VirContext,
                   convention: str = "no-delta") -> DescPoly:
    """Framed Virasoro operator R_k + (framed T_k . )."""
    return apply_R(k, p, ctx) + framed_T_class(k, ctx, convention) * p


def commutator_defect(n: int, m: int, p: DescPoly, ctx: VirContext,
                      convention: str = "no-delta") -> DescPoly:
    """[L_n, L_m] p - (m - n) L_{n+m} p, which vanishes for n, m >= -1.

    On a framed context the operators are the framed ones and the identity
    holds for n, m >= 0 only: the framed L_{-1} bracket picks up a
    tau(framing) term.  An L_{n+m} below that range counts as 0.

    On a quiver with frozen vertices the relation is shifted,
    [L_n, L_m] = (m - n)(L_{n+m} - delta_{n+m,0}): T_0 carries the +1 of
    ``T_class``, which no bracket produces.  The shift follows from
    adjointness: the ``duality`` suite checks that L_k - delta_{k,0} is
    adjoint, under the descendent/state pairing, to the lattice Virasoro
    mode L_k, and the lattice modes satisfy the Witt relations wherever
    the central term (n^3 - n) vanishes (the ``va-axioms`` suite checks
    the full relation), which covers n = -1, m = 1, the only n < m with
    n + m = 0.  PAPER.md holds only the source paper's abstract, so
    whether the paper writes the frozen relation in this form is not
    checked here.
    """
    if ctx.framing is None:
        L = lambda k, x: apply_L(k, x, ctx)
        lo = -1
    else:
        L = lambda k, x: apply_framed_L(k, x, ctx, convention=convention)
        lo = 0
    lhs = L(n, L(m, p)) - L(m, L(n, p))
    rhs = (m - n) * L(n + m, p) if n + m >= lo else DescPoly.zero()
    if n + m == 0 and ctx.quiver.frozen:
        rhs = rhs - (m - n) * p
    return lhs - rhs


def zeta(p: DescPoly) -> DescPoly:
    """Pushforward to the unframed algebra: kills every monomial containing
    a descendent of the reserved framing vertex, keeps the rest verbatim."""
    return DescPoly({m: c for m, c in p.terms.items()
                     if all(v != INFINITY for v, _, _ in m)})


def enumerate_monomials(vertices: Iterable[str], max_degree: int,
                        min_degree: int = 0) -> list[DescPoly]:
    """All descendent monomials (as polynomials) with degree in range.

    Ordered by (degree, monomial key); the constant monomial 1 is included
    when min_degree <= 0 <= max_degree.
    """
    return [DescPoly({m: _ONE}) for m in monomials.of_degree(vertices, max_degree, min_degree)]
