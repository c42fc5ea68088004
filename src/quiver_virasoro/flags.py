"""Partial flag varieties as framed-quiver moduli, with exact torus
localization for descendent integrals.

A shape (d_1 < ... < d_{l-1}; n) is the variety of quotient flags
C^n ->> E_{l-1} ->> ... ->> E_1 with dim E_i = d_i.  It is the moduli
space of stable framed representations of the A_{l-1} chain quiver with
edges i+1 -> i and framing (0, ..., 0, n) at the source vertex l-1.

Torus fixed points are nested coordinate subsets S_1 c ... c S_{l-1} of
{1..n} (E_i spanned by the coordinates in S_i), the descendent tau_k(i)
realizes as the power sum sum_{s in S_i} w_s^k / k!, and the tangent
weights at a chain are { w_a - w_b : a in S_i, b in S_{i+1} \\ S_i } with
S_l the full set.  The weight orientation is calibrated against the
projective-space oracle (integral of tau_1 over the line is +1); the
independent Schubert-calculus check on Gr(2,4) pins it as well.

Integrals extract the degree = dimension homogeneous component before
summing over fixed points: components below the dimension cancel in the
localization sum on their own, but components above it survive as
weight-dependent equivariant residues and are not part of the classical
integral, so the filter is load-bearing for weight independence.

Each (shape, weights) pair gets one integral functional, memoized for the
life of the process.  It puts the localization sum over one common
denominator D = lcm |e_F| of the tangent products e_F and works in integer
power sums P_k(S_i) = sum_{s in S_i} w_s^k, so a monomial's integral is a
single Fraction built from an integer numerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, lcm, prod

from .descendents import (DescPoly, VirContext, apply_framed_L, apply_Lwt0,
                          context, zeta)
from .quivers import Quiver, frame_at_infinity

_ZERO = Fraction(0)


@dataclass(frozen=True)
class FlagShape:
    """Quotient-flag dimensions d_1 < ... < d_{l-1} inside ambient C^n."""

    dims: tuple[int, ...]
    ambient: int

    def __post_init__(self):
        if not self.dims:
            raise ValueError("need at least one flag step")
        if any(d <= 0 for d in self.dims):
            raise ValueError("flag dimensions must be positive")
        if any(a >= b for a, b in zip(self.dims, self.dims[1:])):
            raise ValueError("flag dimensions must strictly increase")
        if self.dims[-1] >= self.ambient:
            raise ValueError("largest step must be smaller than the ambient")

    @classmethod
    def parse(cls, text: str) -> "FlagShape":
        """Parse 'd1,d2,...:n' (e.g. '1,2:4')."""
        try:
            dims_part, amb = text.split(":")
            dims = tuple(int(x) for x in dims_part.split(","))
            ambient = int(amb)
        except ValueError as exc:
            raise ValueError(f"bad flag shape {text!r}: want DIMS:N") from exc
        return cls(dims, ambient)

    def __str__(self):
        return ",".join(map(str, self.dims)) + f":{self.ambient}"


@dataclass(frozen=True)
class FixedPoint:
    """A nested chain of coordinate subsets (1-indexed, sorted tuples)."""

    shape: FlagShape
    chain: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        prev: tuple[int, ...] = ()
        for d, s in zip(self.shape.dims, self.chain):
            if len(s) != d or not set(prev) <= set(s):
                raise ValueError("chain is not nested with the right sizes")
            prev = s


def dimension(shape: FlagShape) -> int:
    """sum d_i (d_{i+1} - d_i) with d_l = n; equals minus the Euler form
    of the framed chain quiver at (1, dims)."""
    steps = shape.dims + (shape.ambient,)
    return sum(d * (e - d) for d, e in zip(steps, steps[1:]))


def chain_quiver(shape: FlagShape) -> Quiver:
    """The A_{l-1} quiver with edges i+1 -> i, vertices named '1'..'l-1'."""
    m = len(shape.dims)
    verts = tuple(str(i) for i in range(1, m + 1))
    edges = tuple((str(i + 1), str(i)) for i in range(1, m))
    return Quiver(verts, edges)


def framing_vector(shape: FlagShape) -> dict[str, int]:
    return {str(len(shape.dims)): shape.ambient}


def flag_context(shape: FlagShape) -> VirContext:
    """Framed descendent context for the shape (dims d-bar, framing at the
    source vertex)."""
    q = chain_quiver(shape)
    dims = {str(i + 1): d for i, d in enumerate(shape.dims)}
    return context(q, dims, framing=framing_vector(shape))


@lru_cache(maxsize=None)
def infinity_context(shape: FlagShape) -> VirContext:
    """Context over the chain quiver framed at infinity, dim (1, d-bar),
    memoized per shape for the life of the process.

    ``zeta(T_class(k, infinity_context(s)))`` is
    ``framed_T_class(k, flag_context(s), convention="paper-delta")``: ∞ is
    frozen, so T_class adds the +1 at k = 0 that the default ``no-delta``
    framed class omits.
    """
    q = chain_quiver(shape)
    dims = {str(i + 1): d for i, d in enumerate(shape.dims)}
    inf = frame_at_infinity(q, framing_vector(shape))
    full = dict(dims)
    full[inf.vertices[0]] = 1
    return context(inf, full)


def enumerate_fixed_points(shape: FlagShape) -> list[FixedPoint]:
    """All nested chains; count is the multinomial
    n! / (d_1! (d_2-d_1)! ... (n-d_{l-1})!)."""
    n = shape.ambient
    chains: list[tuple[tuple[int, ...], ...]] = []

    def rec(level: int, outer: tuple[int, ...],
            acc: tuple[tuple[int, ...], ...]):
        if level < 0:
            chains.append(acc[::-1])
            return
        for sub in combinations(outer, shape.dims[level]):
            rec(level - 1, sub, acc + (sub,))

    top = tuple(range(1, n + 1))
    rec(len(shape.dims) - 1, top, ())
    return [FixedPoint(shape, c) for c in sorted(chains)]


def _check_weights(shape: FlagShape, w) -> tuple[int, ...]:
    ww = tuple(int(x) for x in w)
    if len(ww) != shape.ambient:
        raise ValueError("weight vector length must equal the ambient")
    if len(set(ww)) != len(ww):
        raise ValueError("weights must be pairwise distinct")
    return ww


def tangent_weights(fp: FixedPoint, w) -> tuple[int, ...]:
    """Multiset of tangent weights { w_a - w_b : a in S_i,
    b in S_{i+1} \\ S_i }, S_l = {1..n}; sorted, all nonzero."""
    shape = fp.shape
    ww = _check_weights(shape, w)
    chain = fp.chain + (tuple(range(1, shape.ambient + 1)),)
    out = []
    for inner, outer in zip(chain, chain[1:]):
        new = set(outer) - set(inner)
        for a in inner:
            for b in new:
                out.append(ww[a - 1] - ww[b - 1])
    return tuple(sorted(out))


def default_weights(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def alt_weights(n: int) -> tuple[int, ...]:
    """A second, unrelated distinct-integer vector (1, 3, 7, 13, ...)."""
    return tuple(1 + i + i * i for i in range(n))


# per-(shape, weights) localization functionals, kept for the process
_EVAL_CACHE: dict[tuple[FlagShape, tuple[int, ...]], _Functional] = {}


class _Functional:
    """Memoized integral of each degree = dimension monomial m:
    I(m) = (sum_F (D // e_F) prod P_k^p) / (D prod (k!)^p)."""

    __slots__ = ("steps", "scales", "denom", "sums", "memo")

    def __init__(self, shape: FlagShape, ww: tuple[int, ...]):
        pts = enumerate_fixed_points(shape)
        self.steps = [{str(i): tuple(ww[a - 1] for a in s)
                       for i, s in enumerate(fp.chain, start=1)}
                      for fp in pts]
        tangents = [prod(tangent_weights(fp, ww)) for fp in pts]
        self.denom = lcm(*tangents)
        self.scales = [self.denom // e for e in tangents]
        self.sums: dict[tuple[str, int], list[int]] = {}
        self.memo: dict = {}

    def __call__(self, mono) -> Fraction:
        val = self.memo.get(mono)
        if val is None:
            terms = self.scales
            den = self.denom
            for v, k, p in mono:
                col = self.sums.get((v, k))
                if col is None:  # P_k(S_v) at every fixed point
                    col = self.sums[(v, k)] = [sum(x ** k for x in st[v])
                                               for st in self.steps]
                terms = [t * x ** p for t, x in zip(terms, col)]
                den *= factorial(k) ** p
            val = self.memo[mono] = Fraction(sum(terms), den)
        return val


def realize_and_integrate(p: DescPoly, shape: FlagShape, w=None) -> Fraction:
    """Integrate the degree = dimension component of p over the flag.

    Realization: tau_k(i) |-> sum_{s in S_i} w_s^k / k! at each fixed
    point; division by the tangent-weight product; exact rational sum.
    The result is independent of the (distinct-integer) weight vector.
    """
    ww = _check_weights(shape, default_weights(shape.ambient)
                        if w is None else w)
    bad = p.vertices() - {str(i) for i in range(1, len(shape.dims) + 1)}
    if bad:
        raise ValueError(f"polynomial vertices {sorted(bad)} are not flag "
                         "steps of this shape")
    comp = p.homogeneous_component(dimension(shape))
    if comp.is_zero():
        return _ZERO
    key = (shape, ww)
    integral = _EVAL_CACHE.get(key)
    if integral is None:
        integral = _EVAL_CACHE[key] = _Functional(shape, ww)
    total = _ZERO
    for mono, c in comp.terms.items():
        total += c * integral(mono)
    return total


def framed_virasoro_residual(shape: FlagShape, k: int, tau_poly: DescPoly,
                             convention: str = "no-delta",
                             w=None) -> Fraction:
    """Integral of the framed constraint L_k applied to tau; expected 0
    under the default convention (the paper-delta audit mode shifts the
    k = 0 residual by the plain integral of tau)."""
    if k < 0:
        raise ValueError("framed constraints are defined for k >= 0")
    ctx = flag_context(shape)
    return realize_and_integrate(
        apply_framed_L(k, tau_poly, ctx, convention), shape, w)


def weight_zero_residual(shape: FlagShape, tau_poly: DescPoly,
                         w=None) -> Fraction:
    """The weight-zero route: push tau through the infinity-framed quiver
    operator L_wt0, kill the infinity descendents, and integrate; expected
    to vanish for every tau."""
    ictx = infinity_context(shape)
    reduced = zeta(apply_Lwt0(tau_poly, ictx))
    return realize_and_integrate(reduced, shape, w)


def projective_space_oracle(n: int, p: DescPoly) -> Fraction:
    """Independent integration on (1; n): substitute
    tau_k(1) -> H^k / k! in Z[H]/(H^n) and read the H^{n-1} coefficient."""
    if n < 2:
        raise ValueError("projective space needs ambient n >= 2")
    bad = p.vertices() - {"1"}
    if bad:
        raise ValueError("oracle only knows the single flag step '1'")
    total = _ZERO
    for mono, c in p.terms.items():
        hdeg = sum(k * pw for _, k, pw in mono)
        if hdeg != n - 1:
            continue
        val = c
        for _, k, pw in mono:
            val /= Fraction(factorial(k)) ** pw
        total += val
    return total
