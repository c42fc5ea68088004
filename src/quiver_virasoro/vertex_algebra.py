"""Lattice vertex algebra attached to an integral (possibly non-symmetric)
bilinear form, with its conformal structure and the pairing against the
descendent algebra.

States live in ``C[lattice] (x) polynomial algebra on b_{-k}``: a state is
an exact-rational linear combination of terms ``e^alpha (x) monomial``,
where ``alpha`` is a lattice sector and the monomial is in creation
generators ``x[b,k]`` (basis element b, mode k >= 1).  The grading is
``deg(e^alpha (x) prod b_{-k_i}) = sum k_i + q(alpha, alpha)`` with q the
non-symmetric form; for lattices built from a quiver, q is the Euler form,
so the cocycle signs (-1)^{q(alpha,beta)} are honest integers.

The vertex operator of a general state is assembled from the generating
fields by the reconstruction rule: a factor b_{-k} contributes
``(1/(k-1)!) d^{k-1}/dz^{k-1} Y(b_1, z)`` and the sector contributes
``Y(e^alpha, z)``; everything is normal ordered (creation parts left,
annihilation and zero-mode parts right, zero modes evaluated on the source
sector).  Mode extraction is exact z-power bookkeeping — no floating
truncation anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, factorial
from typing import Mapping

from . import linalg, monomials
from .descendents import DescPoly, VirContext, apply_L
from .monomials import Monomial, add_into, drop_factor
from .quivers import IntMatrix, Quiver, todd_matrix

Sector = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Lattice:
    """Ordered basis with integral non-symmetric form q; Q_sym = q + q^T.
    Q_sym, its dual basis and each used row Q_sym(x, .) are computed once."""

    basis: tuple[str, ...]
    gram: IntMatrix
    quiver: Quiver | None = field(default=None, compare=False)
    # coordinate vector x -> Q_sym(x, b) for each basis element b
    _rows: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        n = len(self.basis)
        if len(self.gram) != n or any(len(r) != n for r in self.gram):
            raise ValueError("gram matrix shape mismatch")

    @classmethod
    def from_quiver(cls, q: Quiver) -> "Lattice":
        return cls(q.vertices, todd_matrix(q), quiver=q)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def index(self, b: str) -> int:
        return self.basis.index(b)

    def vector(self, x) -> tuple[Fraction, ...]:
        """Coerce a mapping/sequence/basis-name into rational coordinates."""
        if isinstance(x, str):
            return tuple(Fraction(int(b == x)) for b in self.basis)
        if isinstance(x, Mapping):
            unknown = set(x) - set(self.basis)
            if unknown:
                raise ValueError(f"unknown basis names {sorted(unknown)}")
            return tuple(Fraction(x.get(b, 0)) for b in self.basis)
        xs = tuple(Fraction(v) for v in x)
        if len(xs) != self.rank:
            raise ValueError("vector length mismatch")
        return xs

    def q(self, a, b) -> Fraction:
        av, bv = self.vector(a), self.vector(b)
        return sum(av[i] * self.gram[i][j] * bv[j]
                   for i in range(self.rank) for j in range(self.rank))

    def qsym(self, a, b) -> Fraction:
        return self.q(a, b) + self.q(b, a)

    @cached_property
    def _qsym(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(g + h for g, h in zip(row, col))
                     for row, col in zip(self.gram, zip(*self.gram)))

    def qsym_matrix(self) -> list[list[int]]:
        return [list(row) for row in self._qsym]

    def pair_row(self, xv: tuple) -> tuple:
        """Q_sym(x, b) for each basis element b (Q_sym is symmetric).  Entries
        are int when x is integral, even if x was first cached as Fractions."""
        row = self._rows.get(xv)
        if row is None:
            sums = (sum(x * c for x, c in zip(xv, col)) for col in self._qsym)
            row = self._rows[xv] = tuple(v.numerator if v.denominator == 1 else v for v in sums)
        return row

    @cached_property
    def _duals(self) -> tuple[tuple[Fraction, ...], ...]:
        try:
            inv = linalg.inverse(self.qsym_matrix())
        except ValueError:
            raise ValueError("symmetrized form is degenerate; no dual basis")
        # column j of the inverse solves Q_sym x = e_j
        return tuple(zip(*inv))

    def dual_basis(self) -> list[tuple[Fraction, ...]]:
        """Vectors v-hat with Q_sym(v-hat, w) = delta_{vw}; errors if the
        symmetrized form is degenerate."""
        return list(self._duals)


class VAState:
    """Immutable exact linear combination of ``e^sector (x) monomial``; each
    sector becomes ``lattice.rank`` ints (ValueError if it cannot)."""

    __slots__ = ("lattice", "terms")

    def __init__(self, lattice: Lattice,
                 terms: Mapping[tuple[Sector, Monomial], Fraction] | None = None):
        clean: dict[tuple[Sector, Monomial], Fraction] = {}
        if terms:
            secs: dict = {}
            for (sec, mono), c in terms.items():
                c = Fraction(c)
                if c:
                    key = secs.get(sec)
                    if key is None:
                        key = secs[sec] = _sector(lattice, sec)
                    clean[(key, mono)] = c
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("VAState is immutable")

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return VAState, (self.lattice, self.terms)

    # -- linear structure --------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, VAState):
            return NotImplemented
        if other.lattice != self.lattice:
            raise ValueError("states live over different lattices")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, _ZERO) + c
        return VAState(self.lattice, out)

    def __neg__(self):
        return VAState(self.lattice, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, VAState):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return VAState(self.lattice,
                           {k: c * v for k, v in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, VAState):
            return NotImplemented
        return self.lattice == other.lattice and self.terms == other.terms

    def __hash__(self):
        return hash((self.lattice, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ---------------------------------------------------------
    def sectors(self) -> set[Sector]:
        return {sec for sec, _ in self.terms}

    def sector(self) -> Sector:
        secs = self.sectors()
        if len(secs) != 1:
            raise ValueError(f"state is not homogeneous in sector: {secs}")
        return next(iter(secs))

    def osc_degree(self) -> int:
        """Largest oscillator degree sum k_i over the terms (0 for e^a⊗1)."""
        return max((monomials.degree(m) for _, m in self.terms), default=0)

    def degree_components(self) -> dict[tuple[Sector, int], "VAState"]:
        """Split into (sector, total degree) homogeneous pieces."""
        out: dict[tuple[Sector, int], dict] = {}
        for (sec, mono), c in self.terms.items():
            # q(a, a) = Q_sym(a, a) / 2 from the cached integer row
            d = monomials.degree(mono) + sum(
                a * w for a, w in zip(sec, self.lattice.pair_row(sec))) // 2
            out.setdefault((sec, d), {})[(sec, mono)] = c
        return {k: VAState(self.lattice, t) for k, t in out.items()}

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (sec, mono), c in sorted(self.terms.items()):
            osc = "*".join(f"x[{b},{k}]" + (f"^{p}" if p > 1 else "")
                           for b, k, p in mono) or "1"
            bits.append(f"({c})*e{list(sec)}*{osc}")
        return " + ".join(bits)

    def __repr__(self):
        return f"VAState<{self}>"


def vacuum(lattice: Lattice, sector=None) -> VAState:
    """e^sector (x) 1; the plain vacuum |0> when sector is omitted."""
    sec = (0,) * lattice.rank if sector is None else _sector(lattice, sector)
    return VAState(lattice, {(sec, ()): _ONE})


def _sector(lattice: Lattice, alpha) -> Sector:
    vec = lattice.vector(alpha)
    if any(v.denominator != 1 for v in vec):
        raise ValueError("sectors must be integral lattice points")
    return tuple(int(v) for v in vec)


# ---------------------------------------------------------------------------
# basic operators

def translate(s: VAState) -> VAState:
    """The canonical derivation T: T(e^a) = e^a (x) a_1, T(b_k) = k b_{k+1}."""
    L = s.lattice
    out: dict[tuple[Sector, Monomial], Fraction] = {}
    for (sec, mono), c in s.terms.items():
        for b, a in zip(L.basis, sec):
            if a:
                add_into(out, (sec, monomials.mul(mono, ((b, 1, 1),))), c * a)
        for pos, (b, k, p) in enumerate(mono):
            add_into(out, (sec, monomials.mul(drop_factor(mono, pos), ((b, k + 1, 1),))),
                     c * p * k)
    return VAState(L, out)


def heisenberg_mode(x, n: int, s: VAState) -> VAState:
    """Mode x_{(n)} of the degree-1 field attached to the lattice vector x.

    x_{(-k)} multiplies by the oscillator x_k (k >= 1); x_{(0)} is the
    scalar Q_sym(x, sector); x_{(k)} = sum_b k Q_sym(x, b) d/db_k (k >= 1).
    Linear in x; x may have rational coordinates.
    """
    L = s.lattice
    xv = L.vector(x)
    out: dict[tuple[Sector, Monomial], Fraction] = {}
    if n < 0:
        k = -n
        for (sec, mono), c in s.terms.items():
            for b, xc in zip(L.basis, xv):
                if xc:
                    add_into(out, (sec, monomials.mul(mono, ((b, k, 1),))), c * xc)
        return VAState(L, out)
    pair = L.pair_row(xv)
    if n == 0:
        for (sec, mono), c in s.terms.items():
            add_into(out, (sec, mono), c * sum(w * a for w, a in zip(pair, sec)))
    else:
        for (sec, mono), c in s.terms.items():
            for pos, (b, k, p) in enumerate(mono):
                if k != n:
                    continue
                w = pair[L.index(b)]
                if w:
                    add_into(out, (sec, drop_factor(mono, pos)), c * w * n * p)
    return VAState(L, out)


# ---------------------------------------------------------------------------
# z-power bookkeeping for exponential fields and general vertex operators

def _apply_deriv(L: Lattice, coeffs: list[Fraction], k: int,
                 zstate: dict[int, dict[Monomial, Fraction]]
                 ) -> dict[int, dict[Monomial, Fraction]]:
    """Apply sum_b coeffs[b] d/db_k to every entry of a z-indexed state."""
    out: dict[int, dict[Monomial, Fraction]] = {}
    for z, polys in zstate.items():
        for mono, c in polys.items():
            for pos, (b, kk, p) in enumerate(mono):
                if kk != k:
                    continue
                w = coeffs[L.index(b)]
                if not w:
                    continue
                add_into(out.setdefault(z, {}), drop_factor(mono, pos), c * w * p)
    return out


def _apply_gamma_plus(L: Lattice, alpha_pair: list[Fraction],
                      zstate: dict[int, dict[Monomial, Fraction]]
                      ) -> dict[int, dict[Monomial, Fraction]]:
    """Apply exp(-sum_{k>0} z^{-k} D_k), D_k = sum_b Q_sym(alpha,b) d/db_k."""
    depth = max((monomials.degree(m) for polys in zstate.values()
                 for m in polys), default=0)
    state = zstate
    for k in range(1, depth + 1):
        total = {z: dict(p) for z, p in state.items()}
        cur = state
        power = 0
        while cur:
            power += 1
            cur = _apply_deriv(L, alpha_pair, k, cur)
            if not cur:
                break
            scale = Fraction((-1) ** power, factorial(power))
            for z, polys in cur.items():
                tgt = total.setdefault(z - k * power, {})
                for mono, c in polys.items():
                    tgt[mono] = tgt.get(mono, _ZERO) + scale * c
        state = total
    return state


class _Series:
    """Truncated power series in z with oscillator-polynomial coefficients
    (pure multiplication operators); used for the creation side."""

    __slots__ = ("tmax", "coeff")

    def __init__(self, tmax: int):
        self.tmax = tmax
        self.coeff: list[dict[Monomial, Fraction]] = [
            {} for _ in range(tmax + 1)]
        self.coeff[0][()] = _ONE

    def mul_exp(self, order: int, poly: dict[Monomial, Fraction]):
        """Multiply by exp(poly * z^order) in place (order >= 1)."""
        if order > self.tmax or not poly:
            return
        base = [dict(c) for c in self.coeff]
        term = {(): _ONE}
        p = 0
        while True:
            p += 1
            if order * p > self.tmax:
                break
            nxt: dict[Monomial, Fraction] = {}
            for m1, c1 in term.items():
                for m2, c2 in poly.items():
                    m = monomials.mul(m1, m2)
                    nxt[m] = nxt.get(m, _ZERO) + c1 * c2
            term = {m: c / p for m, c in nxt.items()}
            for t in range(0, self.tmax - order * p + 1):
                src = base[t]
                if not src:
                    continue
                tgt = self.coeff[t + order * p]
                for m1, c1 in src.items():
                    for m2, c2 in term.items():
                        m = monomials.mul(m1, m2)
                        tgt[m] = tgt.get(m, _ZERO) + c1 * c2

def _creation_series(L: Lattice, alpha: Sector,
                     factors: list[tuple[str, int]], tmax: int) -> _Series:
    """Gamma^-_alpha(z) * prod of creation parts of the factor fields,
    truncated at z^tmax.

    The creation part of the (v, k) factor field is
    sum_{j >= k} binom(j-1, k-1) v_{(-j)} z^{j-k}.
    """
    ser = _Series(tmax)
    for j in range(1, tmax + 1):
        poly = {((b, j, 1),): Fraction(a, j)
                for b, a in zip(L.basis, alpha) if a}
        ser.mul_exp(j, poly)
    for v, k in factors:
        # this factor's creation series: sum_{t>=0} binom(t+k-1, k-1)
        # (v, t+k)-multiplication z^t; multiply the running series by it
        base = [dict(c) for c in ser.coeff]
        for t0 in range(tmax + 1):
            ser.coeff[t0] = {}
        for t in range(tmax + 1):
            w = Fraction(comb(t + k - 1, k - 1))
            for t0 in range(0, tmax - t + 1):
                src = base[t0]
                if not src:
                    continue
                tgt = ser.coeff[t0 + t]
                for m1, c1 in src.items():
                    m = monomials.mul(m1, ((v, t + k, 1),))
                    tgt[m] = tgt.get(m, _ZERO) + c1 * w
    return ser


def vertex_mode(a: VAState, n: int, b: VAState) -> VAState:
    """Mode a_{(n)} b of the full vertex operator of a; bilinear, exact.

    The field of e^alpha (x) prod (v, k) is the normal-ordered product of
    (1/(k-1)!) d^{k-1} Y(v_1, z) over the factors and Y(e^alpha, z); the
    mode is the z^{-n-1} coefficient.
    """
    if a.lattice != b.lattice:
        raise ValueError("states live over different lattices")
    L = a.lattice
    out: dict[tuple[Sector, Monomial], Fraction] = {}
    for (alpha, amono), ac in a.terms.items():
        factors: list[tuple[str, int]] = []
        for v, k, p in amono:
            factors.extend([(v, k)] * p)
        for key, c in _vertex_mode_impl(L, alpha, tuple(factors), n, b).terms.items():
            add_into(out, key, ac * c)
    return VAState(L, out)


def _vertex_mode_impl(L: Lattice, alpha: Sector,
                      factors: tuple[tuple[str, int], ...], n: int,
                      b: VAState) -> VAState:
    out: dict[tuple[Sector, Monomial], Fraction] = {}
    alpha_pair = [L.qsym(alpha, bb) for bb in L.basis]

    for (beta, bmono), bc in b.terms.items():
        shift = int(L.qsym(alpha, beta))
        sign = -1 if int(L.q(alpha, beta)) % 2 else 1
        target = tuple(x + y for x, y in zip(alpha, beta))
        for r in range(len(factors) + 1):
            for ann_set in combinations(range(len(factors)), r):
                ann = [factors[i] for i in ann_set]
                cre = [factors[i] for i in range(len(factors))
                       if i not in ann_set]
                # annihilation phase: + parts of chosen factors, then
                # Gamma^+; all act on sector beta
                zstate: dict[int, dict[Monomial, Fraction]] = {
                    0: {bmono: bc}}
                for v, k in ann:
                    vsign = -1 if (k - 1) % 2 else 1
                    vpair = [L.qsym(v, bb) for bb in L.basis]
                    beta_pair = L.qsym(v, beta)
                    nxt: dict[int, dict[Monomial, Fraction]] = {}
                    for z, polys in zstate.items():
                        for mono, c in polys.items():
                            # j = 0: zero mode on the source sector
                            add_into(nxt.setdefault(z - k, {}), mono, c * vsign * beta_pair)
                            # j >= 1: annihilation
                            for pos, (bb, j, p) in enumerate(mono):
                                w = vpair[L.index(bb)]
                                if not w:
                                    continue
                                add_into(nxt.setdefault(z - j - k, {}), drop_factor(mono, pos),
                                         c * vsign * comb(j + k - 1, k - 1) * w * j * p)
                    zstate = {z: polys for z, polys in nxt.items() if polys}
                    if not zstate:
                        break
                if not zstate:
                    continue
                zstate = _apply_gamma_plus(L, alpha_pair, zstate)
                # creation phase: need z^(-n-1); an entry at relative power
                # z0 (plus the z^shift prefactor) needs creation order
                # t = -n-1-shift-z0 >= 0
                tneeds = {}
                for z0, polys in zstate.items():
                    t = -n - 1 - shift - z0
                    if t >= 0 and polys:
                        tneeds[z0] = t
                if not tneeds:
                    continue
                ser = _creation_series(L, alpha, cre, max(tneeds.values()))
                for z0, t in tneeds.items():
                    cremono = ser.coeff[t]
                    if not cremono:
                        continue
                    for mono, c in zstate[z0].items():
                        for cm, cc in cremono.items():
                            add_into(out, (target, monomials.mul(mono, cm)), sign * c * cc)
    return VAState(L, out)


def max_nonzero_mode(a: VAState, b: VAState) -> int:
    """An int n_max with a_{(n)} b = 0 for every n > n_max.

    Bookkeeping bound: the z-power of any contribution is the sector shift
    Q_sym(alpha, beta), minus at most (depth of a's factors) + (depth of b)
    from the annihilation phase, plus a nonnegative creation order, so
    modes above -1 - shift + depth(a) + depth(b) have no terms.  The shift
    is read off the cached integer row Q_sym(beta, .).  Used to truncate
    the infinite sums in the skew-symmetry and iterate identities.
    """
    if a.is_zero() or b.is_zero():
        return -1
    L = a.lattice
    hi = None
    for (alpha, amono), _ in a.terms.items():
        ka = monomials.degree(amono)
        for (beta, bmono), _ in b.terms.items():
            shift = sum(x * w for x, w in zip(alpha, L.pair_row(beta)))
            n_hi = -1 - shift + ka + monomials.degree(bmono)
            hi = n_hi if hi is None else max(hi, n_hi)
    return hi


# ---------------------------------------------------------------------------
# conformal structure

def conformal_element(L: Lattice) -> VAState:
    """omega = (1/2) sum_b bhat_{(-1)} b_{(-1)} |0>, bhat dual wrt Q_sym.

    It equals L_{-2}|0> of the closed-form virasoro_mode; both routes are
    computed, and RuntimeError is raised if they disagree.  Errors when the
    symmetrized form is degenerate.
    """
    omega: dict[tuple[Sector, Monomial], Fraction] = {}
    for b, bhat in zip(L.basis, L.dual_basis()):
        for key, c in heisenberg_mode(bhat, -1, heisenberg_mode(b, -1, vacuum(L))).terms.items():
            add_into(omega, key, c / 2)
    omega_state = VAState(L, omega)
    if omega_state != virasoro_mode(-2, vacuum(L)):
        raise RuntimeError("conformal element routes disagree")
    return omega_state


def virasoro_mode(k: int, s: VAState, L: Lattice | None = None) -> VAState:
    """L_k s by the free-boson (Sugawara) closed form of (1/2) sum_v
    :vhat(z) v(z):, one term e^alpha (x) m at a time.  With G = Q_sym^{-1}:
      L_k = 1/2 sum_{i+j=-k; i,j>=1} sum_{a,b} G[a][b] x[a,i] x[b,j]   (k <= -2)
          + sum_b alpha_b x[b,-k]                                     (k <= -1)
          + sum_{factors x[b,j] of m, j-k >= 1} j x[b,j-k] d/dx[b,j]
          + q(alpha, alpha)                                           (k = 0)
          + k sum_b Q_sym(alpha,b) d/dx[b,k]
            + 1/2 sum_{i+j=k; i,j>=1} i j sum_{b,c} Q_sym(b,c)
              d/dx[b,i] d/dx[c,j]                                     (k >= 1)
    Agrees with vertex_mode(omega, k+1, s) (cross-checked in tests).
    """
    if L is None:
        L = s.lattice
    elif L != s.lattice:
        raise ValueError("lattice mismatch")
    duals = L._duals
    basis, qsym = L.basis, L._qsym
    half = Fraction(1, 2)
    out: dict[tuple[Sector, Monomial], Fraction] = {}
    # the creation pair multiplies every term by the same polynomial
    create: dict[Monomial, Fraction] = {}
    for i in range(1, -k):
        for b, dual in zip(basis, duals):
            for a, g in zip(basis, dual):
                m = monomials.mul(((a, i, 1),), ((b, -k - i, 1),))
                add_into(create, m, half * g)
    for (sec, mono), c in s.terms.items():
        for m, g in create.items():
            add_into(out, (sec, monomials.mul(mono, m)), c * g)
        if k <= -1:
            for b, a in zip(basis, sec):
                if a:
                    add_into(out, (sec, monomials.mul(mono, ((b, -k, 1),))), c * a)
        for pos, (b, j, p) in enumerate(mono):
            if j - k >= 1:
                add_into(out, (sec, monomials.mul(drop_factor(mono, pos), ((b, j - k, 1),))),
                         c * j * p)
        if k < 0:
            continue
        row = L.pair_row(sec)
        if k == 0:
            add_into(out, (sec, mono), c * half * sum(a * w for a, w in zip(sec, row)))
            continue
        for pos, (b, i, p) in enumerate(mono):
            if i == k:
                add_into(out, (sec, drop_factor(mono, pos)), c * k * p * row[L.index(b)])
            elif i < k:
                rest = drop_factor(mono, pos)
                qrow = qsym[L.index(b)]
                for pos2, (b2, j, p2) in enumerate(rest):
                    if i + j == k:
                        add_into(out, (sec, drop_factor(rest, pos2)),
                                 c * half * i * j * p * p2 * qrow[L.index(b2)])
    return VAState(L, out)


def central_charge(L: Lattice) -> int:
    return L.rank


# ---------------------------------------------------------------------------
# the vertex-algebra identities, each as a defect that vanishes exactly

def heisenberg_defect(x, y, n: int, m: int, s: VAState) -> VAState:
    """[x_(n), y_(m)] s - delta_{n+m,0} n Q_sym(x, y) s."""
    lhs = heisenberg_mode(x, n, heisenberg_mode(y, m, s)) - heisenberg_mode(
        y, m, heisenberg_mode(x, n, s)
    )
    if n + m == 0 and n != 0:
        return lhs - (Fraction(n) * s.lattice.qsym(x, y)) * s
    return lhs


def skew_defect(a: VAState, b: VAState, n: int) -> VAState:
    """a_(n) b - sum_i (-1)^{i+n+1} T^i/i! (b_(n+i) a), summed up to the
    last mode max_nonzero_mode(b, a) that can be nonzero."""
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
    return lhs - rhs


def _binom_gen(m: int, i: int) -> Fraction:
    """binom(m, i) for any integer m (negative m included)."""
    out = Fraction(1)
    for j in range(i):
        out *= Fraction(m - j, j + 1)
    return out


def iterate_defect(a: VAState, a2: VAState, b: VAState, m: int, n: int) -> VAState:
    """[a_(m), a2_(n)] b - sum_j binom(m, j) (a_(j) a2)_(m+n-j) b: the
    commutator formula (the Borcherds identity at one index)."""
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
    return lhs - rhs


def virasoro_defect(n: int, m: int, s: VAState) -> VAState:
    """[L_n, L_m] s - (n - m) L_{n+m} s - delta_{n+m,0} c (n^3 - n)/12 s,
    with c the central charge of the lattice."""
    lhs = virasoro_mode(n, virasoro_mode(m, s)) - virasoro_mode(m, virasoro_mode(n, s))
    rhs = (Fraction(n - m)) * virasoro_mode(n + m, s)
    if n + m == 0:
        rhs = rhs + Fraction((n**3 - n) * central_charge(s.lattice), 12) * s
    return lhs - rhs


# ---------------------------------------------------------------------------
# pairing against the descendent algebra

def pairing(tau_poly: DescPoly, s: VAState, ctx: VirContext) -> Fraction:
    """<tau, s>: cap each tau_k(v) as (1/(k-1)!) d/dv_{-k}, take the
    constant term.  The state must be homogeneous in sector, and the sector
    must agree with the context dims on the context's vertices (and vanish
    on basis directions outside the context)."""
    L = s.lattice
    if s.is_zero():
        return _ZERO
    sec = s.sector()
    ctx_names = set(ctx.quiver.vertices)
    if not ctx_names <= set(L.basis):
        raise ValueError("context quiver is not embedded in the lattice")
    for b, val in zip(L.basis, sec):
        want = ctx.dim_of(b) if b in ctx_names else 0
        if val != want:
            raise ValueError(f"sector/context mismatch at {b}: {val} != {want}")
    bad = tau_poly.vertices() - ctx_names
    if bad:
        raise ValueError(f"polynomial vertices {sorted(bad)} not in context")
    total = _ZERO
    for tmono, tc in tau_poly.terms.items():
        # the cap of prod tau_k(v)^q is nonzero only against exactly the
        # monomial prod (v,k)^q; value = prod q! / prod ((k-1)!)^q
        want: Monomial = tuple(tmono)
        for (sec2, smono), sc in s.terms.items():
            if smono != want:
                continue
            val = tc * sc
            for v, k, p in want:
                val *= factorial(p)
                val /= Fraction(factorial(k - 1)) ** p
            total += val
    return total


def dual_pairing_sides(k: int, tau_poly: DescPoly, s: VAState, L: Lattice,
                       ctx: VirContext | None = None):
    """The two sides of the adjointness relation
    <L_k tau, s> = <tau, (L_k + delta_{k,0}) s>, returned as a pair.  The
    delta term is present exactly when the descendent context has frozen
    vertices (for the embedded unframed restriction both deltas drop).
    k >= -1."""
    if ctx is None:
        if L.quiver is None:
            raise ValueError("need a context (lattice has no source quiver)")
        ctx = VirContext(L.quiver, s.sector())
    lhs = pairing(apply_L(k, tau_poly, ctx), s, ctx)
    rhs_state = virasoro_mode(k, s, L)
    if k == 0 and ctx.quiver.frozen:
        rhs_state = rhs_state + s
    rhs = pairing(tau_poly, rhs_state, ctx)
    return lhs, rhs


def duality_defect(k: int, tau_poly: DescPoly, s: VAState, ctx: VirContext) -> Fraction:
    """lhs - rhs of ``dual_pairing_sides`` on the lattice of s: zero exactly
    when the adjointness relation holds (the ``duality`` suite's identity)."""
    lhs, rhs = dual_pairing_sides(k, tau_poly, s, s.lattice, ctx)
    return lhs - rhs


# ---------------------------------------------------------------------------
# the K_0 residual and the bracket

def k0_residual(s: VAState) -> VAState:
    """sum_{j >= -1} ((-1)^j/(j+1)!) T^{j+1} L_j(s); truncates at the
    oscillator degree of s.  Vanishing characterizes the K_0 space; the
    same element equals vertex_mode(s, 0, omega) (cross-checked)."""
    out: dict[tuple[Sector, Monomial], Fraction] = {}
    for j in range(-1, s.osc_degree() + 1):
        term = virasoro_mode(j, s)
        if term.is_zero():
            continue
        for _ in range(j + 1):
            term = translate(term)
        scale = Fraction(-1 if j % 2 else 1, factorial(j + 1))
        for key, c in term.terms.items():
            add_into(out, key, scale * c)
    return VAState(s.lattice, out)


def bracket_residual(a: VAState, b: VAState) -> VAState:
    """k0_residual(a_(0) b): zero when the bracket of a and b is residual-free."""
    return k0_residual(vertex_mode(a, 0, b))


def osc_monomials(L: Lattice, degree: int) -> list[Monomial]:
    """Every oscillator monomial of total degree ``degree``, sorted."""
    return monomials.of_degree(L.basis, degree, degree)
