"""Quivers with frozen vertices and quadratic relation counts.

A quiver here is a finite directed multigraph with

* an ordered tuple of named vertices, some of which may be *frozen*
  (framing nodes whose spaces are fixed and carry no gauge symmetry),
* a multiset of edges, stored as (tail, head) pairs with repetition,
* a multiset of relation generators, also stored as (tail, head) pairs;
  only the endpoint counts matter for everything in this package.

The central invariant attached to a quiver is its Todd matrix

    td(Q) = diag(1 at unfrozen vertices) - A + S

where A[v][w] counts edges v -> w and S[v][w] counts relation generators
v -> w (matrix rows/columns in vertex declaration order).  The Euler
pairing is chi(c, d) = <c, td(Q) . d>.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

INFINITY = "∞"  # the reserved framing vertex name

IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Quiver:
    """Immutable quiver; vertex order is declaration order everywhere."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...] = ()
    relations: tuple[tuple[str, str], ...] = ()
    frozen: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        seen = set()
        for v in self.vertices:
            if not v or any(ch.isspace() for ch in v) or "#" in v:
                raise ValueError(f"bad vertex name {v!r}")
            if v in seen:
                raise ValueError(f"duplicate vertex {v!r}")
            seen.add(v)
        for t, h in self.edges:
            if t not in seen or h not in seen:
                raise ValueError(f"edge {t}->{h} uses undeclared vertex")
        for t, h in self.relations:
            if t not in seen or h not in seen:
                raise ValueError(f"relation {t}->{h} uses undeclared vertex")
            if t in self.frozen:
                raise ValueError(f"relation {t}->{h} has a frozen tail")
        if not self.frozen <= seen:
            raise ValueError("frozen set contains undeclared vertices")

    @property
    def unfrozen(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if v not in self.frozen)

    def index(self, v: str) -> int:
        return self.vertices.index(v)


def coords(q: Quiver, d) -> tuple[int, ...]:
    """Normalize a dim-vector-like object to a tuple in vertex order.

    Accepts a mapping {vertex: value} (missing vertices default to 0) or a
    sequence already in declaration order.  Values are returned as-is, so
    rational framings/weights pass through unchanged.
    """
    if isinstance(d, Mapping):
        unknown = set(d) - set(q.vertices)
        if unknown:
            raise ValueError(f"unknown vertices in vector: {sorted(unknown)}")
        return tuple(d.get(v, 0) for v in q.vertices)
    d = tuple(d)
    if len(d) != len(q.vertices):
        raise ValueError(f"vector has {len(d)} entries, quiver has "
                         f"{len(q.vertices)} vertices")
    return d


def adjacency_and_relation_matrices(q: Quiver) -> tuple[IntMatrix, IntMatrix]:
    """(A, S): edge and relation endpoint counts, A[v][w] = #(v -> w)."""
    n = len(q.vertices)
    idx = {v: i for i, v in enumerate(q.vertices)}
    a = [[0] * n for _ in range(n)]
    s = [[0] * n for _ in range(n)]
    for t, h in q.edges:
        a[idx[t]][idx[h]] += 1
    for t, h in q.relations:
        s[idx[t]][idx[h]] += 1
    return tuple(map(tuple, a)), tuple(map(tuple, s))


def todd_matrix(q: Quiver) -> IntMatrix:
    """td(Q) = diag(unfrozen indicator) - A + S, in vertex order.

    >>> q = Quiver(("1", "2"), (("1", "2"),))
    >>> todd_matrix(q)
    ((1, -1), (0, 1))
    """
    a, s = adjacency_and_relation_matrices(q)
    n = len(q.vertices)
    return tuple(
        tuple((1 if i == j and q.vertices[i] not in q.frozen else 0)
              - a[i][j] + s[i][j] for j in range(n))
        for i in range(n))


def euler_form(q: Quiver, c, d):
    """chi(c, d) = sum_{v unfrozen} c_v d_v - sum_e c_t(e) d_h(e)
    + sum_r c_t(r) d_h(r) = <c, td(Q) d>.

    >>> q = Quiver(("1", "2"), (("1", "2"),))
    >>> euler_form(q, {"1": 1, "2": 2}, {"1": 3, "2": 4})
    7
    """
    cc, dd = coords(q, c), coords(q, d)
    td = todd_matrix(q)
    return sum(cc[i] * td[i][j] * dd[j]
               for i in range(len(cc)) for j in range(len(dd)))


def frame_at_infinity(q: Quiver, n) -> Quiver:
    """Attach a frozen vertex named ``∞`` with n_v edges ``∞ -> v``.

    Preconditions: q has no frozen vertices yet and the framing vector n is
    not identically zero.
    """
    if q.frozen:
        raise ValueError("frame_at_infinity requires an unframed quiver")
    if INFINITY in q.vertices:
        raise ValueError(f"vertex name {INFINITY!r} is reserved")
    nn = coords(q, n)
    if all(x == 0 for x in nn):
        raise ValueError("framing vector must be nonzero")
    if any(x < 0 for x in nn):
        raise ValueError("framing multiplicities must be nonnegative")
    inf_edges = []
    for v, mult in zip(q.vertices, nn):
        inf_edges.extend([(INFINITY, v)] * mult)
    return Quiver((INFINITY,) + q.vertices,
                  tuple(inf_edges) + q.edges,
                  q.relations,
                  frozenset({INFINITY}))


def framify(q: Quiver) -> Quiver:
    """The framed double: a frozen copy ``(v)`` plus one edge ``(v) -> v``
    for each vertex.  Its symmetrized Todd pairing is always nondegenerate.

    >>> fr = framify(Quiver(("1",)))
    >>> fr.vertices
    ('(1)', '1')
    >>> todd_matrix(fr)
    ((0, -1), (0, 1))
    """
    if q.frozen:
        raise ValueError("framify requires an unframed quiver")
    copies = tuple(f"({v})" for v in q.vertices)
    clash = set(copies) & set(q.vertices)
    if clash:
        raise ValueError(f"vertex names {sorted(clash)} are reserved")
    copy_edges = tuple((f"({v})", v) for v in q.vertices)
    return Quiver(copies + q.vertices,
                  copy_edges + q.edges,
                  q.relations,
                  frozenset(copies))


# ---------------------------------------------------------------------------
# text format

_COUNT_RE = re.compile(r"^x(\d+)$")


def parse_quiver(text: str):
    """Parse the line-oriented quiver format.

    Directives: ``vertex NAME [frozen]``, ``edge TAIL HEAD [xCOUNT]``,
    ``relation TAIL HEAD [xCOUNT]``, ``dim NAME INT``, ``frame NAME INT``.
    ``#`` starts a comment.  Returns (Quiver, dims | None, framing | None).
    """
    vertices: list[str] = []
    frozen: set[str] = set()
    edges: list[tuple[str, str]] = []
    relations: list[tuple[str, str]] = []
    dims: dict[str, int] = {}
    frames: dict[str, int] = {}

    def endpoint_count(parts, what, lineno):
        if len(parts) == 3:
            return parts[1], parts[2], 1
        if len(parts) == 4:
            m = _COUNT_RE.match(parts[3])
            if not m:
                raise ValueError(f"line {lineno}: bad count {parts[3]!r}")
            return parts[1], parts[2], int(m.group(1))
        raise ValueError(f"line {lineno}: {what} takes TAIL HEAD [xCOUNT]")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "vertex":
            if len(parts) == 2:
                vertices.append(parts[1])
            elif len(parts) == 3 and parts[2] == "frozen":
                vertices.append(parts[1])
                frozen.add(parts[1])
            else:
                raise ValueError(f"line {lineno}: vertex NAME [frozen]")
        elif kind == "edge":
            t, h, c = endpoint_count(parts, "edge", lineno)
            edges.extend([(t, h)] * c)
        elif kind == "relation":
            t, h, c = endpoint_count(parts, "relation", lineno)
            relations.extend([(t, h)] * c)
        elif kind == "dim":
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: dim NAME INT")
            dims[parts[1]] = int(parts[2])
        elif kind == "frame":
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: frame NAME INT")
            frames[parts[1]] = int(parts[2])
        else:
            raise ValueError(f"line {lineno}: unknown directive {kind!r}")
    q = Quiver(tuple(vertices), tuple(edges), tuple(relations),
               frozenset(frozen))
    for name in list(dims) + list(frames):
        if name not in q.vertices:
            raise ValueError(f"dim/frame for undeclared vertex {name!r}")
    return q, (dims or None), (frames or None)


def _grouped(pairs: Sequence[tuple[str, str]]):
    order: list[tuple[str, str]] = []
    counts: dict[tuple[str, str], int] = {}
    for p in pairs:
        if p not in counts:
            order.append(p)
            counts[p] = 0
        counts[p] += 1
    return [(t, h, counts[(t, h)]) for t, h in order]


def serialize_quiver(q: Quiver, dims=None, frames=None) -> str:
    """Canonical text form; inverse of parse_quiver on canonical files.

    Repeated edges/relations are aggregated with ``xCOUNT`` in order of
    first occurrence, so serialize(parse(text)) == text whenever text is
    already in this canonical shape.
    """
    lines = []
    for v in q.vertices:
        lines.append(f"vertex {v} frozen" if v in q.frozen else f"vertex {v}")
    for t, h, c in _grouped(q.edges):
        lines.append(f"edge {t} {h}" if c == 1 else f"edge {t} {h} x{c}")
    for t, h, c in _grouped(q.relations):
        lines.append(f"relation {t} {h}" if c == 1 else
                     f"relation {t} {h} x{c}")
    if dims:
        for v in q.vertices:
            if v in dims:
                lines.append(f"dim {v} {dims[v]}")
    if frames:
        for v in q.vertices:
            if v in frames:
                lines.append(f"frame {v} {frames[v]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# presets

def _chain(n: int) -> Quiver:
    verts = tuple(str(i) for i in range(1, n + 1))
    edges = tuple((str(i), str(i + 1)) for i in range(1, n))
    return Quiver(verts, edges)


_PRESETS = {
    "a1": lambda: _chain(1),
    "a2": lambda: _chain(2),
    "a3": lambda: _chain(3),
    "kronecker2": lambda: Quiver(("1", "2"), (("1", "2"), ("1", "2"))),
    # Beilinson quiver of the projective plane: two steps of 3 parallel
    # edges with 3 quadratic relation generators across them.
    "p2": lambda: Quiver(("1", "2", "3"),
                         (("1", "2"),) * 3 + (("2", "3"),) * 3,
                         (("1", "3"),) * 3),
    # quadric surface P1 x P1: two line-bundle legs into the middle, four
    # edges up, and 2+2 relation generators across.
    "p1xp1": lambda: Quiver(("1", "2", "3", "4"),
                            (("1", "3"),) * 2 + (("2", "3"),) * 2
                            + (("3", "4"),) * 4,
                            (("1", "4"),) * 2 + (("2", "4"),) * 2),
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset(name: str) -> Quiver:
    """Look up a built-in quiver by name (punctuation-insensitive)."""
    key = re.sub(r"[\s_\-]", "", name.lower().replace("×", "x"))
    if key not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; have {preset_names()}")
    return _PRESETS[key]()
