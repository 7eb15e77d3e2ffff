"""Dynkin graphs, Cartan matrices, plumbing forms, exact form signatures,
and the signature of a du Val surface with trivial canonical class.

Everything here is integer arithmetic: signatures come from integer Schur
complements (Bareiss), with no fractions and no floating point, so even
degenerate forms get exact inertia.  A du Val surface with trivial
canonical class and q = 0 has signature -16 + sum(d_i) over its basket.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator

# Construction cap for Cartan matrices / standard graphs.  The geometric
# applications live entirely below rank 19, so this is pure headroom.
RANK_CAP = 64

_KINDS = ("A", "D", "E")
_TOKEN_RE = re.compile(r"^(\d*)\s*([ADE])_?(\d+)$")


def _require_ints(what: str, *values: object) -> None:
    """The one not-an-int guard: True, 2.0 and Fraction(2) equal ints, so a
    range test, a dict lookup or a format would take them for one."""
    for value in values:
        if type(value) is not int:
            got, noun = (value, "an int") if len(values) == 1 else (values, "ints")
            raise ValueError(f"{what} must be {noun}, got {got!r}")


def _problem(kind: object, rank: object) -> str | None:
    """Why ``(kind, rank)`` names no ADE type, or None; a non-int rank raises."""
    if not isinstance(kind, str) or kind not in _KINDS:
        return f"unknown Dynkin kind {kind!r}"
    _require_ints("rank", rank)
    if not 1 <= rank <= RANK_CAP:
        return f"rank {rank} outside [1, {RANK_CAP}]"
    if kind == "D" and rank < 4:
        return f"D_{rank} is not simply laced (need rank >= 4)"
    if kind == "E" and rank not in (6, 7, 8):
        return f"E_{rank} does not exist (rank must be 6, 7 or 8)"
    return None


class ADEType:
    """A simply laced Dynkin type; ``rank`` counts its exceptional curves.

    Interned: ``ADEType(kind, rank)`` returns one of the 128 types built at
    import, so ``==`` and ``hash`` are identity; ``<`` and ``<=`` (``>`` and
    ``>=`` by reflection) compare ``key``, the index in (kind, rank) order."""

    __slots__ = ("kind", "rank", "key")

    def __new__(cls, kind: str, rank: int) -> "ADEType":
        t = _TYPES.get((kind, rank)) if isinstance(kind, str) and type(rank) is int else None
        if t is None:
            raise ValueError(_problem(kind, rank))
        return t

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"ADEType is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return ADEType, (self.kind, self.rank)

    def __lt__(self, other: object) -> bool:
        return self.key < other.key if isinstance(other, ADEType) else NotImplemented

    def __le__(self, other: object) -> bool:
        return self.key <= other.key if isinstance(other, ADEType) else NotImplemented

    def __repr__(self) -> str:
        return f"ADEType(kind={self.kind!r}, rank={self.rank!r})"

    @property
    def components(self) -> int:
        """Number of irreducible curves in the minimal resolution."""
        return self.rank

    def __str__(self) -> str:
        return f"{self.kind}_{self.rank}"

    @classmethod
    def parse(cls, token: str) -> "ADEType":
        """Parse a single type token such as ``A_2`` or ``D4``."""
        mult, t = _parse_token(token)
        if mult is not None:
            raise ValueError(f"bad ADE type token {token!r}")
        return t


def _interned(kind: str, rank: int, key: int) -> ADEType:
    t = object.__new__(ADEType)
    for name, value in zip(ADEType.__slots__, (kind, rank, key)):
        object.__setattr__(t, name, value)
    return t


_PAIRS = [(k, r) for k in _KINDS for r in range(1, RANK_CAP + 1) if _problem(k, r) is None]
_TYPES = {pair: _interned(*pair, key) for key, pair in enumerate(_PAIRS)}
ADE_TYPES = tuple(_TYPES.values())  # all 128, in (kind, rank) order
_key_of = ADEType.key.__get__  # raises TypeError on anything but an ADEType


def _parse_token(token: str) -> tuple[int | None, ADEType]:
    """``3A_2`` -> (3, A_2) and ``A_2`` -> (None, A_2)."""
    m = _TOKEN_RE.match(token.strip())
    if not m:
        raise ValueError(f"bad ADE type token {token!r}")
    mult = int(m.group(1)) if m.group(1) else None
    return mult, ADEType(m.group(2), int(m.group(3)))


def repeated(t: ADEType, mult: int) -> list[ADEType]:
    """``mult`` copies of ``t``, refused before any expansion when they
    bring no curve or more than RANK_CAP curves."""
    if not 1 <= mult * t.rank <= RANK_CAP:
        raise ValueError(f"{mult}{t} has {mult * t.rank} curves, outside [1, {RANK_CAP}]")
    return [t] * mult


@dataclass(frozen=True, slots=True)
class Basket:
    """A multiset of du Val singularity types carried by a surface."""

    entries: tuple[ADEType, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(sorted(self.entries, key=_key_of)))

    @property
    def total_d(self) -> int:
        """Total number of exceptional curves, the sum over all entries."""
        return sum(t.rank for t in self.entries)

    def counts(self) -> list[tuple[ADEType, int]]:
        """Entries grouped as (type, multiplicity) in canonical order."""
        return [(t, len(list(run))) for t, run in groupby(self.entries)]

    def tokens(self) -> str:
        """Multiplicity-prefixed tokens, e.g. ``3A_2 A_4``; ``-`` if empty."""
        if not self.entries:
            return "-"
        return " ".join(
            (f"{n}{t}" if n > 1 else str(t)) for t, n in self.counts()
        )

    @classmethod
    def parse(cls, text: str) -> "Basket":
        """Parse multiplicity-prefixed tokens (``4A_1 A_2``); ``-`` is empty."""
        text = text.replace(",", " ").strip()
        if text in ("", "-"):
            return cls()
        entries: list[ADEType] = []
        for token in text.split():
            mult, t = _parse_token(token)
            entries.extend(repeated(t, 1 if mult is None else mult))
        return cls(tuple(entries))

    def __iter__(self) -> Iterator[ADEType]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


# Hodge numbers shared by all smooth K3 surfaces.
K3_H20 = 1
K3_H11 = 20

# The exceptional curves span a negative-definite sublattice of H^{1,1},
# orthogonal to an ample class, so there are at most h^{1,1} - 1 = 19.
EXCEPTIONAL_CURVE_BOUND = K3_H11 - 1


class BoundViolation(ValueError):
    """A basket exceeds the exceptional-curve bound for K3 surfaces."""


def signature_from_hodge(h20: int, h11: int) -> int:
    """Signature of a compact Kähler surface from its Hodge numbers:
    b2+ = 2*h^{2,0} + 1 against b2- = h^{1,1} - 1."""
    return 2 * h20 - h11 + 2


def smooth_k3_signature() -> int:
    """Signature of a smooth K3 surface, derived from its Hodge numbers."""
    return signature_from_hodge(K3_H20, K3_H11)


def _check_curve_bound(curves: int) -> int:
    """Return the exceptional-curve count; raise BoundViolation past 19."""
    if curves > EXCEPTIONAL_CURVE_BOUND:
        raise BoundViolation(
            f"basket has {curves} exceptional curves, bound is {EXCEPTIONAL_CURVE_BOUND}"
        )
    return curves


def sigma_k3(b: Basket, q: int = 0) -> int:
    """Signature of a du Val surface with trivial canonical class.

    For q = 0 (a K3) the crepant resolution contributes -16 and every
    exceptional curve raises the signature by one; for q > 0 the surface
    is nonsingular with signature 0.
    """
    _require_ints("surface irregularity", q)
    if q not in (0, 1, 2):
        raise ValueError(f"surface irregularity must be 0, 1 or 2, got {q!r}")
    if q > 0:
        if b.entries:
            raise ValueError("a trivial-canonical surface with q > 0 is nonsingular")
        return 0
    return smooth_k3_signature() + _check_curve_bound(b.total_d)


@dataclass(frozen=True)
class DynkinGraph:
    """A simple graph with an Euler weight per vertex (default -2).

    Vertices are ``0 .. len(euler_weights)-1``.  ADE dual graphs are trees,
    but arbitrary simple graphs are accepted for general plumbing.
    """

    euler_weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        n = len(self.euler_weights)
        seen = set()
        norm = []
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for {n} vertices")
            e = (min(i, j), max(i, j))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(sorted(norm)))


def standard_dynkin_graph(t: ADEType, euler_weight: int = -2) -> DynkinGraph:
    """The standard tree of the given type, all vertices equally weighted."""
    n = t.rank
    if t.kind == "A":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif t.kind == "D":
        # path 0..n-3 with two extra leaves hanging off vertex n-3
        edges = [(i, i + 1) for i in range(n - 3)]
        edges += [(n - 3, n - 2), (n - 3, n - 1)]
    else:
        # path 0..n-2 with the branch vertex attached at the third node
        edges = [(i, i + 1) for i in range(n - 2)]
        edges.append((2, n - 1))
    return DynkinGraph((euler_weight,) * n, tuple(edges))


@dataclass(frozen=True)
class SymIntForm:
    """A symmetric integer bilinear form, stored as a full square matrix of ints."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.entries)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix is not square")
            _require_ints("matrix entries", *row)
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")
        object.__setattr__(self, "entries", rows)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __neg__(self) -> "SymIntForm":
        return SymIntForm(tuple(tuple(-x for x in row) for row in self.entries))


@dataclass(frozen=True)
class FormSignature:
    """Inertia counts of a symmetric form; ``sigma`` is the Novikov signature."""

    positives: int
    negatives: int
    zeros: int

    @property
    def sigma(self) -> int:
        return self.positives - self.negatives


def cartan_matrix(t: ADEType) -> SymIntForm:
    """The Cartan matrix, 2 on the diagonal and -1 per edge: the negated plumbing form."""
    return -plumbing_form(standard_dynkin_graph(t))


def plumbing_form(g: DynkinGraph) -> SymIntForm:
    """Intersection form of the plumbed 4-manifold: weights on the diagonal,
    +1 across each edge."""
    n = len(g.euler_weights)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = g.euler_weights[i]
    for i, j in g.edges:
        m[i][j] = m[j][i] = 1
    return SymIntForm(tuple(tuple(row) for row in m))


def _split_off(a: list[list[int]], k: int) -> list[int]:
    """Remove row and column k from the lower triangle ``a`` in place and
    return column k without its diagonal entry, indexed like the rows left."""
    v = a.pop(k)
    del v[-1]
    return v + [row.pop(k) for row in a[k:]]


def form_signature(q: SymIntForm) -> FormSignature:
    """Exact inertia of a symmetric integer form by integer Schur complements.

    Bareiss-style elimination: ``a`` is the block not yet split off and
    ``p`` the determinant of ``q`` on the pivots taken so far (1 at the
    start).  Invariant: every entry of ``a`` is ``p`` times the rational
    Schur complement, i.e. a bordered minor of ``q``, so each ``//`` below
    divides exactly (Sylvester's determinant identity) and entries stay
    polynomially sized.  A nonzero diagonal pivot d splits off a square of
    sign d/p; on an all-zero diagonal a nonzero entry e splits off a
    hyperbolic plane (one positive, one negative); a zero block is the
    radical.

    The block is symmetric, so ``a`` keeps its lower triangle: row i holds
    columns 0..i, the diagonal last.  The pivot is the first nonzero diagonal
    entry, else the first nonzero entry below the diagonal in row-major order.
    """
    a = [list(row[:i]) for i, row in enumerate(q.entries, 1)]
    p = 1
    pos = neg = 0
    while a:
        for k, row in enumerate(a):
            d = row[-1]
            if d:
                break
        if d:
            if (d > 0) == (p > 0):
                pos += 1
            else:
                neg += 1
            v = _split_off(a, k)
            a = [[(d * x - vi * vj) // p for x, vj in zip(row, v)] for row, vi in zip(a, v)]
            p = d
            continue
        for s, row in enumerate(a):
            if any(row):
                break
        else:
            break
        for r, e in enumerate(row):
            if e:
                break
        pos += 1
        neg += 1
        w = _split_off(a, s)
        del w[r]  # entry (s, r) = e; row r goes next
        u = _split_off(a, r)
        pp = p * p
        a = [[e * (ui * wj + wi * uj - e * x) // pp for x, uj, wj in zip(row, u, w)]
             for row, ui, wi in zip(a, u, w)]
        p = -e * e // p
    return FormSignature(pos, neg, q.dim - pos - neg)
