"""Singularity baskets of general weighted-projective K3 hypersurfaces.

A general member of degree d in P(a0,a1,a2,a3) that passes the
well-formedness and quasismoothness filters acquires cyclic quotient
singularities from the ambient space only: isolated points at coordinate
vertices and finitely many points along singular coordinate edges.  One
loop over those strata computes the local types and their counts in
closed form, and ``basket`` converts them to a du Val basket.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations, permutations
from math import gcd

from .ade import ADEType, Basket, repeated


class NotDuVal(ValueError):
    """The family is not a K3 surface with canonical singularities."""


class NoLinkingMonomial(ValueError):
    """A vertex has no linking monomial; the input is not quasismooth."""


@dataclass(frozen=True)
class Weights:
    """A normalized (ascending) quadruple of positive weights."""

    a: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.a) != 4:
            raise ValueError("exactly four weights required")
        if set(map(type, self.a)) != {int}:  # not 4.0 or True, as for an ADE rank
            raise ValueError(f"weights must be ints, got {self.a}")
        if any(x < 1 for x in self.a):
            raise ValueError(f"weights must be positive, got {self.a}")
        object.__setattr__(self, "a", tuple(sorted(self.a)))

    def __str__(self) -> str:
        return "P({},{},{},{})".format(*self.a)


@dataclass(frozen=True)
class HypersurfaceFamily:
    """A general hypersurface of the given degree in P(weights)."""

    weights: Weights
    degree: int

    def __post_init__(self) -> None:
        if type(self.degree) is not int:
            raise ValueError(f"degree must be an int, got {self.degree!r}")
        if self.degree < 1:
            raise ValueError(f"degree must be positive, got {self.degree}")

    @property
    def is_canonical_trivial(self) -> bool:
        """K3 degree condition d = a0+a1+a2+a3."""
        return self.degree == sum(self.weights.a)

    @classmethod
    def k3(cls, weights: Weights) -> "HypersurfaceFamily":
        return cls(weights, sum(weights.a))

    def __str__(self) -> str:
        return f"F_{self.degree} ⊂ {self.weights}"


@dataclass(frozen=True)
class CyclicQuotient:
    """An isolated cyclic quotient point of local type 1/r(b1, b2)."""

    r: int
    b: tuple[int, int]

    def __post_init__(self) -> None:
        if self.r < 2:
            raise ValueError(f"quotient order must be >= 2, got {self.r}")
        b = tuple(x % self.r for x in self.b)
        for x in b:
            if gcd(x, self.r) != 1:
                raise ValueError(
                    f"1/{self.r}{b} is not isolated: gcd({x},{self.r}) > 1"
                )
        object.__setattr__(self, "b", b)

    @property
    def is_du_val(self) -> bool:
        return (self.b[0] + self.b[1]) % self.r == 0

    def to_ade(self) -> ADEType:
        """The resolution type A_{r-1}; raises NotDuVal otherwise."""
        if not self.is_du_val:
            raise NotDuVal(f"quotient 1/{self.r}{self.b} is not du Val")
        return ADEType("A", self.r - 1)

    def __str__(self) -> str:
        return f"1/{self.r}({self.b[0]},{self.b[1]})"


def well_formed(w: Weights) -> bool:
    """True iff every three of the four weights are coprime."""
    return all(gcd(*t) == 1 for t in combinations(w.a, 3))


def _reachability(weights: list[int], d: int) -> Callable[[int], bool]:
    """A test for n <= d: is n a nonnegative combination of the weights?

    For each residue class mod m = min(weights) it keeps the least
    reachable degree in the class, if that is <= d; n is reachable iff
    n >= it (Böcker–Lipták 2007, in Dijkstra's form).  Only degrees <= d
    are settled, so time and memory grow with the number of classes that
    a degree <= d reaches (at most m), not with d itself.
    """
    m = min(weights)
    least = {0: 0}
    heap = [0]
    while heap:
        n = heapq.heappop(heap)
        if least[n % m] < n:
            continue  # a smaller degree has settled this class
        for w in weights:
            x = n + w
            if x <= d and x < least.get(x % m, x + 1):
                least[x % m] = x
                heapq.heappush(heap, x)
    return lambda n: n >= 0 and least.get(n % m, n + 1) <= n


def _vertices_linked(a: tuple[int, ...], d: int) -> bool:
    """`quasismooth`'s requirement on every singleton I = {i}.

    P_i is linked iff a_i | d, or a_i | d - a_e for some e with a_e <= d
    (e = i among them only repeats a_i | d).
    """
    for ai in a:
        if d % ai:
            for ae in a:
                if ae <= d and (d - ae) % ai == 0:
                    break
            else:
                return False
    return True


def quasismooth(f: HypersurfaceFamily) -> bool:
    """General-member validity test for the singularity recipe.

    Two requirements on the monomials of degree d:

    * for every nonempty coordinate subset I, either some monomial is
      supported on I alone, or monomials (monomial in I)*x_e exist for at
      least |I| distinct outside variables x_e (so the general member is
      quasismooth along the corresponding stratum);
    * every coordinate edge with non-coprime weights carries a monomial,
      so the general member meets singular edges in finitely many points
      and its singularities stay isolated.

    The singletons I = {i} are the vertex linking conditions
    (`_vertices_linked`), which the K3 sweep tests before any filter.
    """
    a = f.weights.a
    d = f.degree
    if d in a:
        return True  # linear cone: the general member is a coordinate graph
    if not _vertices_linked(a, d):
        return False
    pure = (d % a[0] == 0) | (d % a[1] == 0) << 1 | (d % a[2] == 0) << 2 | (d % a[3] == 0) << 3
    for subset, mask in _SUBSETS:
        if pure & mask:
            continue  # a pure power has degree d
        ws = [a[i] for i in subset]
        reaches = _reachability(ws, d)
        if reaches(d):
            continue
        if len(subset) == 2 and gcd(*ws) > 1:
            return False  # the member contains the singular edge
        linked = sum(
            1 for e in range(4) if e not in subset and reaches(d - a[e])
        )
        if linked < len(subset):
            return False
    return True


# the coordinate subsets with |I| >= 2 that `quasismooth` tests, by size, with their bitmasks
_SUBSETS = [(s, sum(1 << i for i in s)) for k in range(2, 5) for s in combinations(range(4), k)]

# the singular strata a member can meet in points, as index pairs: the 4 vertices (i, i),
# then the 6 edges (well-formedness rules out larger singular strata)
_STRATA = [(i, i) for i in range(4)] + list(combinations(range(4), 2))
# the two coordinates outside each pair of distinct indices, ascending
_REST = {p: tuple(t for t in range(4) if t not in p) for p in permutations(range(4), 2)}


def _monomials(ai: int, aj: int, d: int) -> int:
    """Number of (p, q) >= 0 with p*ai + q*aj = d, in closed form."""
    g = gcd(ai, aj)
    if d % g:
        return 0
    alpha, beta, n = ai // g, aj // g, d // g
    q0 = n * pow(beta, -1, alpha) % alpha  # the least q that solves it mod alpha
    return (n - q0 * beta) // (alpha * beta) + 1 if q0 * beta <= n else 0


def quotient_points(f: HypersurfaceFamily) -> list[tuple[CyclicQuotient, int]]:
    """Cyclic quotient points on the general member, with their counts.

    A stratum whose weights have gcd g > 1 meets the member in points iff
    g divides d exactly when the stratum is an edge (|I| - 1 - |E| = 0 in
    Iano-Fletcher's count).  A vertex P_i carries one point, and its first
    linking coordinate l (g | d - a_l) drops out; an edge carries (number
    of monomials of degree d in its two coordinates) - 1 points.  The two
    coordinates left give the type 1/g(a_j, a_k).
    """
    a = f.weights.a
    d = f.degree
    out: list[tuple[CyclicQuotient, int]] = []
    for i, j in _STRATA:
        g = gcd(a[i], a[j])  # a vertex's own weight, or an edge's gcd
        edge = i != j
        if g == 1 or (d % g == 0) != edge:
            continue
        n = _monomials(a[i], a[j], d) - 1 if edge else 1
        if not edge:
            for j in range(4):  # the vertex's first linking coordinate
                if j != i and (d - a[j]) % g == 0:
                    break
            else:
                raise NoLinkingMonomial(f"vertex {i} of {f}: no l with {g} | d - a_l")
        if n > 0:
            k, m = _REST[i, j]
            try:
                out.append((CyclicQuotient(g, (a[k] % g, a[m] % g)), n))
            except ValueError as exc:
                where = f"edge ({i},{j})" if edge else f"vertex {i}"
                raise NotDuVal(f"{where} of {f}: {exc}") from exc
    return out


def basket(f: HypersurfaceFamily) -> Basket:
    """The du Val basket of the general member.

    Raises NotDuVal if any quotient is not of type A_{r-1}, and ValueError
    if one point type brings more than RANK_CAP curves; for
    canonical-trivial families passing the filters neither can happen.
    """
    return Basket(tuple(
        t for q, n in quotient_points(f) for t in repeated(q.to_ade(), n)
    ))
