"""Exhaustive enumeration of du Val baskets and weighted K3 hypersurfaces.

Hypersurface families are enumerated over normalized weight quadruples with
the canonical-triviality constraint d = a0+a1+a2+a3; a candidate must have
all four vertices linked, then be well-formed, and then gets its basket.
One serial loop takes the weights from the vertex linking conditions: a3
from the few values that link P_3, a2 from the few that can link P_2 (at
most eleven closed-form values up to a0+a1, and four above it), a1 from the
34 ratios a1/a0 that can link P_1, and a0 <= 7, so the candidate set is
finite.  It skips a triple whose three weights share a factor and emits
families in canonical order.  It runs once per process, and every weight
bound filters its list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .ade import (
    ADE_TYPES, EXCEPTIONAL_CURVE_BOUND, ADEType, Basket, BoundViolation, _require_ints, sigma_k3,
)
from .catalog import CatalogRow
from .wps import HypersurfaceFamily, Weights, _vertices_linked, basket, well_formed

DEFAULT_MAX_WEIGHT = 40
STABILIZE_STEP = 10

# the ratios a1/a0 = n/m that can link P_1, ascending; the proof is in
# `enumerate_k3_hypersurfaces`
_RATIOS = (
    (1, 1), (13, 12), (12, 11), (21, 19), (9, 8), (8, 7), (7, 6), (13, 11), (6, 5),
    (11, 9), (5, 4), (9, 7), (4, 3), (15, 11), (7, 5), (3, 2), (11, 7), (8, 5),
    (5, 3), (12, 7), (7, 4), (9, 5), (21, 11), (2, 1), (15, 7), (11, 5), (9, 4),
    (7, 3), (5, 2), (8, 3), (3, 1), (4, 1), (5, 1), (6, 1),
)
_MAX_A0 = 7  # the largest a0 of a linked, well-formed quadruple; proof below


def enumerate_baskets(max_total_d: int) -> list[tuple[Basket, int]]:
    """All du Val baskets with at most max_total_d exceptional curves.

    Multisets are emitted in canonical (lexicographic) order together with
    their K3 signatures.
    """
    _require_ints("max_total_d", max_total_d)
    if max_total_d < 0:
        raise ValueError(f"max_total_d must be >= 0, got {max_total_d}")
    if max_total_d > EXCEPTIONAL_CURVE_BOUND:
        raise BoundViolation(
            f"K3 baskets carry at most {EXCEPTIONAL_CURVE_BOUND} curves"
        )
    types = [t for t in ADE_TYPES if t.rank <= max_total_d]
    out: list[tuple[Basket, int]] = []

    def extend(start: int, chosen: list[ADEType], left: int) -> None:
        b = Basket(tuple(chosen))
        out.append((b, sigma_k3(b)))
        for i in range(start, len(types)):
            if types[i].components <= left:
                chosen.append(types[i])
                extend(i, chosen, left - types[i].components)
                chosen.pop()

    extend(0, [], max_total_d)
    return out


@dataclass(frozen=True)
class K3Family:
    """An enumerated hypersurface family with its basket and signature."""

    family: HypersurfaceFamily
    basket: Basket
    sigma: int

    def to_row(self) -> CatalogRow:
        f = self.family
        return CatalogRow(str(f), f.weights.a, (f.degree,), self.basket, self.sigma)


def _largest_weights(a0: int, a1: int, a2: int) -> list[int]:
    """The a3 >= a2 that can pass the vertex linking test.

    The linking condition at P_3 needs a3 | d or a3 | d - a_j for some
    j < 3 (`quasismooth`'s `d in a` shortcut never fires, since
    d = a0+a1+a2+a3 exceeds every weight).  So a3 divides one of
    n in {s, a1+a2, a0+a2, a0+a1}, s = a0+a1+a2; as n <= 3*a2 <= 3*a3,
    a3 = n/k for some k in {1, 2, 3}, and n/k >= a2 leaves few cases:

    * k = 1: s, a1+a2 and a0+a2 always; a0+a1 iff a0+a1 >= a2;
    * k = 2: s/2 iff a0+a1 >= a2; (a1+a2)/2 only as a2, iff a1 = a2;
      (a0+a2)/2 and (a0+a1)/2 only as a2, iff a0 = a1 = a2;
    * k = 3: only s/3 = a2, iff a0 = a1 = a2.

    Every other a3 fails `quasismooth`, so skipping it changes no result,
    and every candidate satisfies the condition at P_3.  They come out
    ascending as a2 <= s/2 <= a0+a1 <= a0+a2 <= a1+a2 <= s (a2 only when
    a1 = a2, s/2 only when s is even, and the first three only when
    a0+a1 >= a2), with equal neighbours dropped.
    """
    s = a0 + a1 + a2
    low = (
        (a2 if a1 == a2 else 0, 0 if s % 2 else s // 2, a0 + a1)
        if a0 + a1 >= a2 else ()
    )
    found: list[int] = []
    for n in (*low, a0 + a2, a1 + a2, s):
        if n and (not found or n > found[-1]):
            found.append(n)
    return found


def _middle_weights(a0: int, a1: int) -> list[int]:
    """The a2 >= a1 that can link P_2, ascending; the proof is in
    `enumerate_k3_hypersurfaces`."""
    p = a0 + a1
    found = [a1, p, 2 * a0, 2 * a0 + a1, a0 + 2 * a1, 2 * a1, 2 * p]
    if p % 2 == 0:
        found.append((3 * a0 + a1) // 2)
    if p % 3 == 0:
        found.append(2 * p // 3)
    if p % 4 == 0:
        found.append(3 * p // 4)
    if p % 5 == 0:
        found.append(3 * p // 5)
    if a0 % 2 == 0:
        found.append(a1 + a0 // 2)
    if a0 % 3 == 0:
        found.append(a1 + a0 // 3)
    if a1 % 2 == 0:
        found.append(a0 + a1 // 2)
    if a1 % 3 == 0:
        found.append(a0 + a1 // 3)
    return sorted({n for n in found if n >= a1})


def enumerate_k3_hypersurfaces(max_weight: int) -> list[K3Family]:
    """All weighted K3 hypersurface families with weights <= max_weight.

    Weight quadruples are normalized ascending, so each family appears
    once up to permutation.  Results are sorted by weights.

    The vertex linking conditions choose the weights.  `_largest_weights`
    gives a3, which settles P_3, and `_middle_weights` gives a2: with
    p = a0+a1 and s = p+a2, P_2 needs a2 to divide d, d - a0, d - a1 or
    d - a3 = s.  Mod a2, s = p and d = p+a3, so each candidate a3 leaves
    these residues:

    * a3 = a2 (only if a1 = a2): d - a0 = 3*a2, always linked;
    * a3 = p or s: 2p, a0+2a1, 2a0+a1, p;
    * a3 = a0+a2: 2a0+a1, 2a0, p;
    * a3 = a1+a2: a0+2a1, 2a1, p;
    * a3 = s/2: 2d = 3s, so a2 | d, d - a0 or d - a1 forces a2 | 3p,
      a0+3a1 or 3a0+a1.

    If a2 <= p, then a2 = n/k for one of these nine n, with
    n/p <= k <= n/a1 <= 2n/p as a1 >= p/2.  Where integral, those k give
    p, 2p/3, 3p/4, 3p/5, 2a1/2 = a1, 2a0, (a0+2a1)/2, (a0+3a1)/3,
    (2a0+a1)/2, (3a0+a1)/2 and (3a0+a1)/3, besides repeats of p, and of a1
    when a0 = a1; a2 is one of them in [a1, p].  If a2 > p, only a0+a2,
    a1+a2 and s remain for a3, and every residue is strictly between 0 and
    2*a2, so a2 equals one of 2a0+a1, a0+2a1, 2a1, 2p (a0+a1 and 2a0 are
    below a2).  Every other a2 fails `quasismooth`, so skipping it changes
    no result.  A triple with gcd(a0, a1, a2) > 1 is skipped too: every
    quadruple on it fails `well_formed`.  The rest go through
    `_vertices_linked`, then `well_formed`, then `basket`.

    a1 comes from `_RATIOS`.  Every a2 above is a*a0 + b*a1 with rational
    a, b >= 0 (15 forms), and every a3 is one of 6 forms in a0, a1, a2.  P_1
    needs a1 | R for some R in {d, d - a0, d - a2, s}; write R = A*a0 + B*a1
    and t = a1/a0 >= 1.  Then a1 | R iff A/t + B is an integer k, that is,
    iff t = A/(k - B).  A = 0 only for R = d - a0 with a2 in {a1, 2a1} and
    a3 in {a2, a1+a2}; then a1 divides a1, a2 and a3, so the quadruple is
    well-formed only if a1 = 1, t = 1.  Keeping the t >= 1 at which the
    forms are valid (a2 >= a1; a3 = s/2 or p only if p >= a2; a3 = a2 only
    if a1 = a2; a3 >= a2) leaves the 34 ratios of `_RATIOS`; any other a1
    fails P_1 or `well_formed`.  Every ratio is <= 6, so a1 <= 6*a0.

    a0 <= `_MAX_A0`: every candidate is a0*(1, t, u, v) for one of 34*15*6
    = 3,060 shapes (t = a1/a0, u = a2/a0, v = a3/a0 from the forms above),
    none depending on a0 or W.  With D the least common denominator of t, u
    and v, the weights are integers iff D | a0, and their gcd is then a0/D,
    so a well-formed quadruple has a0 = D.  The shapes linked at all four
    vertices give the 95 families (tests/test_search.py), with a0 in {1, 2,
    3, 4, 5, 7}, a3 <= 33, all quasismooth.  So the candidate set is finite
    (a0 <= 7, a1 <= 6*a0, a2 <= 2*(a0+a1), a3 <= s): it is swept once per
    process, and W keeps the families with a3 <= W in order.
    """
    _require_ints("max_weight", max_weight)
    if max_weight < 1:
        raise ValueError(f"max_weight must be >= 1, got {max_weight}")
    return [f for f in _k3_families() if f.family.weights.a[3] <= max_weight]


@lru_cache(maxsize=1)
def _k3_families() -> tuple[K3Family, ...]:
    """Every weighted K3 hypersurface family, by the rules above."""
    families: list[K3Family] = []
    for a0 in range(1, _MAX_A0 + 1):
        for n, m in _RATIOS:
            if a0 % m:
                continue
            a1 = a0 // m * n
            g = gcd(a0, a1)
            for a2 in _middle_weights(a0, a1):
                if g > 1 and gcd(g, a2) > 1:
                    continue  # (a0, a1, a2) share a factor: not well-formed
                s = a0 + a1 + a2
                for a3 in _largest_weights(a0, a1, a2):
                    if not _vertices_linked((a0, a1, a2, a3), s + a3):
                        continue
                    w = Weights((a0, a1, a2, a3))
                    if not well_formed(w):
                        continue
                    f = HypersurfaceFamily.k3(w)
                    b = basket(f)
                    families.append(K3Family(f, b, sigma_k3(b)))
    return tuple(families)


def find_signature(target: int, max_weight: int) -> list[K3Family]:
    """Families whose general member realizes the target signature."""
    _require_ints("target", target)
    return [f for f in enumerate_k3_hypersurfaces(max_weight) if f.sigma == target]


def stabilized_enumeration(
    start: int = DEFAULT_MAX_WEIGHT, step: int = STABILIZE_STEP
) -> tuple[list[K3Family], int]:
    """Raise the weight bound until the family count stops changing.

    The bound is increased in steps of `step` >= 1 from `start` until two
    consecutive raises leave the count unchanged; returns the final
    families and bound.  Each stability check filters the once-per-process
    family list at the bound W: the families at W hold exactly those of
    every W' <= W with a3 <= W', so the counts at W - step and W - 2*step
    both equal its own iff every family at W has a3 <= W - 2*step.
    """
    _require_ints("start and step", start, step)
    if start < 1 or step < 1:
        raise ValueError(f"need start >= 1 and step >= 1, got {start}, {step}")
    bound = start + 2 * step
    while True:
        families = enumerate_k3_hypersurfaces(bound)
        if all(fam.family.weights.a[3] <= bound - 2 * step for fam in families):
            return families, bound
        bound += step
