"""Independent quasismoothness oracle: brute force over the degree-d monomials.

Kept separate from the production path (the vertex linking test of
``duvalk3.wps`` plus one closed-form monomial count per non-coprime edge,
with no other coordinate subset tested): it tries
every exponent vector of weighted degree d, keeps each monomial's support
and its exponents equal to 1, and applies to that list the two requirements
stated in the ``quasismooth`` docstring,

* for every nonempty coordinate subset I, some monomial is supported on I
  alone, or monomials (monomial in I)*x_e exist for at least |I| distinct
  outside variables x_e;
* every coordinate edge whose weights are not coprime carries a monomial,

together with the linear-cone rule: when d is one of the weights, the
general member is the graph of that coordinate, hence quasismooth.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def monomial_supports(
    a: tuple[int, ...], max_degree: int
) -> list[set[tuple[int, int]]]:
    """For each degree 0..max_degree, its monomials as bitmask pairs
    (support, exponents equal to 1).

    Every exponent of every coordinate is tried in turn; partial monomials
    with the same degree and the same two masks are merged.
    """
    states = {(0, 0, 0)}
    for i, w in enumerate(a):
        bit = 1 << i
        states = {
            (deg + k * w, supp | bit if k else supp, ones | bit if k == 1 else ones)
            for deg, supp, ones in states
            for k in range((max_degree - deg) // w + 1)
        }
    out: list[set[tuple[int, int]]] = [set() for _ in range(max_degree + 1)]
    for deg, supp, ones in states:
        out[deg].add((supp, ones))
    return out


def _stratum_ok(mons: set[tuple[int, int]], s: int, k: int) -> bool:
    """The first requirement for the k coordinates in bitmask s."""
    if any(supp & ~s == 0 for supp, _ in mons):
        return True  # a monomial supported on I alone
    # x_e times a monomial in I: the support leaves I at one e, with
    # exponent 1 there
    linked = set()
    for supp, ones in mons:
        out = supp & ~s
        if out & (out - 1) == 0 and ones & out:
            linked.add(out)
    return len(linked) >= k


def vertices_linked(a: tuple[int, ...], d: int, supports=None) -> bool:
    """The first requirement on every singleton I = {i}."""
    mons = (supports or monomial_supports(a, d))[d]
    return all(_stratum_ok(mons, 1 << i, 1) for i in range(len(a)))


def quasismooth(a: tuple[int, ...], d: int, supports=None) -> bool:
    """The oracle's verdict.  Pass `monomial_supports(a, D)` for any D >= d
    to share one enumeration across degrees."""
    if d in a:
        return True
    n = len(a)
    mons = (supports or monomial_supports(a, d))[d]
    for i, j in combinations(range(n), 2):
        if gcd(a[i], a[j]) > 1 and not any(
            supp & ~(1 << i | 1 << j) == 0 for supp, _ in mons
        ):
            return False
    return all(
        _stratum_ok(mons, sum(1 << i for i in subset), k)
        for k in range(1, n + 1)
        for subset in combinations(range(n), k)
    )
