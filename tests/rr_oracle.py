"""Independent basket oracle: orbifold Riemann-Roch for K3 surfaces.

Kept separate from the production path (the linking and edge-monomial
counts of ``duvalk3.wps``): it compares the Hilbert series of a weighted
complete intersection, read off its weights and degrees, with Altınok's
plurigenus formula for a K3 surface carrying the proposed basket,

    (1+t)/(1-t) + A²/2 (t+t²)/(1-t)³
        - Σ_Q 1/(1-t^r) Σ_{0<i<r} (bi mod r)(r - (bi mod r))/(2r) t^i,

where A² = Π d_k / Π a_i and each point Q is 1/r(1,-1) with A = O(b)
locally.  Series are coefficient lists over Fraction, lowest degree first,
truncated after t^n.

``orbifold_euler`` is a second oracle, independent of Riemann-Roch: for a
K3 surface with points of orders r, Σ (r - 1/r) = 24 - e_orb(X).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

Series = list[Fraction]


def _over_1_minus(p: Series, r: int) -> Series:
    """p / (1 - t^r), truncated to the length of p."""
    out = list(p)
    for i in range(r, len(out)):
        out[i] += out[i - r]
    return out


def hilbert_series(weights, degrees, n: int) -> Series:
    """Π(1 - t^d_k) / Π(1 - t^a_i) through t^n."""
    out = [Fraction(i == 0) for i in range(n + 1)]
    for d in degrees:
        out = [c - (out[i - d] if i >= d else 0) for i, c in enumerate(out)]
    for a in weights:
        out = _over_1_minus(out, a)
    return out


def altinok_series(weights, degrees, points, n: int) -> Series:
    """Altınok's K3 plurigenus series through t^n; points are (r, b) pairs."""
    a2 = Fraction(prod(degrees), prod(weights))
    # (1+t)/(1-t) = 1 + Σ 2t^i and (t+t²)/(1-t)³ = Σ i² t^i
    out = [Fraction(2 if i else 1) + a2 / 2 * i * i for i in range(n + 1)]
    for r, b in points:
        inner = [Fraction(0)] * (n + 1)
        for i in range(1, min(r, n + 1)):
            bi = b * i % r
            inner[i] = Fraction(bi * (r - bi), 2 * r)
        out = [x - y for x, y in zip(out, _over_1_minus(inner, r))]
    return out


def orbifold_euler(weights, degrees) -> Fraction:
    """e_orb = Π d_k / Π a_i · [h²] Π(1 + a_i h) / Π(1 + d_k h)."""
    c = [Fraction(1), Fraction(0), Fraction(0)]  # coefficients of 1, h, h²
    for a in weights:
        c = [c[0], c[1] + a * c[0], c[2] + a * c[1]]
    for d in degrees:  # 1 / (1 + d h) = 1 - d h + d² h² + ...
        c = [c[0], c[1] - d * c[0], c[2] - d * c[1] + d * d * c[0]]
    return Fraction(prod(degrees), prod(weights)) * c[2]
