"""Independent signature oracle: Sturm-sequence sign counting on the
characteristic polynomial.

Kept deliberately separate from the production path (integer Schur
complements, Bareiss): the only shared code is the matrix container.
Polynomials are coefficient lists over Fraction, lowest degree first.
"""

from __future__ import annotations

from fractions import Fraction

from duvalk3.ade import FormSignature, SymIntForm

Poly = list[Fraction]


def _trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def _derivative(p: Poly) -> Poly:
    return _trim([i * c for i, c in enumerate(p)][1:])


def _divmod_poly(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den) and _trim(num):
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        q[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        _trim(num)
    return _trim(q), num


def _gcd_poly(a: Poly, b: Poly) -> Poly:
    a, b = list(a), list(b)
    while _trim(b):
        a, b = b, _divmod_poly(a, b)[1]
    if a:  # normalize to monic so quotients stay exact
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def charpoly(form: SymIntForm) -> Poly:
    """det(x·I - A) by the Faddeev-LeVerrier recursion, exactly."""
    n = form.dim
    a = [[Fraction(x) for x in row] for row in form.entries]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [row[:] for row in a]
    for k in range(1, n + 1):
        if k > 1:
            shifted = [
                [m[i][j] + (coeffs[n - k + 1] if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
            m = [
                [sum(a[i][t] * shifted[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
        coeffs[n - k] = -sum(m[i][i] for i in range(n)) / k
    return _trim(coeffs)


def _square_free_factors(p: Poly) -> list[tuple[Poly, int]]:
    """Decompose p (with p(0) != 0) as a product of square-free factors
    with multiplicities."""
    out = []
    g = _gcd_poly(p, _derivative(p))
    w = _divmod_poly(p, g)[0]
    mult = 1
    while len(w) > 1:
        y = _gcd_poly(w, g)
        factor = _divmod_poly(w, y)[0]
        if len(factor) > 1:
            out.append((factor, mult))
        w = y
        g = _divmod_poly(g, y)[0]
        mult += 1
    return out


def _sturm_chain(p: Poly) -> list[Poly]:
    chain = [list(p), _derivative(p)]
    while len(chain[-1]) > 1 or (chain[-1] and chain[-1][0] != 0):
        rem = _divmod_poly(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return [c for c in chain if c]


def _sign_at_zero(p: Poly) -> int:
    for c in p:  # first nonzero coefficient governs the limit from 0+...
        if c:
            return 1 if c > 0 else -1
    return 0


def _variations(signs: list[int]) -> int:
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_roots(p: Poly) -> tuple[int, int]:
    """(positive, negative) distinct real roots of a square-free p with
    p(0) != 0."""
    chain = _sturm_chain(p)
    at_zero = [_sign_at_zero(q) for q in chain]
    at_plus = [(1 if q[-1] > 0 else -1) for q in chain]
    at_minus = [
        (1 if q[-1] > 0 else -1) * (1 if (len(q) - 1) % 2 == 0 else -1)
        for q in chain
    ]
    pos = _variations(at_zero) - _variations(at_plus)
    neg = _variations(at_minus) - _variations(at_zero)
    return pos, neg


def signature_oracle(form: SymIntForm) -> FormSignature:
    """Eigenvalue sign counts of a symmetric form via Sturm sequences.

    The zero eigenvalue count is the order of vanishing of the
    characteristic polynomial at 0; nonzero counts come from Sturm root
    counting on each square-free factor, weighted by multiplicity.
    """
    p = charpoly(form)
    zeros = next((i for i, c in enumerate(p) if c), len(p) - 1)
    reduced = p[zeros:]
    pos = neg = 0
    for factor, mult in _square_free_factors(reduced):
        fp, fn = _count_roots(factor)
        pos += mult * fp
        neg += mult * fn
    return FormSignature(pos, neg, zeros)


def link_order(form: SymIntForm) -> int:
    """|det| of a nondegenerate form, by Gaussian elimination over Fraction.

    For a plumbing form this is the order of H_1 of the link, the boundary
    of the plumbed 4-manifold.  It shares no code with Bareiss or
    `charpoly`; a singular form raises StopIteration.
    """
    m = [[Fraction(x) for x in row] for row in form.entries]
    det = Fraction(1)
    for c in range(len(m)):
        r = next(r for r in range(c, len(m)) if m[r][c])
        m[c], m[r] = m[r], m[c]
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            factor = m[r][c] / m[c][c]
            for k in range(c, len(m)):
                m[r][k] -= factor * m[c][k]
    return abs(int(det))
