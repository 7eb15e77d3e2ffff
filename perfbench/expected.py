"""Expected answers and seeded inputs, derived without calling duvalk3.

Every value a workload compares against comes from here: the paper's
realization table typed in by hand, an independent enumeration of du Val
baskets, symmetric forms whose inertia is known by construction (Sylvester's
law), and the exact stdout of a few CLI invocations.
"""

from __future__ import annotations

import random
from fractions import Fraction

SMOOTH_K3_SIGMA = -16
CURVE_BOUND = 19
STABILIZED_BOUND = 60
REID_FAMILIES = 95
REID_SIGNATURES = frozenset(range(-16, 3)) - {-12}

# The paper's realization table: name, weights, degrees, basket, sigma.
TABLE = (
    ("F_4 ⊂ P(1,1,1,1)", (1, 1, 1, 1), (4,), "-", -16),
    ("F_5 ⊂ P(1,1,1,2)", (1, 1, 1, 2), (5,), "A_1", -15),
    ("F_8 ⊂ P(1,1,2,4)", (1, 1, 2, 4), (8,), "2A_1", -14),
    ("F_6 ⊂ P(1,1,2,2)", (1, 1, 2, 2), (6,), "3A_1", -13),
    ("F_{4,4} ⊂ P(1,1,2,2,2)", (1, 1, 2, 2, 2), (4, 4), "4A_1", -12),
    ("F_10 ⊂ P(1,2,2,5)", (1, 2, 2, 5), (10,), "5A_1", -11),
    ("F_8 ⊂ P(1,2,2,3)", (1, 2, 2, 3), (8,), "4A_1 A_2", -10),
    ("F_9 ⊂ P(1,2,3,3)", (1, 2, 3, 3), (9,), "A_1 3A_2", -9),
    ("F_16 ⊂ P(1,3,4,8)", (1, 3, 4, 8), (16,), "A_2 2A_3", -8),
    ("F_12 ⊂ P(1,3,4,4)", (1, 3, 4, 4), (12,), "3A_3", -7),
    ("F_12 ⊂ P(2,2,3,5)", (2, 2, 3, 5), (12,), "6A_1 A_4", -6),
    ("F_12 ⊂ P(2,3,3,4)", (2, 3, 3, 4), (12,), "3A_1 4A_2", -5),
    ("F_14 ⊂ P(2,3,4,5)", (2, 3, 4, 5), (14,), "3A_1 A_2 A_3 A_4", -4),
    ("F_15 ⊂ P(2,3,5,5)", (2, 3, 5, 5), (15,), "A_1 3A_4", -3),
    ("F_18 ⊂ P(3,4,5,6)", (3, 4, 5, 6), (18,), "A_1 3A_2 A_3 A_4", -2),
    ("F_19 ⊂ P(3,4,5,7)", (3, 4, 5, 7), (19,), "A_2 A_3 A_4 A_6", -1),
    ("F_24 ⊂ P(3,4,7,10)", (3, 4, 7, 10), (24,), "A_1 A_6 A_9", 0),
    ("F_25 ⊂ P(4,5,7,9)", (4, 5, 7, 9), (25,), "A_3 A_6 A_8", 1),
    ("F_30 ⊂ P(5,6,8,11)", (5, 6, 8, 11), (30,), "A_1 A_7 A_10", 2),
)
HYPERSURFACE_ROWS = frozenset(
    (w, d[0], b, s) for _, w, d, b, s in TABLE if len(d) == 1
)


def verify_fields(weights, degrees, basket, sigma) -> dict[str, str]:
    """The fields `verify_row` must recompute for a table row."""
    if len(degrees) == 1:
        return {"well_formed": "True", "quasismooth": "True",
                "basket": basket, "sigma": str(sigma)}
    return {"sigma": str(sigma)}


def _ade_types() -> list[tuple[str, int]]:
    types = [("A", r) for r in range(1, CURVE_BOUND + 1)]
    types += [("D", r) for r in range(4, CURVE_BOUND + 1)]
    types += [("E", r) for r in (6, 7, 8)]
    return sorted(types)


def du_val_baskets() -> list[tuple[tuple[str, int], ...]]:
    """Every multiset of ADE types with at most 19 curves, as sorted tuples."""
    types = _ade_types()
    out: list[tuple[tuple[str, int], ...]] = []
    stack = [(0, (), CURVE_BOUND)]
    while stack:
        start, chosen, left = stack.pop()
        out.append(chosen)
        for i in range(start, len(types)):
            if types[i][1] <= left:
                stack.append((i, chosen + (types[i],), left - types[i][1]))
    return out


def sigma_of(entries) -> int:
    """Signature of a du Val K3 with the given (kind, rank) entries."""
    return SMOOTH_K3_SIGMA + sum(rank for _, rank in entries)


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """U Q for a unit upper-triangular U with entries in {-1, 0, 1} and a
    signed permutation Q: determinant +-1, and every seed gets matrices of
    similar size and density."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    p = [[0] * n for _ in range(n)]
    for i in range(n):
        for k in range(i, n):
            p[i][perm[k]] = signs[k] * (1 if k == i else rng.choice((-1, 0, 1)))
    return p


def _gram(diag: list[int], p: list[list[int]]) -> list[list[int]]:
    """P^T D P for diagonal D."""
    n = len(p)
    terms = [(d, row) for d, row in zip(diag, p) if d]
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = sum(d * row[i] * row[j] for d, row in terms)
    return m


def random_forms(seed: int, count: int):
    """Seeded symmetric integer matrices with known inertia.

    Two thirds are P^T D P for unimodular P and a diagonal D that may hold
    zeros; the rest are sums of hyperbolic planes and zero rows under a
    signed permutation, whose diagonal stays zero.  The ranks of the first
    kind cycle through 2..20, so the amount of work hardly depends on the
    seed.  Yields (matrix rows, (positives, negatives, zeros)).
    """
    rng = random.Random(seed)
    out = []
    for k in range(count):
        if k % 3 != 2:
            n = 2 + k % 19
            diag = [rng.choice((-3, -2, -1, 0, 1, 2, 3)) for _ in range(n)]
            m = _gram(diag, _unimodular(rng, n))
            inertia = (sum(x > 0 for x in diag), sum(x < 0 for x in diag),
                       diag.count(0))
        else:
            h = rng.randint(1, 10)
            z = rng.randint(0, 20 - 2 * h)
            n = 2 * h + z
            # Q^T H Q for a signed permutation Q: entry (x, y) is s_x s_y H[..]
            perm = list(range(n))
            rng.shuffle(perm)
            signs = [rng.choice((-1, 1)) for _ in range(n)]
            m = [[0] * n for _ in range(n)]
            for b in range(h):
                x, y = perm[2 * b], perm[2 * b + 1]
                m[x][y] = m[y][x] = signs[x] * signs[y]
            inertia = (h, h, z)
        out.append((tuple(tuple(row) for row in m), inertia))
    return out


# ---- CLI stdout --------------------------------------------------------------

def _matrix_lines(rows) -> list[str]:
    return ["  [" + " ".join(f"{x:3d}" for x in row) + "]" for row in rows]


def _e8_plumbing(weight: int) -> list[list[int]]:
    # path 0..6 with the branch vertex 7 attached to vertex 2
    edges = [(i, i + 1) for i in range(6)] + [(2, 7)]
    m = [[weight if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in edges:
        m[i][j] = m[j][i] = 1
    return m


def _bsy_text(q, degree, basket, sigma) -> str:
    if q == 1:
        fiber = f"surface with basket {basket}, q(F)=0"
        c = Fraction(sigma, degree)
        mid = "p_*[pt_F×E]" if c == 1 else f"{c}·p_*[pt_F×E]"
        cls = f"{mid} + [X]"
    else:
        fiber = {2: "curve", 3: "point"}[q]
        sigma, cls = 0, "[X]"
    return "".join(line + "\n" for line in (
        f"q(X) = {q}, cover degree {degree}, fiber: {fiber}",
        f"sigma(fiber) = {sigma}",
        f"Hodge route:       T(X) = {cls}",
        f"topological route: L(X) = {cls}",
        "verdict: PASS",
    ))


def cli_cases() -> list[tuple[list[str], str]]:
    """(argv, exact stdout) pairs for in-process `cli.main` calls."""
    table = [f"ok        {name}" for name, *_ in TABLE]
    sigmas = ",".join(str(s) for s in sorted(s for *_, s in TABLE))
    table.append(f"verified {len(TABLE)} rows: {len(TABLE)} ok, 0 mismatched; "
                 f"signatures {{{sigmas}}}")
    a3 = [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]
    d4_cartan = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    cases = [
        (["table", "verify"], table),
        (["sigma", "5A_1"], [str(sigma_of([("A", 1)] * 5))]),
        (["sigma", "4A_1", "A_2"], [str(sigma_of([("A", 1)] * 4 + [("A", 2)]))]),
        (["plumbing", "A_3"], ["plumbing form of A_3 (Euler weight -2)",
                               *_matrix_lines(a3),
                               "signature: (0, 3, 0), sigma = -3"]),
        (["plumbing", "D_4", "--cartan"], ["Cartan matrix of D_4",
                                           *_matrix_lines(d4_cartan),
                                           "signature: (4, 0, 0), sigma = 4"]),
        (["plumbing", "E_8", "--euler-weight", "2"],
         ["plumbing form of E_8 (Euler weight 2)",
          *_matrix_lines(_e8_plumbing(2)),
          "signature: (8, 0, 0), sigma = 8"]),
        (["basket", "5", "6", "8", "11", "--degree", "30"],
         ["family: F_30 ⊂ P(5,6,8,11)", "basket: A_1 A_7 A_10", "sigma:  2"]),
        (["basket", "3", "4", "7", "10", "--degree", "24", "--format", "tsv"],
         ["F_24 ⊂ P(3,4,7,10)\tA_1 A_6 A_9\t0"]),
    ]
    out = [(argv, "".join(line + "\n" for line in lines)) for argv, lines in cases]
    for q, degree, basket, sigma in ((1, 2, "A_1 A_7 A_10", 2),
                                     (1, 3, "3A_1", -13),
                                     (2, 4, None, 0), (3, 5, None, 0)):
        argv = ["bsy", "--q", str(q), "--degree", str(degree)]
        if basket:
            argv += ["--basket", basket]
        out.append((argv, _bsy_text(q, degree, basket, sigma)))
    return out
