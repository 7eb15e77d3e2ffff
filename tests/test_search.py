import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import floor, gcd, lcm

import pytest

from duvalk3 import search
from duvalk3.ade import ADEType, Basket, BoundViolation, SymIntForm, sigma_k3
from duvalk3.catalog import CatalogRow, embedded_catalog
from duvalk3.homology import CoveringMap, FormalClass, Generator, SpaceLabel
from duvalk3.search import (
    _largest_weights,
    _middle_weights,
    enumerate_baskets,
    enumerate_k3_hypersurfaces,
    find_signature,
    stabilized_enumeration,
)
from duvalk3.threefolds import KawamataDiagram
from duvalk3.wps import (
    HypersurfaceFamily,
    Weights,
    _vertices_linked,
    basket,
    quasismooth,
    well_formed,
)


@pytest.fixture
def counted(monkeypatch):
    """Count the calls to the named `search` functions from a cold cache.

    The family list is swept once per process, so without `cache_clear` a
    test that runs after any other query would count no sweep at all.
    """
    search._k3_families.cache_clear()
    calls = {}

    def count(*names):
        for name in names:
            def wrapper(*args, _real=getattr(search, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            calls[name] = 0
            monkeypatch.setattr(search, name, wrapper)
        return calls

    return count


def family_keys(families):
    return [(f.family.weights.a, f.family.degree, f.basket.tokens(), f.sigma)
            for f in families]


ORACLE_BOUND = 33  # the largest weight among the 95 families


@lru_cache(maxsize=1)
def oracle_keys():
    """Every ascending quadruple with weights <= ORACLE_BOUND that passes
    `well_formed` and `quasismooth`, with no pruning of any weight."""
    expected = []
    for a in itertools.combinations_with_replacement(range(1, ORACLE_BOUND + 1), 4):
        w = Weights(a)
        if not well_formed(w):
            continue
        f = HypersurfaceFamily.k3(w)
        if not quasismooth(f):
            continue
        b = basket(f)
        expected.append((a, f.degree, b.tokens(), sigma_k3(b)))
    return expected


def oracle_at(max_weight):
    """The oracle's families with weights <= max_weight, in its order."""
    return [k for k in oracle_keys() if k[0][3] <= max_weight]


_T, _B = SpaceLabel("T", 2), SpaceLabel("B", 2)
_LIFT, _FUND = Generator("[T]", 2, _T), Generator("[B]", 2, _B)


def guard_sites(x):
    """A call through each site of the not-an-int guard, with x in one int
    argument; every call is valid at x = 2."""
    return [
        (CoveringMap, (_T, _B, x, {_LIFT: FormalClass({_FUND: 2})},
                       {_FUND: FormalClass({_LIFT: 1})})),
        (ADEType, ("A", x)),
        (SymIntForm, (((x, 1), (1, x)),)),
        (Weights, ((1, 1, 2, x),)),
        (HypersurfaceFamily, (Weights((1, 1, 1, 1)), x)),
        (KawamataDiagram, (x, 1)),
        (KawamataDiagram, (2, x)),
        (CatalogRow, ("F", (1, 1, 2, x), (6,), Basket(), -16)),
        (CatalogRow, ("F", (1, 1, 1, 1, 2), (x, 4), Basket(), -16)),
        (CatalogRow, ("F", (1, 1, 1, 1), (4,), Basket.parse("A_18"), x)),
        (enumerate_baskets, (x,)),
        (enumerate_k3_hypersurfaces, (x,)),
        (find_signature, (x, 60)),
        (find_signature, (3, x)),
        (stabilized_enumeration, (x, 10)),
        (stabilized_enumeration, (40, x)),
    ]


REFUSED = [
    (enumerate_k3_hypersurfaces, (60.0,)),
    (enumerate_k3_hypersurfaces, (True,)),
    (stabilized_enumeration, (40, 10.5)),
    (stabilized_enumeration, (40.0, 10)),
    (stabilized_enumeration, (True, 10)),
    (enumerate_baskets, (3.5,)),
    (enumerate_baskets, (True,)),
    (find_signature, (True, 60)),
    (find_signature, (3.0, 60)),
    (find_signature, (3, 60.0)),
]
# True, 2.0 and Fraction(2) at every guard site; 2.0 == Fraction(2), so
# cases already listed are dropped by their id, not by equality
_LISTED = {(fn, repr(args)) for fn, args in REFUSED}
REFUSED += [
    (fn, args) for x in (True, 2.0, Fraction(2)) for fn, args in guard_sites(x)
    if (fn, repr(args)) not in _LISTED
]


@pytest.mark.parametrize(
    ("fn", "args"),
    REFUSED,
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_refuses_non_int_bounds_and_targets(fn, args):
    # each used to return a plausible wrong answer: 60.0 gave the 95
    # families, 3.5 seven baskets, and True counted as 1, so that
    # find_signature(True, 60) gave the sigma = 1 family; a CatalogRow
    # printed a sigma of -16.0 or True as it was
    with pytest.raises(ValueError, match=r"must be (an int|ints), got "):
        fn(*args)


def test_guard_sites_accept_the_int_two():
    # the refusals above are about the type: the same calls with 2 succeed
    for fn, args in guard_sites(2):
        fn(*args)


def count_baskets_oracle(max_total):
    """Independent multiset count: unbounded-multiplicity coin counting."""
    ranks = [("A", r) for r in range(1, max_total + 1)]
    ranks += [("D", r) for r in range(4, max_total + 1)]
    ranks += [("E", r) for r in (6, 7, 8) if r <= max_total]
    dp = [0] * (max_total + 1)
    dp[0] = 1
    for _, rank in ranks:
        for total in range(rank, max_total + 1):
            dp[total] += dp[total - rank]
    return sum(dp)


class TestEnumerateBaskets:
    def test_up_to_one_curve(self):
        assert enumerate_baskets(1) == [
            (Basket(), -16),
            (Basket((ADEType("A", 1),)), -15),
        ]

    def test_zero(self):
        assert enumerate_baskets(0) == [(Basket(), -16)]

    def test_contains_d4(self):
        assert (Basket((ADEType("D", 4),)), -12) in enumerate_baskets(4)

    def test_count_against_independent_oracle(self):
        for bound in (5, 10, 19):
            assert len(enumerate_baskets(bound)) == count_baskets_oracle(bound)

    def test_deterministic_and_consistent(self):
        out = enumerate_baskets(7)
        assert out == enumerate_baskets(7)
        for b, sigma in out:
            assert sigma == sigma_k3(b) == -16 + b.total_d
            assert b.total_d <= 7

    def test_sigma_range_at_full_bound(self):
        sigmas = {sigma for _, sigma in enumerate_baskets(19)}
        assert sigmas == set(range(-16, 4))

    def test_past_the_curve_bound_rejected(self):
        with pytest.raises(BoundViolation, match=r"^K3 baskets carry at most 19 curves$"):
            enumerate_baskets(20)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="max_total_d must be >= 0"):
            enumerate_baskets(-1)


class TestEnumerateK3Hypersurfaces:
    def test_bound_below_one_rejected(self):
        for bound in (0, -1):
            with pytest.raises(ValueError, match=rf"^max_weight must be >= 1, got {bound}$"):
                enumerate_k3_hypersurfaces(bound)

    def test_small_bound_contains_known_rows(self):
        families = enumerate_k3_hypersurfaces(8)
        by_weights = {fam.family.weights.a: fam for fam in families}
        quartic = by_weights[(1, 1, 1, 1)]
        assert quartic.basket == Basket()
        assert quartic.sigma == -16
        f5 = by_weights[(1, 1, 1, 2)]
        assert f5.basket == Basket.parse("A_1")
        assert f5.sigma == -15

    def test_rows_reverify(self):
        for fam in enumerate_k3_hypersurfaces(10):
            assert fam.family.is_canonical_trivial
            assert fam.sigma == -16 + fam.basket.total_d
            assert fam.basket.total_d <= 19

    def test_sorted_and_parallel_agreement(self):
        serial = enumerate_k3_hypersurfaces(12)
        weights = [fam.family.weights.a for fam in serial]
        assert weights == sorted(weights)

    def test_pruned_sweep_matches_brute_force_oracle(self):
        # every ascending quadruple up to 33 holds all 95 families
        got = family_keys(enumerate_k3_hypersurfaces(ORACLE_BOUND))
        assert got == oracle_keys()
        assert len(got) == 95

    def test_filters_see_only_linked_quadruples(self, counted):
        # the linking conditions choose a1, a2 and a3, a triple sharing a
        # factor is skipped, and an unlinked quadruple is rejected before
        # well_formed sees it; quasismooth is not called: exact counts, no clock
        calls = counted("_middle_weights", "_largest_weights", "well_formed",
                        "_vertices_linked")
        assert len(enumerate_k3_hypersurfaces(60)) == 95
        expected = {
            "_middle_weights": 70, "_largest_weights": 225, "well_formed": 148,
            "_vertices_linked": 832,
        }
        assert calls == expected
        # a later query in the process filters the list and sweeps nothing
        assert len(enumerate_k3_hypersurfaces(20)) < 95
        assert calls == expected

    def test_filtered_list_matches_the_sweep_at_every_bound(self):
        # below 33 each bound keeps the oracle's families up to it; past 33
        # every bound gives the list at 33
        for w in (*range(1, 161), 200, 300, 1000, 10**9):
            assert family_keys(enumerate_k3_hypersurfaces(w)) == oracle_at(w), w
        for w in (34, 60, 300, 10**9):
            assert enumerate_k3_hypersurfaces(w) == enumerate_k3_hypersurfaces(33), w

    def test_p2_unlinked_beyond_the_lemma_values(self):
        # for a2 > a0+a1 outside {2a0+a1, a0+2a1, 2a1, 2(a0+a1)} no a3 in
        # [a2, 50] links all four vertices, not just no _largest_weights one
        triples = itertools.combinations_with_replacement(range(1, 51), 3)
        for a0, a1, a2 in triples:
            lemma = (2 * a0 + a1, a0 + 2 * a1, 2 * a1, 2 * (a0 + a1))
            if a2 <= a0 + a1 or a2 in lemma:
                continue
            for a3 in range(a2, 51):
                a = (a0, a1, a2, a3)
                assert not _vertices_linked(a, sum(a)), a

    def test_p2_unlinked_below_a0_plus_a1_outside_middle_weights(self):
        # for a2 <= a0+a1 outside _middle_weights no a3 in [a2, 50] links
        # all four vertices, not just no _largest_weights one
        checked = 0
        for a0, a1 in itertools.combinations_with_replacement(range(1, 51), 2):
            middle = [a2 for a2 in _middle_weights(a0, a1) if a2 <= 50]
            assert middle == sorted(set(middle)), (a0, a1)
            assert all(a1 <= a2 <= 50 for a2 in middle), (a0, a1)
            for a2 in range(a1, min(a0 + a1, 50) + 1):
                if a2 in middle:
                    continue
                for a3 in range(a2, 51):
                    a = (a0, a1, a2, a3)
                    assert not _vertices_linked(a, sum(a)), a
                    checked += 1
        assert checked == 101144

    def test_triples_sharing_a_factor_never_well_formed(self):
        # the sweep skips (a0, a1, a2) with gcd > 1: no a3 in [a2, 50]
        # makes such a quadruple well-formed
        for a0, a1, a2 in itertools.combinations_with_replacement(range(1, 51), 3):
            if gcd(a0, a1, a2) > 1:
                for a3 in range(a2, 51):
                    assert not well_formed(Weights((a0, a1, a2, a3)))

    def test_same_95_families_at_three_hundred(self):
        # the stop rule's answer holds far past the bound it stops at
        families = enumerate_k3_hypersurfaces(300)
        assert len(families) == 95
        assert max(fam.family.weights.a[3] for fam in families) == 33
        assert families == enumerate_k3_hypersurfaces(60)

    def test_unbounded_weight_bound_stays_bounded(self):
        # a0 <= 7, a1 <= 6*a0 and the closed-form a2, a3: the sweep's work
        # does not grow with W, so a billion runs as fast as 60
        assert enumerate_k3_hypersurfaces(10**9) == enumerate_k3_hypersurfaces(60)

    def test_largest_weights_match_divisor_set(self):
        # the a3 = n/k, n in the four partial sums, k in {1, 2, 3}, that are
        # >= a2: the set the closed form must reproduce, in order
        def divisor_set(a0, a1, a2, max_weight):
            sums = (a0 + a1 + a2, a1 + a2, a0 + a2, a0 + a1)
            return sorted(
                {n // k for n in sums for k in (1, 2, 3)
                 if n % k == 0 and a2 <= n // k <= max_weight}
            )

        for a0, a1, a2 in itertools.combinations_with_replacement(range(1, 41), 3):
            largest = _largest_weights(a0, a1, a2)
            # a3 <= s = a0+a1+a2, so the bound s leaves the list whole
            for max_weight in (a2, 40, 80, a0 + a1 + a2):
                assert [a3 for a3 in largest if a3 <= max_weight] == divisor_set(
                    a0, a1, a2, max_weight
                ), (a0, a1, a2, max_weight)

    def test_middle_weights_match_divisor_set(self):
        # every a2 = n/k in [a1, min(a0+a1, W)] for the nine P_2 residues n,
        # and the four values above a0+a1: the set the closed form must
        # reproduce, in order
        def divisor_set(a0, a1, max_weight):
            p = a0 + a1
            hi = min(p, max_weight)
            residues = (p, 2 * p, 3 * p, a0 + 2 * a1, 2 * a0 + a1, 2 * a1,
                        2 * a0, a0 + 3 * a1, 3 * a0 + a1)
            found = {n // k for n in residues
                     for k in range(-(-n // hi), n // a1 + 1)  # a1 <= n/k <= hi
                     if n % k == 0}
            found.update(n for n in (2 * a0 + a1, a0 + 2 * a1, 2 * a1, 2 * p)
                         if p < n <= max_weight)
            return sorted(found)

        for a0, a1 in itertools.combinations_with_replacement(range(1, 151), 2):
            middle = _middle_weights(a0, a1)
            # a2 <= 2*(a0+a1), so that bound leaves the list whole
            for max_weight in (a1, 60, 150, 2 * (a0 + a1)):
                assert [a2 for a2 in middle if a2 <= max_weight] == divisor_set(
                    a0, a1, max_weight
                ), (a0, a1, max_weight)

    def test_to_row_round_trips_through_catalog_grammar(self):
        from duvalk3.catalog import load_catalog

        fam = enumerate_k3_hypersurfaces(4)[0]
        row = fam.to_row()
        assert load_catalog(row.format()) == [row]


# `_middle_weights`' 15 forms a2 = al*a0 + be*a1, and `_largest_weights`' 6
# forms a3 = c0*a0 + c1*a1 + c2*a2, written out again from their docstrings
HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
A2_FORMS = [
    (0, 1), (1, 1), (2, 0), (2, 1), (1, 2), (0, 2), (2, 2),
    (3 * HALF, HALF), (2 * THIRD, 2 * THIRD), (Fraction(3, 4), Fraction(3, 4)),
    (Fraction(3, 5), Fraction(3, 5)), (HALF, 1), (THIRD, 1), (1, HALF), (1, THIRD),
]
A3_FORMS = {
    "a2": (0, 0, 1), "s/2": (HALF, HALF, HALF), "p": (1, 1, 0),
    "a0+a2": (1, 0, 1), "a1+a2": (0, 1, 1), "s": (1, 1, 1),
}


def ratio_oracle():
    """The t = a1/a0 >= 1 at which a1 can divide a P_1 residue, and the
    (a2, a3) forms whose residue has no a0 term.

    With a0 = 1 every weight is linear in t.  A residue R = A + B*t is
    divisible by a1 = t iff A/t + B = k for an integer k, so t = A/(k - B),
    and t >= 1 means B < k <= A + B.
    """
    ratios, no_a0 = {Fraction(1)}, []
    for al, be in A2_FORMS:
        for name, (c0, c1, c2) in A3_FORMS.items():
            a3 = (c0 + c2 * al, c1 + c2 * be)
            d = (1 + al + a3[0], 1 + be + a3[1])
            for A, B in (d, (d[0] - 1, d[1]), (d[0] - al, d[1] - be),
                         (d[0] - a3[0], d[1] - a3[1])):
                if A == 0:
                    no_a0.append(((al, be), a3))
                    continue
                for k in range(floor(B) + 1, floor(A + B) + 1):
                    t = Fraction(A) / (k - B)
                    a2 = al + be * t
                    if (a2 >= t and a3[0] + a3[1] * t >= a2
                            and (name not in ("s/2", "p") or 1 + t >= a2)
                            and (name != "a2" or a2 == t)):
                        ratios.add(t)
    return sorted(ratios), no_a0


class TestRatioTable:
    def test_table_matches_independent_derivation(self):
        ratios, no_a0 = ratio_oracle()
        assert len(ratios) == 34
        assert [Fraction(n, m) for n, m in search._RATIOS] == ratios
        assert all(gcd(n, m) == 1 for n, m in search._RATIOS)
        # with no a0 term, a1 divides a2 and a3: well-formed only at a1 = 1
        assert {(a2, a3) for a2, a3 in no_a0} == {
            ((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 2), (0, 2)), ((0, 2), (0, 3))
        }

    def test_linked_well_formed_quadruples_have_a_listed_ratio(self):
        # every (a0, a1) pair up to 100, not only the listed ratios
        ratios = {Fraction(n, m) for n, m in search._RATIOS}
        seen = set()
        for a0, a1 in itertools.combinations_with_replacement(range(1, 101), 2):
            for a2 in [a2 for a2 in _middle_weights(a0, a1) if a2 <= 100]:
                for a3 in [a3 for a3 in _largest_weights(a0, a1, a2) if a3 <= 100]:
                    a = (a0, a1, a2, a3)
                    if _vertices_linked(a, sum(a)) and well_formed(Weights(a)):
                        assert Fraction(a1, a0) in ratios, a
                        seen.add(Fraction(a1, a0))
        # 14 of the 34 ratios occur up to 100, the largest one among them
        assert (len(seen), max(seen)) == (14, 6)

    def test_every_shape_gives_one_of_the_95_families(self):
        # every candidate is a0*(1, t, u, v) for a ratio t, an a2 form u and
        # an a3 form v; a well-formed one has a0 = D, the least common
        # denominator of t, u and v, so the linked, well-formed quadruples
        # of all weight bounds are finitely many, and a0 <= 7 bounds them
        ratios, _ = ratio_oracle()
        found = set()
        for t in ratios:
            for al, be in A2_FORMS:
                u = al + be * t
                for c0, c1, c2 in A3_FORMS.values():
                    v = c0 + c1 * t + c2 * u
                    if not t <= u <= v:
                        continue  # the sweep builds ascending weights only
                    a0 = lcm(t.denominator, u.denominator, v.denominator)
                    a = tuple(int(a0 * x) for x in (1, t, u, v))
                    if _vertices_linked(a, sum(a)) and well_formed(Weights(a)):
                        found.add(a)
        assert max(a[0] for a in found) == search._MAX_A0 == 7
        assert Counter(a[0] for a in found) == {1: 41, 2: 23, 3: 16, 4: 8, 5: 5, 7: 2}
        assert found == {fam.family.weights.a for fam in enumerate_k3_hypersurfaces(300)}
        assert max(a[3] for a in found) == 33
        assert all(quasismooth(HypersurfaceFamily.k3(Weights(a))) for a in found)


class TestFindSignature:
    def test_minus_sixteen_contains_quartic(self):
        hits = find_signature(-16, 6)
        assert any(fam.family.weights.a == (1, 1, 1, 1) for fam in hits)

    def test_minus_twelve_unrealized_in_codim_one(self):
        assert find_signature(-12, 20) == []

    def test_catalog_families_found(self):
        # every codim-1 catalog row is recovered by the search at its weight
        for row in embedded_catalog():
            if row.codim != 1:
                continue
            hits = find_signature(row.sigma, max(row.weights))
            assert any(
                fam.family.weights.a == row.weights and fam.basket == row.basket
                for fam in hits
            ), row.name


class TestStabilizedEnumeration:
    @staticmethod
    def bound_by_bound(start, step):
        # the oracle's list at each bound, until two raises leave the count
        # unchanged
        families = oracle_at(start)
        bound, unchanged = start, 0
        while unchanged < 2:
            bound += step
            more = oracle_at(bound)
            unchanged = unchanged + 1 if len(more) == len(families) else 0
            families = more
        return families, bound

    def test_matches_bound_by_bound_loop(self):
        pinned = {(40, 10): (60, 95), (1, 1): (29, 94), (5, 3): (41, 95),
                  (30, 2): (38, 95)}
        grid = itertools.product((1, 2, 7, 20, 33, 55), (1, 2, 3, 10))
        for start, step in (*pinned, *grid):
            families, got_bound = stabilized_enumeration(start, step)
            if (start, step) in pinned:
                assert (got_bound, len(families)) == pinned[start, step]
            assert (family_keys(families), got_bound) == self.bound_by_bound(
                start, step
            ), (start, step)

    def test_rejects_bad_start_or_step(self):
        for start, step in ((0, 10), (40, -1), (40, 0)):
            with pytest.raises(ValueError):
                stabilized_enumeration(start, step)

    def test_one_sweep_when_already_stable(self, counted):
        # the counts at 40 and 50 are read off the families at 60: exact
        # counts, no clock
        calls = counted("enumerate_k3_hypersurfaces", "well_formed")
        families, bound = stabilized_enumeration()
        assert (len(families), bound) == (95, 60)
        assert calls == {"enumerate_k3_hypersurfaces": 1, "well_formed": 148}
        # the sigma = 3 probe after it filters the same list, sweeping nothing
        assert find_signature(3, bound) == []
        assert calls == {"enumerate_k3_hypersurfaces": 2, "well_formed": 148}
