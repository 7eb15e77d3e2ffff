import itertools
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from duvalk3.ade import Basket, plumbing_form, standard_dynkin_graph
from duvalk3.search import enumerate_k3_hypersurfaces
from duvalk3.wps import (
    _monomials,
    _vertices_linked,
    CyclicQuotient,
    HypersurfaceFamily,
    NoLinkingMonomial,
    NotDuVal,
    Weights,
    basket,
    quasismooth,
    quotient_points,
    well_formed,
)
import qs_oracle
from rr_oracle import altinok_series, hilbert_series, orbifold_euler
from sturm_oracle import link_order


def family(weights, degree):
    return HypersurfaceFamily(Weights(tuple(weights)), degree)


class TestWeights:
    def test_normalized_ascending(self):
        assert Weights((5, 2, 2, 1)).a == (1, 2, 2, 5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Weights((0, 1, 2, 3))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            Weights((1, 2, 3))

    def test_rejects_non_int_weights(self):
        # True would print as P(True,1,1,1), and 2.0 fails later inside gcd
        for a in ((True, 1, 1, 1), (1, 1, 1, 2.0)):
            with pytest.raises(ValueError, match=r"^weights must be ints, got \("):
                Weights(a)

    def test_family_rejects_non_int_degree(self):
        # 4.0 would print as F_4.0 and pass quasismooth and basket
        with pytest.raises(ValueError, match=r"^degree must be an int, got 4\.0$"):
            HypersurfaceFamily(Weights((1, 1, 1, 1)), 4.0)

    def test_family_rejects_non_positive_degree(self):
        for degree in (0, -4):
            with pytest.raises(ValueError, match=rf"^degree must be positive, got {degree}$"):
                HypersurfaceFamily(Weights((1, 1, 1, 1)), degree)


class TestCyclicQuotient:
    def test_residues_reduced_mod_r(self):
        q = CyclicQuotient(7, (11, 3))
        assert q.b == (4, 3)
        assert q.is_du_val
        assert str(q.to_ade()) == "A_6"

    def test_non_du_val(self):
        q = CyclicQuotient(5, (1, 1))
        assert not q.is_du_val
        with pytest.raises(NotDuVal):
            q.to_ade()

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            CyclicQuotient(4, (2, 2))

    def test_rejects_order_one(self):
        with pytest.raises(ValueError):
            CyclicQuotient(1, (0, 0))


class TestWellFormed:
    def test_examples(self):
        assert well_formed(Weights((1, 1, 1, 1)))
        assert well_formed(Weights((1, 2, 2, 5)))
        assert not well_formed(Weights((2, 2, 2, 3)))

    def test_pairwise_common_factor_is_allowed(self):
        # only triples must be coprime
        assert well_formed(Weights((2, 2, 3, 5)))


class TestQuasismooth:
    def test_smooth_quartic(self):
        assert quasismooth(family((1, 1, 1, 1), 4))

    def test_table_family(self):
        assert quasismooth(family((5, 6, 8, 11), 30))

    def test_member_containing_singular_edge(self):
        # no cubic monomial exists in the two weight-2 coordinates, so the
        # general member contains the singular edge: rejected
        assert not quasismooth(family((1, 1, 2, 2), 3))

    def test_degree_without_monomials(self):
        assert not quasismooth(family((2, 2, 3, 5), 1))

    def test_linear_cone_counts_as_quasismooth(self):
        assert quasismooth(family((1, 1, 1, 3), 3))

    def test_matches_brute_force_oracle(self):
        # every ascending quadruple <= 10 at every degree <= 40; degrees
        # below the largest weight run the a_e <= d linking guard
        max_degree = 40
        for a in itertools.combinations_with_replacement(range(1, 11), 4):
            supports = qs_oracle.monomial_supports(a, max_degree)
            for d in range(1, max_degree + 1):
                assert quasismooth(family(a, d)) == qs_oracle.quasismooth(
                    a, d, supports
                ), (a, d)
                # quasismooth's singleton requirement, on its own (the K3
                # sweep calls it in place of quasismooth)
                assert _vertices_linked(a, d) == qs_oracle.vertices_linked(
                    a, d, supports
                ), (a, d)


def _reachable(ws, top):
    """Every degree <= top that is a nonnegative combination of ws, by set closure."""
    reach = {0}
    for w in ws:
        for x in range(top + 1 - w):  # ascending, so multiples chain
            if x in reach:
                reach.add(x + w)
    return reach


def _definition(a, d, reach):
    """Both requirements of the quasismooth docstring, over all 15 nonempty
    subsets; reach maps each subset to the degrees its weights reach."""
    if d in a:
        return True
    for subset, r in reach.items():
        if d in r:
            continue  # a monomial supported on the subset alone
        if len(subset) == 2 and gcd(a[subset[0]], a[subset[1]]) > 1:
            return False
        linked = sum(1 for e in range(4) if e not in subset and d - a[e] in r)
        if linked < len(subset):
            return False
    return True


class TestEdgeLemma:
    """quasismooth tests the vertices and the non-coprime edges only; the
    lemma in its docstring says no other subset can fail."""

    def test_matches_full_definition(self):
        # wider than the brute-force oracle: every ascending quadruple <= 16
        top = 48
        subsets = [s for k in range(1, 5) for s in itertools.combinations(range(4), k)]
        for a in itertools.combinations_with_replacement(range(1, 17), 4):
            w = Weights(a)
            reach = {s: _reachable([a[i] for i in s], top) for s in subsets}
            for d in range(1, top + 1):
                f = HypersurfaceFamily(w, d)
                assert quasismooth(f) == _definition(a, d, reach), (a, d)

    def test_set_closure_reference(self):
        # 3 and 5 miss 1, 2, 4 and 7 (the Frobenius number 3*5 - 3 - 5)
        assert _reachable([3, 5], 12) == {0, 3, 5, 6, 8, 9, 10, 11, 12}

    def test_memory_bounded_for_any_weights(self):
        # every vertex linked and no singular edge: nothing grows with the weights
        f = family((1, 1, 10**5, 10**5 + 1), 10**5 * (10**5 + 1) + 1)
        tracemalloc.start()
        try:
            assert quasismooth(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestMonomialCount:
    def test_matches_brute_force(self):
        for ai in range(1, 25):
            for aj in range(1, 25):
                for d in range(200):
                    want = sum(
                        1 for q in range(d // aj + 1) if (d - q * aj) % ai == 0
                    )
                    assert _monomials(ai, aj, d) == want, (ai, aj, d)


def points(weights, degree):
    return [(str(q), n) for q, n in quotient_points(family(weights, degree))]


class TestQuotientPoints:
    # vertex points (count 1 each) come first, then the edge points

    def test_single_a1(self):
        assert points((1, 1, 1, 2), 5) == [("1/2(1,1)", 1)]

    def test_weight_dividing_degree_emits_nothing(self):
        # the weight-2 vertices divide 8; their edge carries 4 points
        assert points((1, 2, 2, 3), 8) == [("1/3(1,2)", 1), ("1/2(1,1)", 4)]

    def test_two_vertices(self):
        quotients = quotient_points(family((3, 4, 7, 10), 24))
        assert [(str(q), n) for q, n in quotients] == [
            ("1/7(4,3)", 1), ("1/10(3,7)", 1), ("1/2(1,1)", 1)
        ]
        assert [str(q.to_ade()) for q, _ in quotients] == ["A_6", "A_9", "A_1"]

    def test_no_linking_monomial(self):
        # vertex of weight 5: 8 is neither 0 nor 1 mod 5, so no weight links
        with pytest.raises(NoLinkingMonomial):
            quotient_points(family((1, 1, 1, 5), 8))

    def test_five_a1_points(self):
        assert points((1, 2, 2, 5), 10) == [("1/2(1,1)", 5)]

    def test_two_singular_edges(self):
        assert points((3, 4, 5, 6), 18) == [
            ("1/4(3,1)", 1), ("1/5(4,1)", 1), ("1/3(1,2)", 3), ("1/2(1,1)", 1)
        ]

    def test_no_singular_strata(self):
        assert quotient_points(family((1, 1, 1, 1), 4)) == []

    def test_huge_degree_is_constant_time(self):
        # 2p + 2q = 2*10^9 has 10^9 + 1 solutions: one closed form, no loop
        assert points((1, 1, 2, 2), 2 * 10**9) == [("1/2(1,1)", 10**9)]


class TestBasket:
    def test_empty(self):
        assert basket(family((1, 1, 1, 1), 4)) == Basket()

    def test_vertex_and_edge_mix(self):
        assert basket(family((2, 2, 3, 5), 12)) == Basket.parse("6A_1 A_4")

    def test_three_vertices(self):
        assert basket(family((4, 5, 7, 9), 25)) == Basket.parse("A_3 A_6 A_8")

    def test_not_du_val_edge(self):
        # two weight-5 coordinates with a_k + a_l = 2, not divisible by 5
        f = family((1, 1, 5, 5), 10)
        assert well_formed(f.weights)
        assert quasismooth(f)
        with pytest.raises(NotDuVal):
            basket(f)

    def test_point_type_past_rank_cap_refused(self):
        # 1000 points 1/2(1,1) would be 1000 curves: refused before expanding
        with pytest.raises(ValueError, match=r"1000A_1 has 1000 curves"):
            basket(family((1, 1, 2, 2), 2000))

    def test_permutation_invariance(self):
        reference = basket(family((2, 3, 4, 5), 14))
        for perm in itertools.permutations((2, 3, 4, 5)):
            assert basket(family(perm, 14)) == reference


class TestCanonicalTrivialProperties:
    def test_all_small_families_have_a_type_baskets(self):
        # every passing canonical-trivial family yields du Val A points only
        for a in itertools.combinations_with_replacement(range(1, 9), 4):
            w = Weights(a)
            if not well_formed(w):
                continue
            f = HypersurfaceFamily.k3(w)
            if not quasismooth(f):
                continue
            b = basket(f)
            assert all(t.kind == "A" for t in b)
            assert b.total_d <= 19, (a, b.tokens())


def _rr_points(f, inverse=True):
    """(r, b) per point: 1/r(a_j, a_k) enters with b = a_j^-1 mod r."""
    return [
        (q.r, pow(q.b[0], -1, q.r) if inverse else q.b[0])
        for q, n in quotient_points(f)
        for _ in range(n)
    ]


class TestOrbifoldRiemannRoch:
    N = 60

    def _matches(self, weights, degrees, points):
        return hilbert_series(weights, degrees, self.N) == altinok_series(
            weights, degrees, points, self.N
        )

    def test_every_family_matches_hilbert_series(self):
        families = enumerate_k3_hypersurfaces(40)
        assert len(families) == 95
        for fam in families:
            f = fam.family
            assert self._matches(f.weights.a, (f.degree,), _rr_points(f)), str(f)

    def test_detects_uninverted_residue(self):
        assert any(
            not self._matches(f.weights.a, (f.degree,), _rr_points(f, inverse=False))
            for f in (fam.family for fam in enumerate_k3_hypersurfaces(40))
        )

    def test_codimension_two_row(self):
        # F_{4,4} in P(1,1,2,2,2): only 4A_1, i.e. four points 1/2(1,1)
        for m in (3, 4, 5):
            assert self._matches((1, 1, 2, 2, 2), (4, 4), [(2, 1)] * m) == (m == 4)


class TestLinkOrder:
    def test_every_point_of_the_95_has_a_lens_space_link(self):
        # a point 1/g(b, -b) has link S^3/Z_g with H_1 = Z/g, so its type
        # A_{g-1} must have |det| = g: the A-graphs checked against the
        # weights, with no signature formula in between
        families = enumerate_k3_hypersurfaces(40)
        assert len(families) == 95
        for fam in families:
            for q, _ in quotient_points(fam.family):
                t = q.to_ade()
                assert (t.kind, t.rank) == ("A", q.r - 1), str(q)
                assert link_order(plumbing_form(standard_dynkin_graph(t))) == q.r


class TestOrbifoldEuler:
    """Sum over the points of (r - 1/r) = 24 - e_orb, which sees only the orders r."""

    @staticmethod
    def _holds(weights, degrees, orders):
        return sum(r - Fraction(1, r) for r in orders) == 24 - orbifold_euler(
            weights, degrees
        )

    def test_every_family_matches(self):
        families = enumerate_k3_hypersurfaces(40)
        assert len(families) == 95
        for fam in families:
            f = fam.family
            orders = [q.r for q, n in quotient_points(f) for _ in range(n)]
            assert self._holds(f.weights.a, (f.degree,), orders), str(f)

    def test_codimension_two_row(self):
        # F_{4,4} in P(1,1,2,2,2): only four points of order 2
        for m in (3, 4, 5):
            assert self._holds((1, 1, 2, 2, 2), (4, 4), [2] * m) == (m == 4)

    def test_detects_wrong_vertex_order(self):
        # vertex points are those whose order does not divide d; r -> r + 1
        def bumped(f):
            return [
                q.r + (f.degree % q.r != 0)
                for q, n in quotient_points(f)
                for _ in range(n)
            ]

        assert any(
            not self._holds(f.weights.a, (f.degree,), bumped(f))
            for f in (fam.family for fam in enumerate_k3_hypersurfaces(40))
        )
