import copy
import operator
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from duvalk3.ade import (
    ADE_TYPES,
    RANK_CAP,
    ADEType,
    Basket,
    DynkinGraph,
    FormSignature,
    SymIntForm,
    cartan_matrix,
    form_signature,
    plumbing_form,
    standard_dynkin_graph,
)
from sturm_oracle import link_order, signature_oracle


def all_types(max_rank):
    types = [ADEType("A", r) for r in range(1, max_rank + 1)]
    types += [ADEType("D", r) for r in range(4, max_rank + 1)]
    types += [ADEType("E", r) for r in (6, 7, 8) if r <= max_rank]
    return types


def leading_principal_minors(entries):
    """Exact determinants of the leading principal submatrices."""
    n = len(entries)
    minors = []
    for k in range(1, n + 1):
        m = [[Fraction(entries[i][j]) for j in range(k)] for i in range(k)]
        det = Fraction(1)
        for col in range(k):
            pivot = next((r for r in range(col, k) if m[r][col]), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            for r in range(col + 1, k):
                f = m[r][col] / m[col][col]
                for c in range(col, k):
                    m[r][c] -= f * m[col][c]
        minors.append(det)
    return minors


class TestADEType:
    def test_components_equal_rank(self):
        assert ADEType("A", 7).components == 7
        assert ADEType("D", 5).components == 5

    @pytest.mark.parametrize("kind,rank", [("A", 0), ("D", 3), ("E", 5), ("E", 9)])
    def test_rank_constraints(self, kind, rank):
        with pytest.raises(ValueError):
            ADEType(kind, rank)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ADEType("B", 2)

    def test_parse_and_str(self):
        assert ADEType.parse("A_2") == ADEType("A", 2)
        assert ADEType.parse("D4") == ADEType("D", 4)
        assert str(ADEType("E", 8)) == "E_8"
        with pytest.raises(ValueError):
            ADEType.parse("3A_2")  # multiplicity belongs to basket tokens


ALL_PAIRS = sorted((t.kind, t.rank) for t in all_types(RANK_CAP))


class TestInternedTypes:
    def test_there_are_128_in_tuple_order(self):
        assert len(ALL_PAIRS) == 128
        assert [(t.kind, t.rank) for t in ADE_TYPES] == ALL_PAIRS
        shuffled = [ADEType(k, r) for k, r in ALL_PAIRS]
        random.Random(0).shuffle(shuffled)
        assert [(t.kind, t.rank) for t in sorted(shuffled)] == ALL_PAIRS

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge,
                                    operator.eq, operator.ne])
    def test_comparisons_agree_with_tuples(self, op):
        for p, q in product(ALL_PAIRS, repeat=2):
            assert op(ADEType(*p), ADEType(*q)) is op(p, q), (op, p, q)

    def test_one_shared_instance_per_type(self):
        for k, r in ALL_PAIRS:
            t = ADEType(k, r)
            assert t is ADEType(k, r) is ADEType.parse(f"{k}_{r}")
            assert hash(t) == hash(ADEType(k, r))

    def test_repr_and_str(self):
        for k, r in ALL_PAIRS:
            assert repr(ADEType(k, r)) == f"ADEType(kind={k!r}, rank={r})"
            assert str(ADEType(k, r)) == f"{k}_{r}"

    def test_pickle_and_copy_return_the_same_instance(self):
        for t in ADE_TYPES:
            for proto in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(t, proto)) is t
            assert copy.copy(t) is t
            assert copy.deepcopy(t) is t
        b = Basket.parse("4A_1 D_4")
        assert pickle.loads(pickle.dumps(b)) == b
        assert copy.deepcopy(b).entries[0] is ADEType("A", 1)

    @pytest.mark.parametrize("name", ["kind", "rank", "key", "other"])
    def test_assignment_and_deletion_refused(self, name):
        t = ADEType("A", 2)
        with pytest.raises(AttributeError):
            setattr(t, name, 3)
        with pytest.raises(AttributeError):
            delattr(t, name)
        assert (t.kind, t.rank) == ("A", 2)

    @pytest.mark.parametrize("kind,rank,message", [
        ("A", 0, "rank 0 outside [1, 64]"),
        ("A", 65, "rank 65 outside [1, 64]"),
        ("D", 3, "D_3 is not simply laced (need rank >= 4)"),
        ("E", 5, "E_5 does not exist (rank must be 6, 7 or 8)"),
        ("E", 9, "E_9 does not exist (rank must be 6, 7 or 8)"),
        ("B", 2, "unknown Dynkin kind 'B'"),
    ])
    def test_invalid_messages_unchanged(self, kind, rank, message):
        with pytest.raises(ValueError) as exc:
            ADEType(kind, rank)
        assert str(exc.value) == message

    @pytest.mark.parametrize("rank", [3.0, True, False, "3", None, 2.5])
    def test_rank_must_be_an_int(self, rank):
        with pytest.raises(ValueError, match="^rank must be an int, got "):
            ADEType("A", rank)

    @pytest.mark.parametrize("kind", [1, None, b"A", ["A"], ("A",)])
    def test_kind_must_be_a_str(self, kind):
        with pytest.raises(ValueError, match="unknown Dynkin kind"):
            ADEType(kind, 3)

    @pytest.mark.parametrize("other", [("A", 1), 1, "A_1", None, 1.5])
    def test_ordering_against_other_values_raises(self, other):
        t = ADEType("A", 1)
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(t, other)
            with pytest.raises(TypeError):
                op(other, t)
        assert t != other and not t == other


class TestBasket:
    def test_canonical_order_and_total(self):
        b = Basket((ADEType("D", 4), ADEType("A", 2), ADEType("A", 2)))
        assert [str(t) for t in b] == ["A_2", "A_2", "D_4"]
        assert b.total_d == 8

    def test_tokens_round_trip(self):
        b = Basket.parse("4A_1 A_2")
        assert b.tokens() == "4A_1 A_2"
        assert Basket.parse(b.tokens()) == b
        assert Basket.parse("-") == Basket()
        assert Basket().tokens() == "-"

    @pytest.mark.parametrize("entries", [("A", "B"), ("A_1",), (ADEType("A", 1), ("A", 2)), (None,)])
    def test_refuses_entries_that_are_not_types(self, entries):
        with pytest.raises(TypeError):
            Basket(entries)

    def test_slotted(self):
        b = Basket.parse("A_1")
        assert not hasattr(b, "__dict__")
        with pytest.raises(AttributeError):
            b.entries = ()

    def test_parse_comma_separated(self):
        assert Basket.parse("A_1, 3A_2") == Basket.parse("A_1 3A_2")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Basket.parse("A_1 Q_3")

    @pytest.mark.parametrize("token", ["65A_1", "1000A_1", "17A_4", "0A_1"])
    def test_parse_caps_multiplicity_before_expanding(self, token):
        with pytest.raises(ValueError, match=r"outside \[1, 64\]"):
            Basket.parse(token)

    def test_parse_multiplicity_at_cap(self):
        assert Basket.parse("64A_1").total_d == 64
        assert Basket.parse("16A_4").total_d == 64


class TestDynkinGraph:
    def test_rejects_self_loop_and_duplicates(self):
        with pytest.raises(ValueError):
            DynkinGraph((-2, -2), ((0, 0),))
        with pytest.raises(ValueError):
            DynkinGraph((-2, -2), ((0, 1), (1, 0)))
        with pytest.raises(ValueError):
            DynkinGraph((-2, -2), ((0, 2),))

    def test_standard_graph_shapes(self):
        d4 = standard_dynkin_graph(ADEType("D", 4))
        degrees = [0] * 4
        for i, j in d4.edges:
            degrees[i] += 1
            degrees[j] += 1
        assert sorted(degrees) == [1, 1, 1, 3]
        e8 = standard_dynkin_graph(ADEType("E", 8))
        degrees = [0] * 8
        for i, j in e8.edges:
            degrees[i] += 1
            degrees[j] += 1
        assert degrees[2] == 3  # branch node at the third path vertex
        assert sorted(degrees) == [1, 1, 1, 2, 2, 2, 2, 3]


class TestCartanMatrix:
    def test_a1(self):
        assert cartan_matrix(ADEType("A", 1)).entries == ((2,),)

    def test_a2(self):
        assert cartan_matrix(ADEType("A", 2)).entries == ((2, -1), (-1, 2))

    def test_e8_positive_definite_via_minors(self):
        q = cartan_matrix(ADEType("E", 8))
        minors = leading_principal_minors(q.entries)
        assert all(m > 0 for m in minors)
        assert minors[-1] == 1  # unimodular E8 lattice

    def test_all_types_positive_definite(self):
        for t in all_types(20):
            assert form_signature(cartan_matrix(t)) == FormSignature(t.rank, 0, 0)


class TestPlumbingForm:
    def test_single_vertex(self):
        g = DynkinGraph((-2,))
        assert plumbing_form(g).entries == ((-2,),)

    def test_a2_is_negative_cartan(self):
        g = standard_dynkin_graph(ADEType("A", 2))
        assert plumbing_form(g).entries == ((-2, 1), (1, -2))
        assert plumbing_form(g) == -cartan_matrix(ADEType("A", 2))

    def test_d4_is_negative_cartan(self):
        g = standard_dynkin_graph(ADEType("D", 4))
        assert plumbing_form(g) == -cartan_matrix(ADEType("D", 4))

    def test_all_types_match_negative_cartan(self):
        for t in all_types(20):
            g = standard_dynkin_graph(t)
            assert plumbing_form(g) == -cartan_matrix(t), str(t)

    def test_general_euler_weights(self):
        g = DynkinGraph((-1, -3), ((0, 1),))
        assert plumbing_form(g).entries == ((-1, 1), (1, -3))

    def test_link_order_of_every_type(self):
        # a du Val link is S^3/G with |H_1| = |det| of the plumbing form:
        # n + 1 for A_n, 4 for D_n, 9 - n for E_n (Fraction elimination,
        # no Bareiss)
        expected = {"A": lambda n: n + 1, "D": lambda n: 4, "E": lambda n: 9 - n}
        types = all_types(19)
        assert len(types) == 38
        for t in types:
            g = standard_dynkin_graph(t)
            assert link_order(plumbing_form(g)) == expected[t.kind](t.rank), str(t)


class TestFormSignature:
    def test_examples(self):
        assert form_signature(SymIntForm(((2,),))) == FormSignature(1, 0, 0)
        assert form_signature(SymIntForm(((1, 0, 0), (0, -1, 0), (0, 0, 0)))) == FormSignature(1, 1, 1)
        # a square split off, then a hyperbolic plane, with p = 1 and p = -1
        q = SymIntForm(((1, 1, 1), (1, 1, 0), (1, 0, 1)))
        assert form_signature(q) == FormSignature(2, 1, 0)
        assert form_signature(-q) == FormSignature(1, 2, 0)

    def test_negative_cartan_all_ranks(self):
        for t in all_types(20):
            sig = form_signature(-cartan_matrix(t))
            assert sig == FormSignature(0, t.rank, 0)
            assert sig.sigma == -t.rank

    def test_hyperbolic_block(self):
        assert form_signature(SymIntForm(((0, 3), (3, 0)))) == FormSignature(1, 1, 0)

    def test_zero_matrix(self):
        assert form_signature(SymIntForm(((0, 0, 0),) * 3)) == FormSignature(0, 0, 3)

    def test_empty_form(self):
        assert form_signature(SymIntForm(())) == FormSignature(0, 0, 0)

    def test_zero_diagonal_with_coupling(self):
        q = SymIntForm(((0, 1, 2), (1, 0, 0), (2, 0, 0)))
        assert form_signature(q) == signature_oracle(q)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymIntForm(((0, 1), (2, 0)))

    def test_rejects_non_square(self):
        for entries in (((0, 1),), ((0, 1), (1,))):
            with pytest.raises(ValueError, match=r"^matrix is not square$"):
                SymIntForm(entries)

    @pytest.mark.parametrize("x", [0.5, 2.0, Fraction(1, 2), Fraction(2), True])
    def test_rejects_non_int_entries(self, x):
        with pytest.raises(ValueError, match="ints"):
            SymIntForm(((1, x), (x, 1)))

    def test_rejects_positive_definite_float_form(self):
        # the elimination would read it as FormSignature(1, 0, 1)
        with pytest.raises(ValueError, match="ints"):
            SymIntForm(((0.5, 0.3), (0.3, 0.5)))

    def test_plumbing_refuses_non_int_weight(self):
        with pytest.raises(ValueError, match="ints"):
            plumbing_form(DynkinGraph((-2.0, -2), ((0, 1),)))


def symmetric_forms(max_dim=5, bound=3):
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_dim))
        entry = st.integers(min_value=-bound, max_value=bound)
        upper = draw(
            st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)
        )
        m = [[0] * n for _ in range(n)]
        it = iter(upper)
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = next(it)
        return SymIntForm(tuple(tuple(row) for row in m))

    return st.composite(build)()


def insert_zero_rows(q, positions):
    """q with a zero row and column inserted at each position in turn; a
    position past the end appends."""
    rows = [list(row) for row in q.entries]
    for pos in positions:
        pos = min(pos, len(rows))
        for row in rows:
            row.insert(pos, 0)
        rows.insert(pos, [0] * (len(rows) + 1))
    return SymIntForm(tuple(map(tuple, rows)))


class TestSignatureProperties:
    @staticmethod
    def check_exhaustive(dim, values, zero_diagonal=False):
        upper = [(i, j) for i in range(dim) for j in range(i + zero_diagonal, dim)]
        for entries in product(values, repeat=len(upper)):
            m = [[0] * dim for _ in range(dim)]
            for (i, j), x in zip(upper, entries):
                m[i][j] = m[j][i] = x
            q = SymIntForm(tuple(map(tuple, m)))
            assert form_signature(q) == signature_oracle(q), q.entries

    def test_exhaustive_dim_2(self):
        self.check_exhaustive(2, range(-3, 4))

    def test_exhaustive_dim_3(self):
        # all 729 forms; reaches the hyperbolic step after a pivot, p > 0 and p < 0
        self.check_exhaustive(3, range(-1, 2))

    def test_exhaustive_zero_diagonal_dim_4(self):
        # all 729 forms; a nonzero one starts with a hyperbolic step, and a
        # square step may follow on the 2 x 2 block left
        self.check_exhaustive(4, range(-1, 2), zero_diagonal=True)

    @settings(max_examples=300, deadline=None)
    @given(symmetric_forms())
    def test_matches_sturm_oracle(self, q):
        assert form_signature(q) == signature_oracle(q)

    @settings(max_examples=150, deadline=None)
    @given(symmetric_forms(), st.lists(st.integers(min_value=0, max_value=8), max_size=3))
    def test_zero_rows_anywhere(self, q, positions):
        padded = insert_zero_rows(q, positions)
        s = form_signature(q)
        assert form_signature(padded) == signature_oracle(padded)
        assert form_signature(padded) == FormSignature(
            s.positives, s.negatives, s.zeros + len(positions)
        )

    @settings(max_examples=150, deadline=None)
    @given(symmetric_forms(max_dim=4), symmetric_forms(max_dim=4))
    def test_block_sum_additivity(self, q1, q2):
        s1, s2 = form_signature(q1), form_signature(q2)
        n, m = q1.dim, q2.dim
        block = tuple(row + (0,) * m for row in q1.entries)
        block += tuple((0,) * n + row for row in q2.entries)
        s = form_signature(SymIntForm(block))
        assert s.sigma == s1.sigma + s2.sigma
        assert (s.positives, s.negatives, s.zeros) == (
            s1.positives + s2.positives,
            s1.negatives + s2.negatives,
            s1.zeros + s2.zeros,
        )

    @settings(max_examples=150, deadline=None)
    @given(symmetric_forms())
    def test_negation_antisymmetry(self, q):
        s, sneg = form_signature(q), form_signature(-q)
        assert sneg.sigma == -s.sigma
        assert (sneg.positives, sneg.negatives) == (s.negatives, s.positives)


def unimodular(rng, n):
    """A unit upper-triangular integer matrix times a signed permutation.

    With the permutation on the right, P^T D P is a symmetric permutation of
    the LDL^T form U^T D U, so a zero diagonal entry need not be a zero row."""
    u = [[int(i == j) if j <= i else rng.randint(-2, 2) for j in range(n)] for i in range(n)]
    perm = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[signs[j] * row[perm[j]] for j in range(n)] for row in u]


def congruent(p, d, q):
    """P^T D Q for a rectangular D given as a list of rows."""
    pd = [[sum(p[k][i] * d[k][l] for k in range(len(d))) for l in range(len(d[0]))]
          for i in range(len(p[0]))]
    return [[sum(pd[i][l] * q[l][j] for l in range(len(q))) for j in range(len(q[0]))]
            for i in range(len(pd))]


def edge_and_middle(rng, n):
    """Positions for insert_zero_rows on an n x n form: first, strictly
    inside, last."""
    return [0, rng.randint(1, n), n + 2]


class TestTriangleKernelHighRank:
    """Ranks 6-24, which the hypothesis tests (dim <= 5) never reach."""

    @pytest.mark.parametrize("seed", range(40))
    def test_sylvester_inertia(self, seed):
        # P^T D P with P unimodular has the inertia of the diagonal D
        rng = random.Random(seed)
        n = rng.randint(6, 24)
        d = [rng.choice((-3, -2, -1, 0, 1, 2, 3)) for _ in range(n)]
        d[rng.randrange(n)] = 0  # degenerate
        p = unimodular(rng, n)
        diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
        q = SymIntForm(tuple(map(tuple, congruent(p, diag, p))))
        expected = FormSignature(
            sum(x > 0 for x in d), sum(x < 0 for x in d), d.count(0)
        )
        assert form_signature(q) == expected
        assert form_signature(-q) == FormSignature(
            expected.negatives, expected.positives, expected.zeros
        )
        padded = insert_zero_rows(q, edge_and_middle(rng, n))
        assert form_signature(padded) == FormSignature(
            expected.positives, expected.negatives, expected.zeros + 3
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_hyperbolic_steps_only(self, seed):
        # [[0, B], [B^T, 0]] on a shuffled partition X, Y of the non-isolated
        # vertices has inertia (rank B, rank B, rest).  Every step splits off
        # a hyperbolic plane: the block left stays zero on X x X and Y x Y,
        # so its diagonal stays zero.  The isolated vertices are zero rows:
        # the pivot search passes over them, and they stay in the zero block
        # left at the end, one zero each.
        rng = random.Random(seed)
        n = rng.randint(6, 24)
        lead = rng.randint(1, 3)
        rest = rng.sample(range(lead, n), n - lead)
        xs, ys = rest[: len(rest) // 2], rest[len(rest) // 2 :]
        rank = rng.randint(1, min(len(xs), len(ys)))
        mid = [[rng.choice((-3, -2, -1, 1, 2, 3)) if i == j < rank else 0
                for j in range(len(ys))] for i in range(len(xs))]
        b = congruent(unimodular(rng, len(xs)), mid, unimodular(rng, len(ys)))
        m = [[0] * n for _ in range(n)]
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                m[x][y] = m[y][x] = b[i][j]
        q = SymIntForm(tuple(map(tuple, m)))
        assert form_signature(q) == FormSignature(rank, rank, n - 2 * rank)
        padded = insert_zero_rows(q, edge_and_middle(rng, n))
        assert form_signature(padded) == FormSignature(rank, rank, n + 3 - 2 * rank)
