import random
from decimal import Decimal
from fractions import Fraction

import pytest

from duvalk3.homology import (
    CoveringMap,
    DimensionMismatch,
    FormalClass,
    Generator,
    SpaceLabel,
    UnknownGenerator,
    fundamental_class,
    l_class_surface,
    product_class,
    product_space,
    pushforward,
    transfer,
)

F = SpaceLabel("F", 4)
E = SpaceLabel("E", 2)
X = SpaceLabel("X", 6)


def gen(label, degree, space):
    return Generator(label, degree, space)


class TestSpacesAndGenerators:
    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            SpaceLabel("Y", 3)

    def test_degree_above_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            Generator("g", 6, F)

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            Generator("g", 1, E)


class TestFormalClass:
    def test_zero_coefficients_dropped(self):
        c = FormalClass({gen("pt", 0, F): 0, gen("[F]", 4, F): 1})
        assert len(c.items()) == 1
        assert c.coefficient(gen("pt", 0, F)) == 0

    def test_mixed_spaces_rejected(self):
        with pytest.raises(ValueError):
            FormalClass({gen("pt", 0, F): 1, gen("pt", 0, E): 1})

    def test_arithmetic(self):
        pt = gen("pt", 0, F)
        f = gen("[F]", 4, F)
        a = FormalClass({pt: 2, f: 1})
        b = FormalClass({pt: -2, f: Fraction(1, 3)})
        assert (a + b) == FormalClass({f: Fraction(4, 3)})
        assert 3 * b == FormalClass({pt: -6, f: 1})

    def test_one_canonical_coefficient_per_value(self):
        g = gen("pt", 0, F)
        classes = [FormalClass({g: c}) for c in (3, Fraction(3), Fraction(6, 2))]
        assert all(c == classes[0] and hash(c) == hash(classes[0]) for c in classes)
        assert {str(c) for c in classes} == {"3·pt"}
        assert all(type(c.coefficient(g)) is int for c in classes)
        assert type(FormalClass({g: Fraction(1, 2)}).scale(2).coefficient(g)) is int
        with pytest.raises(ValueError, match=r"^coefficient of pt must be an int or a Fraction, got 0\.5$"):
            FormalClass({g: 0.5})
        with pytest.raises(ValueError, match=r"^scale factor must be an int or a Fraction, got 0\.5$"):
            FormalClass({g: Fraction(1, 3)}).scale(0.5)

    @pytest.mark.parametrize("c", [True, 0.5, 0.1, 0.0, Decimal("0.1"), "1/3"], ids=repr)
    def test_inexact_coefficients_refused(self, c):
        # 0.1 used to become 3602879701896397/36028797018963968, "1/3" was
        # parsed and True counted as 1
        g = gen("pt", 0, F)
        with pytest.raises(ValueError, match=r"^coefficient of pt must be an int or a Fraction, got "):
            FormalClass({g: c})
        with pytest.raises(ValueError, match=r"^scale factor must be an int or a Fraction, got "):
            FormalClass({g: 1}).scale(c)
        with pytest.raises(ValueError, match=r"^scale factor must be an int or a Fraction, got "):
            c * FormalClass()

    def test_comparison_with_a_non_class(self):
        c = FormalClass({gen("pt", 0, F): 1})
        assert c.__eq__(1) is NotImplemented
        assert (c == 1, c != 1) == (False, True)

    def test_str_of_zero_and_of_minus_one(self):
        assert str(FormalClass()) == "0"
        c = FormalClass({gen("pt", 0, F): -1, gen("[F]", 4, F): -1})
        assert str(c) == "-pt - [F]"

    def test_str_uses_lowest_terms(self):
        c = FormalClass({gen("p_*[pt_F×E]", 2, X): Fraction(-11, 2), gen("[X]", 6, X): 1})
        assert str(c) == "-11/2·p_*[pt_F×E] + [X]"


class TestLClassSurface:
    def test_smooth_k3(self):
        c = l_class_surface(-16, F)
        assert c == FormalClass({gen("pt", 0, F): -16, gen("[F]", 4, F): 1})

    def test_zero_signature_is_fundamental_class(self):
        assert l_class_surface(0, F) == fundamental_class(F)

    def test_positive_signature(self):
        assert l_class_surface(2, F).coefficient(gen("pt", 0, F)) == 2

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            l_class_surface(0, E)


class TestProductClass:
    def test_surface_times_curve(self):
        lf = l_class_surface(-16, F)
        le = fundamental_class(E)
        prod = product_class(lf, le)
        fe = product_space(F, E)
        assert prod == FormalClass(
            {gen("pt×[E]", 2, fe): -16, gen("[F]×[E]", 6, fe): 1}
        )

    def test_fundamental_times_fundamental(self):
        prod = product_class(fundamental_class(F), fundamental_class(E))
        assert [g.label for g, _ in prod.items()] == ["[F]×[E]"]

    def test_bilinearity_with_zero(self):
        assert product_class(FormalClass(), fundamental_class(E)).is_zero

    def test_bilinearity_in_scalars(self):
        a = l_class_surface(3, F)
        b = fundamental_class(E)
        assert product_class(2 * a, b) == 2 * product_class(a, b)

    def test_associative_up_to_relabeling(self):
        c1 = l_class_surface(-2, F)
        c2 = fundamental_class(E)
        c3 = fundamental_class(SpaceLabel("G", 0))
        left = product_class(product_class(c1, c2), c3)
        right = product_class(c1, product_class(c2, c3))
        assert left == right


def make_cover(d=3):
    fe = product_space(F, E)
    pt_e = gen("pt×[E]", 2, fe)
    fund = gen("[F]×[E]", 6, fe)
    mid = gen("p_*[pt_F×E]", 2, X)
    fund_x = gen("[X]", 6, X)
    return CoveringMap(
        source=fe,
        target=X,
        degree=d,
        pushforward_table={
            pt_e: FormalClass({mid: 1}),
            fund: FormalClass({fund_x: d}),
        },
        transfer_table={
            mid: FormalClass({pt_e: d}),
            fund_x: FormalClass({fund: 1}),
        },
    )


class TestCoveringMap:
    def test_pushforward_fundamental(self):
        p = make_cover(d=4)
        fe = product_space(F, E)
        assert pushforward(p, FormalClass({gen("[F]×[E]", 6, fe): 1})) == FormalClass(
            {gen("[X]", 6, X): 4}
        )

    def test_pushforward_zero(self):
        assert pushforward(make_cover(), FormalClass()).is_zero

    def test_pushforward_l_class_divides_by_degree(self):
        d = 2
        p = make_cover(d)
        lfe = product_class(l_class_surface(-16, F), fundamental_class(E))
        lx = pushforward(p, lfe).scale(Fraction(1, d))
        assert lx == FormalClass(
            {gen("p_*[pt_F×E]", 2, X): Fraction(-16, d), gen("[X]", 6, X): 1}
        )

    def test_transfer_fundamental(self):
        p = make_cover()
        fe = product_space(F, E)
        assert transfer(p, fundamental_class(X)) == FormalClass(
            {gen("[F]×[E]", 6, fe): 1}
        )

    def test_transfer_zero(self):
        assert transfer(make_cover(), FormalClass()).is_zero

    def test_transfer_then_pushforward_is_degree(self):
        rng = random.Random(7)
        for d in range(1, 13):
            p = make_cover(d)
            c = FormalClass(
                {
                    gen("p_*[pt_F×E]", 2, X): Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    gen("[X]", 6, X): Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                }
            )
            assert pushforward(p, transfer(p, c)) == d * c

    def test_unknown_generator(self):
        p = make_cover()
        stray = FormalClass({gen("mystery", 2, product_space(F, E)): 1})
        with pytest.raises(UnknownGenerator):
            pushforward(p, stray)
        with pytest.raises(UnknownGenerator):
            transfer(p, FormalClass({gen("mystery", 2, X): 1}))

    def test_wrong_space_rejected(self):
        with pytest.raises(ValueError, match=r"^class lives on X, not on F×E$"):
            pushforward(make_cover(), fundamental_class(X))
        with pytest.raises(ValueError, match=r"^class lives on F×E, not on X$"):
            transfer(make_cover(), fundamental_class(product_space(F, E)))

    def test_inconsistent_transfer_table_rejected(self):
        fe = product_space(F, E)
        fund = gen("[F]×[E]", 6, fe)
        fund_x = gen("[X]", 6, X)
        with pytest.raises(ValueError):
            CoveringMap(
                source=fe,
                target=X,
                degree=3,
                pushforward_table={fund: FormalClass({fund_x: 3})},
                transfer_table={fund_x: FormalClass({fund: 2})},  # gives 6, not 3
            )


_T, _B = SpaceLabel("T", 4), SpaceLabel("B", 4)
_LIFT, _FUND = gen("[T]", 4, _T), gen("[B]", 4, _B)


def _cover_args(**changes):
    """Arguments of a valid degree-2 cover T -> B of surfaces, with changes."""
    args = dict(source=_T, target=_B, degree=2,
                pushforward_table={_LIFT: FormalClass({_FUND: 2})},
                transfer_table={_FUND: FormalClass({_LIFT: 1})})
    args.update(changes)
    return args


class TestCoveringMapConstruction:
    def test_valid_cover_builds(self):
        assert CoveringMap(**_cover_args()).degree == 2

    @pytest.mark.parametrize("degree", [2.5, Fraction(5, 2)], ids=repr)
    def test_degree_must_be_an_int(self, degree):
        # a degree of 2.5 used to pass the p_* p_! = d check; True, 2.0 and
        # Fraction(2) are refused at every guard site in test_search.py
        with pytest.raises(ValueError, match=r"^covering degree must be an int, got "):
            CoveringMap(**_cover_args(degree=degree))

    @pytest.mark.parametrize(("changes", "error", "message"), [
        pytest.param({"degree": 0}, ValueError, r"^covering degree must be >= 1, got 0$",
                     id="degree_0"),
        pytest.param({"target": SpaceLabel("B", 2)}, DimensionMismatch,
                     r"^a covering map preserves dimension$", id="dimensions"),
        pytest.param({"pushforward_table": {_FUND: FormalClass({_FUND: 2})}},
                     ValueError, r"^table key \[B\] not on T$", id="key_off_space"),
        pytest.param({"pushforward_table": {_LIFT: FormalClass({_LIFT: 2})}},
                     ValueError, r"^table image of \[T\] not on B$", id="image_off_space"),
        pytest.param({"transfer_table": {_FUND: FormalClass({gen("pt", 0, _T): 1})}},
                     DimensionMismatch, r"^table image of \[B\] is not degree-preserving$",
                     id="image_of_another_degree"),
    ])
    def test_construction_checks(self, changes, error, message):
        with pytest.raises(error, match=message):
            CoveringMap(**_cover_args(**changes))
