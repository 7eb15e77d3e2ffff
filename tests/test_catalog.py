from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from duvalk3.ade import Basket
from duvalk3.catalog import (
    CatalogRow,
    InvariantViolation,
    ParseError,
    embedded_catalog,
    load_catalog,
    verify_row,
)


class TestEmbeddedCatalog:
    def test_nineteen_rows(self):
        assert len(embedded_catalog()) == 19

    def test_exactly_one_codim_two_row(self):
        codim2 = [r for r in embedded_catalog() if r.codim == 2]
        assert len(codim2) == 1
        row = codim2[0]
        assert row.weights == (1, 1, 2, 2, 2)
        assert row.degrees == (4, 4)
        assert row.basket == Basket.parse("4A_1")
        assert row.sigma == -12

    def test_every_row_is_canonically_trivial(self):
        for row in embedded_catalog():
            assert sum(row.degrees) == sum(row.weights), row.name

    def test_sigma_consistency(self):
        for row in embedded_catalog():
            assert row.sigma == -16 + row.basket.total_d, row.name

    def test_realized_signatures(self):
        assert {r.sigma for r in embedded_catalog()} == set(range(-16, 3))

    def test_minus_twelve_only_in_codim_two(self):
        codim1 = [r for r in embedded_catalog() if r.codim == 1]
        assert {r.sigma for r in codim1} == set(range(-16, 3)) - {-12}

    def test_three_not_realized(self):
        assert 3 not in {r.sigma for r in embedded_catalog()}


class TestVerifyRow:
    def test_all_rows_verify(self):
        for row in embedded_catalog():
            report = verify_row(row)
            assert report.ok, f"{row.name}: {report.mismatches()}"

    def test_codim_two_row_checks_sigma_only(self):
        (row,) = [r for r in embedded_catalog() if r.codim == 2]
        report = verify_row(row)
        assert [c.field for c in report.checks] == ["sigma"]
        assert report.ok

    def test_corrupted_basket_is_reported(self):
        # internally consistent (sigma = -16 + 2) but wrong for the weights
        row = CatalogRow(
            name="F_5 ⊂ P(1,1,1,2)",
            weights=(1, 1, 1, 2),
            degrees=(5,),
            basket=Basket.parse("A_2"),
            sigma=-14,
        )
        row.validate()
        report = verify_row(row)
        assert not report.ok
        fields = {c.field for c in report.mismatches()}
        assert fields == {"basket", "sigma"}

    @pytest.mark.parametrize("tokens", ["-", "A_1", "4A_1", "A_1 A_7 A_10"])
    def test_swapped_basket_is_reported_not_raised(self, tokens):
        basket = Basket.parse(tokens)
        for row in embedded_catalog():
            swapped = replace(row, basket=basket, sigma=-16 + basket.total_d)
            report = verify_row(swapped)
            fields = [c.field for c in report.checks]
            if row.codim == 1:
                assert fields == ["well_formed", "quasismooth", "basket", "sigma"]
                assert report.ok == (basket == row.basket), row.name
            else:
                assert fields == ["sigma"] and report.ok


class TestLoadCatalog:
    def test_empty_input(self):
        assert load_catalog("") == []
        assert load_catalog("# only a comment\n\n") == []

    def test_round_trip(self):
        for row in embedded_catalog():
            (parsed,) = load_catalog(row.format())
            assert parsed == row

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_catalog("# header\nonly | four | fields | here\n")

    def test_bad_weights(self):
        with pytest.raises(ParseError):
            load_catalog("X | 1,two,3,4 | 10 | - | -16\n")

    def test_empty_int_fields(self):
        with pytest.raises(ParseError, match="line 1: bad weights ''$"):
            load_catalog("X |  | 4 | - | -16\n")
        with pytest.raises(ParseError, match="line 1: bad degrees ''$"):
            load_catalog("X | 1,1,1,1 |  | - | -16\n")

    def test_bad_basket_token(self):
        with pytest.raises(ParseError):
            load_catalog("X | 1,1,1,1 | 4 | Z_9 | -16\n")

    def test_bad_sigma(self):
        with pytest.raises(ParseError):
            load_catalog("X | 1,1,1,1 | 4 | - | minus\n")

    def test_sigma_invariant_enforced(self):
        with pytest.raises(InvariantViolation):
            load_catalog("X | 1,1,1,1 | 4 | - | -15\n")

    def test_canonical_triviality_enforced(self):
        with pytest.raises(InvariantViolation):
            load_catalog("X | 1,1,1,1 | 5 | - | -16\n")

    def test_weight_count_enforced(self):
        with pytest.raises(InvariantViolation):
            load_catalog("X | 1,1,1,1,1 | 5 | - | -16\n")

    def test_bound_enforced(self):
        with pytest.raises(InvariantViolation):
            load_catalog("X | 2,5,6,7 | 20 | 4A_5 | 4\n")


# (name, weights, degrees, basket, sigma) of rows that break one rule each,
# with the message both construction and loading give for them
INCONSISTENT_ROWS = [
    pytest.param(("X", (0, 1, 1, 2), (4,), "-", -16),
                 "X: weights must be positive", id="weight"),
    pytest.param(("X", (1, 1, 1, 1), (-4,), "-", -16),
                 "X: degrees must be positive", id="degree"),
    pytest.param(("X", (1,) * 6, (2, 2, 2), "-", -16),
                 "X: codimension must be 1 or 2", id="codim_3"),
    pytest.param(("X", (1,) * 5, (5,), "-", -16),
                 "X: a K3 in codimension 1 needs 4 weights", id="weight_count"),
    pytest.param(("X", (1, 1, 1, 1), (5,), "-", -16),
                 "X: canonical triviality needs sum(degrees) = sum(weights)",
                 id="canonical_triviality"),
    pytest.param(("X", (1, 1, 1, 1), (4,), "-", -15),
                 "X: sigma -15 != -16 + total_d = -16", id="sigma"),
    pytest.param(("X", (2, 5, 6, 7), (20,), "4A_5", 4),
                 "X: basket exceeds 19 curves", id="twenty_curves"),
    pytest.param(("", (1, 1, 1, 1), (4,), "-", -16),
                 "name '' must be one non-empty line with no '|', no leading '#' "
                 "and no surrounding whitespace", id="empty_name"),
]

# characters that a catalog line splits on, strips or reads as a comment
_LINE_SYNTAX = " \t\n\r\x0b\x0c\x1c\x85\u2028|#"


class TestRowConstruction:
    @pytest.mark.parametrize("fields, message", INCONSISTENT_ROWS)
    def test_inconsistent_row_cannot_be_built(self, fields, message):
        name, weights, degrees, tokens, sigma = fields
        with pytest.raises(InvariantViolation) as built:
            CatalogRow(name, weights, degrees, Basket.parse(tokens), sigma)
        line = " | ".join(
            (name, ",".join(map(str, weights)), ",".join(map(str, degrees)),
             tokens, str(sigma))
        )
        with pytest.raises(InvariantViolation) as loaded:
            load_catalog(line + "\n")
        assert str(built.value) == str(loaded.value) == message

    @pytest.mark.parametrize("fields", [
        pytest.param(("F_4", (1, 1, 1, 1), (4,), "-", -16.0), id="sigma_float"),
        pytest.param(("F_4", (1, 1, 1, 1), (4,), "A_17", True), id="sigma_bool"),
        pytest.param(("F_4", (1, 1, 1, 1.0), (4,), "-", -16), id="weight_float"),
        pytest.param(("F_{4,4}", (1, 1, 2, 2, 2), (4.0, 4), "4A_1", -12),
                     id="codim_2_degree_float"),
    ])
    def test_non_int_field_cannot_be_built(self, fields):
        # each used to build: a sigma of -16.0 or True was printed as it was,
        # and the codim-2 row with degrees (4.0, 4) verified ok
        name, weights, degrees, tokens, sigma = fields
        with pytest.raises(ValueError, match=r"^(weights|degrees|sigma) must be (an int|ints), got "):
            CatalogRow(name, weights, degrees, Basket.parse(tokens), sigma)

    @pytest.mark.parametrize("name", [
        "", "  ", "a|b", "F\n4", "F_4\r", "F\u20284", " F_6 ", "F_6\t", "# x", "#",
    ])
    def test_name_no_line_reads_back_cannot_be_built(self, name):
        # each used to build a row that format() wrote and load_catalog
        # refused, split, stripped or skipped as a comment
        with pytest.raises(InvariantViolation, match=r"^name .* must be one non-empty line"):
            CatalogRow(name, (1, 1, 1, 1), (4,), Basket(), -16)

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.one_of(st.sampled_from(_LINE_SYNTAX), st.characters()), max_size=6))
    def test_every_name_is_refused_or_round_trips(self, name):
        try:
            row = CatalogRow(name, (1, 1, 1, 1), (4,), Basket(), -16)
        except InvariantViolation:
            return
        assert load_catalog(row.format()) == [row]
