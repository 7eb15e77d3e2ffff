import pytest

from duvalk3.cli import (
    CATALOG_ENV,
    EX_DATAERR,
    EX_NOINPUT,
    EX_OK,
    EX_REJECT,
    EX_USAGE,
    build_parser,
    main,
)
from golden_records import GOLDEN, GOLDEN_RECORDS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasketCommand:
    def test_table_row(self, capsys):
        code, out, _ = run(capsys, "basket", "1", "2", "3", "3", "--degree", "9")
        assert code == EX_OK
        assert "A_1 3A_2" in out
        assert "-9" in out

    def test_smooth_quartic_prints_empty(self, capsys):
        code, out, _ = run(capsys, "basket", "1", "1", "1", "1", "--degree", "4")
        assert code == EX_OK
        assert "(empty)" in out
        assert "-16" in out

    def test_non_k3_degree_prints_no_sigma(self, capsys):
        code, out, _ = run(capsys, "basket", "1", "1", "1", "1", "--degree", "5")
        assert code == EX_OK
        assert out.splitlines() == [
            "family: F_5 ⊂ P(1,1,1,1)", "basket: (empty)", "sigma:  -"
        ]
        code, out, _ = run(
            capsys, "basket", "1", "1", "1", "1", "--degree", "5", "--format", "tsv"
        )
        assert code == EX_OK
        assert out.strip().split("\t") == ["F_5 ⊂ P(1,1,1,1)", "-", "-"]

    def test_not_well_formed_rejected(self, capsys):
        code, _, err = run(capsys, "basket", "2", "2", "2", "3", "--degree", "9")
        assert code == EX_REJECT
        assert "well-formed" in err

    def test_not_quasismooth_rejected(self, capsys):
        code, _, err = run(capsys, "basket", "1", "1", "2", "2", "--degree", "3")
        assert code == EX_REJECT
        assert "quasismooth" in err

    def test_not_du_val_rejected(self, capsys):
        code, _, err = run(capsys, "basket", "1", "1", "5", "5", "--degree", "10")
        assert code == EX_REJECT
        assert "du Val" in err

    def test_wrong_arity_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "basket", "1", "2", "3", "--degree", "6")
        assert code == EX_USAGE

    def test_non_integer_weight_is_usage_error(self, capsys):
        code, out, err = run(capsys, "basket", "x", "1", "1", "1", "--degree", "4")
        assert (code, out) == (EX_USAGE, "")
        assert "not an integer" in err

    def test_nonpositive_weight_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "basket", "0", "1", "1", "1", "--degree", "4")
        assert code == EX_USAGE

    def test_tsv_format(self, capsys):
        code, out, _ = run(
            capsys, "basket", "1", "2", "2", "5", "--degree", "10", "--format", "tsv"
        )
        assert code == EX_OK
        assert out.strip().split("\t") == ["F_10 ⊂ P(1,2,2,5)", "5A_1", "-11"]

    def test_huge_degree_finishes(self, capsys):
        # quasismooth counts monomials in closed form, one count per singular edge,
        # so d = 10^6 is quick
        code, out, _ = run(capsys, "basket", "1", "1", "1", "2", "--degree", "1000000")
        assert code == EX_OK
        assert "basket: (empty)" in out.splitlines()

    def test_huge_weights_finish(self, capsys):
        # P(1,1,10^6,10^6+1) passes quasismooth without memory that grows with
        # the weights; its vertex 1/10^6(1,1) is then refused
        code, out, err = run(
            capsys, "basket", "1", "1", "1000000", "1000001", "--degree", "1000001000001"
        )
        assert code == EX_REJECT
        assert out == ""
        assert "is not du Val" in err

    @pytest.mark.parametrize("degree", ["2000", "2000000"])
    def test_computed_basket_past_rank_cap_rejected(self, capsys, degree):
        # d/2 points 1/2(1,1) on the (2,2) edge: more than 64 curves of one type
        code, out, err = run(capsys, "basket", "1", "1", "2", "2", "--degree", degree)
        assert code == EX_REJECT
        assert out == ""
        assert "outside [1, 64]" in err


class TestSigmaCommand:
    def test_basket_tokens(self, capsys):
        code, out, _ = run(capsys, "sigma", "5A_1")
        assert code == EX_OK
        assert out.strip() == "-11"

    def test_multiple_tokens(self, capsys):
        code, out, _ = run(capsys, "sigma", "A_1", "A_7", "A_10")
        assert code == EX_OK
        assert out.strip() == "2"

    def test_irregular_surface(self, capsys):
        code, out, _ = run(capsys, "sigma", "--q", "1", "-")
        assert code == EX_OK
        assert out.strip() == "0"

    def test_bad_token_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "sigma", "B_2")
        assert code == EX_USAGE

    def test_bound_violation_rejected(self, capsys):
        code, _, err = run(capsys, "sigma", "A_19", "A_1")
        assert code == EX_REJECT
        assert "19" in err

    def test_multiplicity_past_rank_cap_is_usage_error(self, capsys):
        assert run(capsys, "sigma", "A_65")[0] == EX_USAGE
        assert run(capsys, "sigma", "65A_1")[0] == EX_USAGE
        assert run(capsys, "sigma", "20A_1")[0] == EX_REJECT


class TestPlumbingCommand:
    def test_prints_form_and_signature(self, capsys):
        code, out, _ = run(capsys, "plumbing", "A_3")
        assert code == EX_OK
        assert "sigma = -3" in out
        assert "(0, 3, 0)" in out

    def test_cartan_flag(self, capsys):
        code, out, _ = run(capsys, "plumbing", "A_2", "--cartan")
        assert code == EX_OK
        assert "sigma = 2" in out

    def test_euler_weight(self, capsys):
        code, out, _ = run(capsys, "plumbing", "A_1", "--euler-weight", "3")
        assert code == EX_OK
        assert "sigma = 1" in out

    def test_bad_type_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "plumbing", "F_4")
        assert code == EX_USAGE


class TestTableVerify:
    def test_embedded_catalog_passes(self, capsys):
        code, out, _ = run(capsys, "table", "verify")
        assert code == EX_OK
        assert "19 rows: 19 ok, 0 mismatched" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "table", "verify", "--catalog", "missing.txt")
        assert code == EX_NOINPUT
        assert "cannot open" in err

    def test_multiplicity_past_rank_cap_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "big.txt"
        bad.write_text("X | 1,1,1,1 | 4 | 1000A_1 | 984\n", encoding="utf-8")
        code, _, err = run(capsys, "table", "verify", "--catalog", str(bad))
        assert code == EX_DATAERR
        assert "outside [1, 64]" in err

    def test_non_utf8_file_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"F_4 | 1,1,1,1 | 4 | - | -16\xff\n")
        code, out, err = run(capsys, "table", "verify", "--catalog", str(bad))
        assert code == EX_DATAERR
        assert out == ""
        assert err.startswith("catalog error: 'utf-8' codec can't decode byte 0xff")
        assert "Traceback" not in err

    @pytest.mark.parametrize(("first_line", "verified"), [
        ("# a comment", "ok        F_5\n"),
        ("F_4 | 1,1,1,1 | 4 | - | -16", "ok        F_4\nok        F_5\n"),
    ])
    def test_byte_order_mark_is_not_text(self, capsys, tmp_path, first_line, verified):
        # read as utf-8, the mark made a leading comment a one-field row
        # (exit 65) and a leading row verify under the name '\ufeffF_4'
        fixture = tmp_path / "bom.txt"
        fixture.write_text(first_line + "\nF_5 | 1,1,1,2 | 5 | A_1 | -15\n", encoding="utf-8-sig")
        assert fixture.read_bytes().startswith(b"\xef\xbb\xbf")
        code, out, err = run(capsys, "table", "verify", "--catalog", str(fixture))
        assert (code, err) == (EX_OK, "")
        assert out.startswith(verified) and "\ufeff" not in out

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a row\n", encoding="utf-8")
        code, _, err = run(capsys, "table", "verify", "--catalog", str(bad))
        assert code == EX_DATAERR
        assert "line 1" in err

    def test_mismatch_reported(self, capsys, tmp_path):
        fixture = tmp_path / "wrong.txt"
        fixture.write_text(
            "F_5 ⊂ P(1,1,1,2) | 1,1,1,2 | 5 | A_2 | -14\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "table", "verify", "--catalog", str(fixture))
        assert code == EX_REJECT
        assert "MISMATCH" in out

    def test_basket_errors_whole_stdout(self, capsys, tmp_path):
        fixture = tmp_path / "errors.txt"
        fixture.write_text(
            "F_7 ⊂ P(1,1,1,4) | 1,1,1,4 | 7 | - | -16\n"
            "F_7 ⊂ P(1,2,2,2) | 1,2,2,2 | 7 | - | -16\n"
            "F_8 ⊂ P(2,2,2,2) | 2,2,2,2 | 8 | - | -16\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "table", "verify", "--catalog", str(fixture))
        assert code == EX_REJECT
        assert out == "\n".join([
            "MISMATCH  F_7 ⊂ P(1,1,1,4)",
            "          quasismooth: stored True, recomputed False",
            "          basket: stored -, recomputed error: "
            "vertex 3 of F_7 ⊂ P(1,1,1,4): no l with 4 | d - a_l",
            "MISMATCH  F_7 ⊂ P(1,2,2,2)",
            "          well_formed: stored True, recomputed False",
            "          quasismooth: stored True, recomputed False",
            "          basket: stored -, recomputed error: "
            "vertex 1 of F_7 ⊂ P(1,2,2,2): 1/2(0, 0) is not isolated: gcd(0,2) > 1",
            "MISMATCH  F_8 ⊂ P(2,2,2,2)",
            "          well_formed: stored True, recomputed False",
            "          basket: stored -, recomputed error: "
            "edge (0,1) of F_8 ⊂ P(2,2,2,2): 1/2(0, 0) is not isolated: gcd(0,2) > 1",
            "verified 3 rows: 0 ok, 3 mismatched; signatures {-16}",
        ]) + "\n"

    def test_env_var_default(self, capsys, tmp_path, monkeypatch):
        fixture = tmp_path / "cat.txt"
        fixture.write_text(
            "F_4 ⊂ P(1,1,1,1) | 1,1,1,1 | 4 | - | -16\n", encoding="utf-8"
        )
        monkeypatch.setenv(CATALOG_ENV, str(fixture))
        code, out, _ = run(capsys, "table", "verify")
        assert code == EX_OK
        assert "1 rows: 1 ok" in out

    def test_empty_catalog_path_does_not_fall_back(self, capsys, tmp_path, monkeypatch):
        fixture = tmp_path / "cat.txt"
        fixture.write_text(
            "F_4 ⊂ P(1,1,1,1) | 1,1,1,1 | 4 | - | -16\n", encoding="utf-8"
        )
        monkeypatch.setenv(CATALOG_ENV, str(fixture))
        code, out, err = run(capsys, "table", "verify", "--catalog", "")
        assert code == EX_NOINPUT
        assert out == "" and err.startswith("cannot open catalog: ")

    def test_empty_env_var_means_embedded(self, capsys, monkeypatch):
        monkeypatch.setenv(CATALOG_ENV, "")
        code, out, _ = run(capsys, "table", "verify")
        assert code == EX_OK
        assert "verified 19 rows: 19 ok" in out


class TestBsyCommand:
    def test_q1_table_row(self, capsys):
        code, out, _ = run(
            capsys, "bsy", "--q", "1", "--basket", "5A_1", "--degree", "2"
        )
        assert code == EX_OK
        assert out.count("-11/2·p_*[pt_F×E] + [X]") == 2  # both routes printed
        assert "PASS" in out

    def test_q3(self, capsys):
        code, out, _ = run(capsys, "bsy", "--q", "3")
        assert code == EX_OK
        assert "PASS" in out

    @pytest.mark.parametrize(
        "basket, code, message",
        [
            ("B_2", EX_USAGE, "error: bad ADE type token"),
            ("20A_1", EX_REJECT, "rejected: basket has 20 exceptional curves"),
        ],
    )
    def test_bad_basket_refused(self, capsys, basket, code, message):
        got, out, err = run(capsys, "bsy", "--q", "1", "--basket", basket)
        assert (got, out) == (code, "")
        assert message in err

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (
                ("--q", "1", "--basket", "5A_1", "--degree", "2"),
                [
                    "q(X) = 1, cover degree 2, fiber: surface with basket 5A_1, q(F)=0",
                    "sigma(fiber) = -11",
                    "Hodge route:       T(X) = -11/2·p_*[pt_F×E] + [X]",
                    "topological route: L(X) = -11/2·p_*[pt_F×E] + [X]",
                    "verdict: PASS",
                ],
            ),
            (
                ("--q", "1", "--fiber-q", "2", "--degree", "3"),
                [
                    "q(X) = 1, cover degree 3, fiber: surface with basket -, q(F)=2",
                    "sigma(fiber) = 0",
                    "Hodge route:       T(X) = [X]",
                    "topological route: L(X) = [X]",
                    "verdict: PASS",
                ],
            ),
            (
                ("--q", "2", "--degree", "4"),
                [
                    "q(X) = 2, cover degree 4, fiber: curve",
                    "sigma(fiber) = 0",
                    "Hodge route:       T(X) = [X]",
                    "topological route: L(X) = [X]",
                    "verdict: PASS",
                ],
            ),
            (
                ("--q", "3"),
                [
                    "q(X) = 3, cover degree 1, fiber: point",
                    "sigma(fiber) = 0",
                    "Hodge route:       T(X) = [X]",
                    "topological route: L(X) = [X]",
                    "verdict: PASS",
                ],
            ),
            (
                ("--q", "1", "--basket", "-", "--degree", "7"),
                [
                    "q(X) = 1, cover degree 7, fiber: surface with basket -, q(F)=0",
                    "sigma(fiber) = -16",
                    "Hodge route:       T(X) = -16/7·p_*[pt_F×E] + [X]",
                    "topological route: L(X) = -16/7·p_*[pt_F×E] + [X]",
                    "verdict: PASS",
                ],
            ),
        ],
    )
    def test_whole_stdout(self, capsys, argv, lines):
        code, out, _ = run(capsys, "bsy", *argv)
        assert code == EX_OK
        assert out == "\n".join(lines) + "\n"

    def test_invalid_q_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "bsy", "--q", "4")
        assert code == EX_USAGE

    def test_basket_with_q2_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "bsy", "--q", "2", "--basket", "A_1")
        assert code == EX_USAGE

    @pytest.mark.parametrize("q", ["2", "3"])
    def test_fiber_q_with_q2_or_q3_is_usage_error(self, capsys, q):
        code, out, err = run(capsys, "bsy", "--q", q, "--fiber-q", "2", "--degree", "3")
        assert code == EX_USAGE
        assert out == ""
        assert "--fiber-q" in err

    def test_fiber_q_flag(self, capsys):
        code, out, _ = run(capsys, "bsy", "--q", "1", "--fiber-q", "2")
        assert code == EX_OK
        assert "sigma(fiber) = 0" in out


class TestSearchCommand:
    def test_small_run_output_shape(self, capsys):
        code, out, _ = run(capsys, "search", "--max-weight", "4")
        assert code == EX_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("F_4 ⊂ P(1,1,1,1) | 1,1,1,1 | 4 | - | -16")
        assert lines[-1].startswith("# families:")

    def test_target_filter(self, capsys):
        code, out, _ = run(capsys, "search", "--max-weight", "6", "--target", "-15")
        assert code == EX_OK
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert all("| -15" in row for row in rows)
        assert rows  # F_5 is in range

    def test_jobs_do_not_change_output(self, capsys):
        _, serial, _ = run(capsys, "search", "--max-weight", "10")
        _, parallel, _ = run(capsys, "search", "--max-weight", "10", "--jobs", "3")
        assert serial == parallel

    def test_tsv_format(self, capsys):
        code, out, _ = run(capsys, "search", "--max-weight", "4", "--format", "tsv")
        assert code == EX_OK
        first = out.splitlines()[0]
        assert first.split("\t") == ["F_4 ⊂ P(1,1,1,1)", "1,1,1,1", "4", "-", "-16"]

    @pytest.mark.parametrize(
        "argv, golden, exit_code",
        GOLDEN_RECORDS,
        ids=[f"argv{i}-{golden}" for i, (_, golden, _) in enumerate(GOLDEN_RECORDS)],
    )
    def test_whole_stdout_matches_golden(self, capsys, monkeypatch, argv, golden, exit_code):
        # the corpus covers every command, not only search
        monkeypatch.delenv(CATALOG_ENV, raising=False)
        code, out, err = run(capsys, *argv)
        assert code == exit_code
        if exit_code == EX_OK:
            assert err == ""
        with open(GOLDEN / golden, encoding="utf-8", newline="") as fh:
            assert out == fh.read()

    def test_output_reloads_as_catalog(self, capsys, tmp_path):
        from duvalk3.catalog import load_catalog

        _, out, _ = run(capsys, "search", "--max-weight", "8")
        rows = load_catalog(out)
        assert all(row.codim == 1 for row in rows)


class TestSharedParser:
    """``main`` parses with one parser per process; no call may leave a trace
    in it for the next."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_golden_records_in_order_then_reversed(self, capsys, monkeypatch):
        monkeypatch.delenv(CATALOG_ENV, raising=False)
        for argv, golden, exit_code in GOLDEN_RECORDS + GOLDEN_RECORDS[::-1]:
            code, out, _ = run(capsys, *argv)
            assert code == exit_code, argv
            with open(GOLDEN / golden, encoding="utf-8", newline="") as fh:
                assert out == fh.read(), argv

    def test_usage_error_leaves_no_trace(self, capsys):
        argv = ("search", "--max-weight", "8", "--format", "tsv")
        first = run(capsys, *argv)
        assert run(capsys, "search", "--max-weight", "0", "--target", "3")[0] == EX_USAGE
        assert run(capsys, *argv) == first
        assert first[0] == EX_OK


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, *[])[0] == EX_USAGE

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == EX_OK
        assert "duvalk3" in out

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == EX_USAGE
