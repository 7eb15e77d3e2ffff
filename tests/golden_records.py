"""The golden corpus, read by `test_cli.py` and by the pytest-free `replay.py`."""

from pathlib import Path

from duvalk3.cli import EX_DATAERR, EX_NOINPUT, EX_OK, EX_REJECT, EX_USAGE

GOLDEN = Path(__file__).resolve().parent / "golden"

# (argv, file holding its exact stdout, exit code), captured from the tree
# before each change that could move them
GOLDEN_RECORDS = [
    (("search", "--stabilize"), "search_stabilize.txt", EX_OK),
    (("search", "--target", "3", "--max-weight", "60"),
     "search_target_3_max_weight_60.txt", EX_OK),
    (("search", "--max-weight", "30", "--format", "tsv"),
     "search_max_weight_30_tsv.txt", EX_OK),
    (("basket", "1", "2", "3", "3", "--degree", "9"), "basket_text.txt", EX_OK),
    (("basket", "1", "2", "3", "3", "--degree", "9", "--format", "tsv"),
     "basket_tsv.txt", EX_OK),
    (("basket", "1", "1", "1", "1", "--degree", "5"), "basket_non_k3_degree.txt", EX_OK),
    (("basket", "2", "2", "2", "3", "--degree", "9"),
     "basket_not_well_formed.txt", EX_REJECT),
    (("basket", "1", "1", "2", "2", "--degree", "3"),
     "basket_not_quasismooth.txt", EX_REJECT),
    (("basket", "1", "1", "5", "5", "--degree", "10"), "basket_not_du_val.txt", EX_REJECT),
    (("basket", "1", "1", "2", "2", "--degree", "2000"),
     "basket_past_rank_cap.txt", EX_REJECT),
    (("basket", "1", "2", "3", "--degree", "6"), "basket_wrong_arity.txt", EX_USAGE),
    (("sigma", "A_1", "3A_2"), "sigma.txt", EX_OK),
    (("sigma", "--q", "1", "-"), "sigma_q_1.txt", EX_OK),
    (("sigma", "B_2"), "sigma_bad_token.txt", EX_USAGE),
    (("sigma", "A_19", "A_1"), "sigma_bound_violation.txt", EX_REJECT),
    (("plumbing", "D_5"), "plumbing.txt", EX_OK),
    (("plumbing", "E_8", "--cartan"), "plumbing_cartan.txt", EX_OK),
    (("plumbing", "A_4", "--euler-weight", "2"), "plumbing_euler_weight_2.txt", EX_OK),
    (("plumbing", "F_4"), "plumbing_bad_type.txt", EX_USAGE),
    (("table", "verify"), "table_verify.txt", EX_OK),
    (("table", "verify", "--catalog", "no-such-dir/catalog.tsv"),
     "table_verify_missing_catalog.txt", EX_NOINPUT),
    (("bsy", "--q", "1", "--basket", "A_1 3A_2", "--degree", "3"), "bsy_q_1.txt", EX_OK),
    (("bsy", "--q", "2", "--degree", "2"), "bsy_q_2.txt", EX_OK),
    (("bsy", "--q", "3"), "bsy_q_3.txt", EX_OK),
    (("bsy", "--q", "2", "--basket", "A_1"), "bsy_basket_q_2.txt", EX_USAGE),
    ((), "no_command.txt", EX_USAGE),
    (("frobnicate",), "unknown_command.txt", EX_USAGE),
    (("search", "--max-weight", "0"), "search_max_weight_0.txt", EX_USAGE),
    (("table", "verify", "--catalog", str(GOLDEN / "malformed_catalog.txt")),
     "table_verify_malformed_catalog.txt", EX_DATAERR),
]
