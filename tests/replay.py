"""Replay the golden corpus through `duvalk3.cli.main`, without pytest.

    python tests/replay.py

Checks every record of `golden_records.GOLDEN_RECORDS` with
`golden_records.mismatches`, in one process with DUVALK3_CATALOG unset.
Prints one line per mismatched record and a summary; exits 1 on any
mismatch, else 0.  Needs only the standard library and the `src/` tree, so
any interpreter can run it before anything is installed.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from duvalk3.cli import CATALOG_ENV  # noqa: E402
from golden_records import GOLDEN_RECORDS, mismatches  # noqa: E402

if __name__ == "__main__":
    os.environ.pop(CATALOG_ENV, None)
    failed = 0
    for argv, golden, exit_code in GOLDEN_RECORDS:
        wrong = mismatches(argv, golden, exit_code)
        if wrong:
            failed += 1
            print(f"{' '.join(argv) or '(no arguments)'}: {'; '.join(wrong)}")
    total = len(GOLDEN_RECORDS)
    print(f"golden replay: {total - failed}/{total} records match "
          f"(Python {sys.version.split()[0]})")
    sys.exit(1 if failed else 0)
