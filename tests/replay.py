"""Replay the golden corpus through `duvalk3.cli.main`, without pytest.

    python tests/replay.py

Runs every record of `golden_records.GOLDEN_RECORDS` in one process with
DUVALK3_CATALOG unset, compares the captured stdout with the record's file
byte for byte and the return value with its exit code, and requires an
empty stderr where the exit code is 0.  Prints one line per mismatch and a
summary; exits 1 on any mismatch, else 0.  Needs only the standard library
and the `src/` tree, so any interpreter can run it before anything is
installed.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from duvalk3.cli import CATALOG_ENV, EX_OK, main  # noqa: E402
from golden_records import GOLDEN, GOLDEN_RECORDS  # noqa: E402


def replay() -> list[str]:
    """One line for each record whose exit code, stdout or stderr is wrong."""
    os.environ.pop(CATALOG_ENV, None)
    problems = []
    for argv, golden, exit_code in GOLDEN_RECORDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        wrong = []
        if code != exit_code:
            wrong.append(f"exit {code}, expected {exit_code}")
        if out.getvalue().encode("utf-8") != (GOLDEN / golden).read_bytes():
            wrong.append(f"stdout differs from {golden}")
        if exit_code == EX_OK and err.getvalue():
            wrong.append(f"stderr {err.getvalue()!r}")
        if wrong:
            problems.append(f"{' '.join(argv) or '(no arguments)'}: {'; '.join(wrong)}")
    return problems


if __name__ == "__main__":
    problems = replay()
    for line in problems:
        print(line)
    total = len(GOLDEN_RECORDS)
    print(f"golden replay: {total - len(problems)}/{total} records match "
          f"(Python {sys.version.split()[0]})")
    sys.exit(1 if problems else 0)
