"""Acceptance criteria 3 (ADE tube signatures), 5 (BSY equality on
3-folds), 7 (Reid's 95 families) and 8 (the sigma = 3 probe), without pytest.

    python tests/criteria.py

Criterion 3 computes the exact inertia of every negated Cartan matrix up to
rank 20 and cross-checks those up to rank 8 against the Sturm oracle.
Criterion 5 runs `bsy_check` for q = 1 over every basket of at most 19
curves and for q = 2, 3, each at cover degrees 1 to 8, and compares the
Hodge route's coefficients with the fiber signature over the degree.
Criteria 7 and 8 run `python -m duvalk3.cli search --stabilize`, then
`search --target 3` at the stabilized bound, as subprocesses with this
checkout's `src/` first on PYTHONPATH, and read their output with
`load_catalog`.  Each prints its `[criterion N]` line; the script exits 1
if a check fails or a criterion takes its bound (1 s, 10 s and 300 s) or
more, else 0.  Needs only the standard library and the `src/` tree, so any
interpreter can run it before anything is installed.
`tests/test_acceptance.py` runs the same functions under pytest.
"""

import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
if __name__ == "__main__":  # as a script, import the package from src/
    sys.path.insert(0, SRC)

from duvalk3.ade import ADEType, FormSignature, cartan_matrix, form_signature  # noqa: E402
from duvalk3.catalog import embedded_catalog, load_catalog  # noqa: E402
from duvalk3.homology import Generator, SpaceLabel, fundamental_class  # noqa: E402
from duvalk3.search import enumerate_baskets  # noqa: E402
from duvalk3.threefolds import KawamataDiagram, SurfaceModel, bsy_check  # noqa: E402
from sturm_oracle import signature_oracle  # noqa: E402

FLETCHER_BOUND = 19
ADE_TUBES = "ADE tube signatures (rank <= 20, Sturm cross-check <= 8)"
ADE_TUBES_BOUND_S = 1.0
BSY_SWEEP = "BSY equality on 3-folds (q in 1..3, d in 1..8)"
BSY_SWEEP_BOUND_S = 10.0
REIDS_95 = "Reid's 95 hypersurface families (search --stabilize)"
REIDS_95_BOUND_S = 300.0
SIGMA_PROBE = "sigma = 3 probe (search --target 3)"


def ade_tube_signatures() -> tuple[bool, int, float]:
    """Whether every ADE tube of rank at most 20 has inertia (0, rank, 0) and
    those of rank at most 8 match the Sturm oracle, how many types ran, and
    the seconds they took."""
    start = time.perf_counter()
    types = [ADEType("A", r) for r in range(1, 21)]
    types += [ADEType("D", r) for r in range(4, 21)]
    types += [ADEType("E", r) for r in (6, 7, 8)]
    diagonalization_ok = all(
        form_signature(-cartan_matrix(t)) == FormSignature(0, t.rank, 0) for t in types
    )
    oracle_ok = all(
        signature_oracle(-cartan_matrix(t)) == form_signature(-cartan_matrix(t))
        for t in types
        if t.rank <= 8
    )
    return diagonalization_ok and oracle_ok, len(types), time.perf_counter() - start


def bsy_sweep(all_baskets) -> tuple[bool, int, float]:
    """Whether every check of criterion 5 passed, how many ran, and the
    seconds they took; stops at the first degree with a failure."""
    start = time.perf_counter()
    checked = 0
    ok = True
    x_space = SpaceLabel("X", 6)
    mid = Generator("p_*[pt_F×E]", 2, x_space)
    for degree in range(1, 9):
        for basket, sigma in all_baskets:
            result = bsy_check(KawamataDiagram(1, degree, SurfaceModel(basket)))
            checked += 1
            if not result.passed:
                ok = False
                break
            if result.hodge_route.coefficient(mid) != Fraction(sigma, degree):
                ok = False
                break
        for q in (2, 3):
            result = bsy_check(KawamataDiagram(q, degree))
            checked += 1
            if not (result.passed and result.hodge_route == fundamental_class(x_space)):
                ok = False
        if not ok:
            break
    return ok, checked, time.perf_counter() - start


def run_cli(*argv: str) -> tuple[int, str]:
    """Exit code and stdout of `python -m duvalk3.cli argv` run on this
    checkout's `src/`; the child's stderr passes through."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "duvalk3.cli", *argv],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout


def reids_95() -> tuple[bool, int, int, int, float]:
    """Whether `search --stabilize` exits 0 with 95 families that hold the
    18 codim-1 catalog rows and realize every sigma in [-16, 2] but -12;
    the family count, the stabilized bound, the catalog rows found, and the
    seconds the command took."""
    start = time.perf_counter()
    code, out = run_cli("search", "--stabilize")
    elapsed = time.perf_counter() - start
    if code:
        return False, 0, 0, 0, elapsed
    rows = load_catalog(out)
    bound = int(re.search(r"max weight: (\d+)", out.strip().splitlines()[-1]).group(1))
    catalog_keys = {
        (row.weights, row.degrees, row.basket.tokens(), row.sigma)
        for row in embedded_catalog()
        if row.codim == 1
    }
    found = {(row.weights, row.degrees, row.basket.tokens(), row.sigma) for row in rows}
    ok = (
        len(rows) == 95
        and catalog_keys <= found
        and {row.sigma for row in rows} == set(range(-16, 3)) - {-12}
    )
    return ok, len(rows), bound, len(catalog_keys & found), elapsed


def sigma_three_probe(bound: int) -> bool:
    """Whether `search --target 3 --max-weight bound` exits 0 and lists no
    family."""
    code, out = run_cli("search", "--target", "3", "--max-weight", str(bound))
    return code == 0 and load_catalog(out) == [] and "# families: 0" in out


def _line(number: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


if __name__ == "__main__":
    ok, types, elapsed = ade_tube_signatures()
    ok3 = _line(3, ADE_TUBES, ok and elapsed < ADE_TUBES_BOUND_S,
                f"{types} types, {elapsed:.2f}s")
    ok, checked, elapsed = bsy_sweep(enumerate_baskets(FLETCHER_BOUND))
    ok5 = _line(5, BSY_SWEEP, ok and elapsed < BSY_SWEEP_BOUND_S,
                f"{checked} checks, {elapsed:.2f}s")
    ok, families, bound, hits, elapsed = reids_95()
    ok7 = _line(7, REIDS_95, ok and elapsed < REIDS_95_BOUND_S,
                f"{families} families, stabilized bound {bound}, "
                f"{hits}/18 catalog rows, {elapsed:.1f}s")
    ok8 = _line(8, SIGMA_PROBE, sigma_three_probe(bound),
                f"no hypersurface family up to weight {bound}; consistent with the "
                "open question, not a proof of non-realizability")
    sys.exit(0 if ok3 and ok5 and ok7 and ok8 else 1)
