"""Acceptance criterion 5 (BSY equality on 3-folds), without pytest.

    python tests/criteria.py

Runs the criterion's sweep in one process: `bsy_check` for q = 1 over
every basket of at most 19 curves and for q = 2, 3, each at cover degrees
1 to 8, and compares the Hodge route's coefficients with the fiber
signature over the degree.  Prints the `[criterion 5]` line with its
seconds; exits 1 if a check fails or the sweep takes 10 s or more, else 0.
Needs only the standard library and the `src/` tree, so any interpreter can
run it before anything is installed.  `tests/test_acceptance.py` runs the
same sweep under pytest.
"""

import sys
import time
from fractions import Fraction
from pathlib import Path

if __name__ == "__main__":  # as a script, import the package from src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from duvalk3.homology import Generator, SpaceLabel, fundamental_class  # noqa: E402
from duvalk3.search import enumerate_baskets  # noqa: E402
from duvalk3.threefolds import KawamataDiagram, SurfaceModel, bsy_check  # noqa: E402

FLETCHER_BOUND = 19
BSY_SWEEP = "BSY equality on 3-folds (q in 1..3, d in 1..8)"
BSY_SWEEP_BOUND_S = 10.0


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


if __name__ == "__main__":
    ok, checked, elapsed = bsy_sweep(enumerate_baskets(FLETCHER_BOUND))
    ok = ok and elapsed < BSY_SWEEP_BOUND_S
    print(f"[criterion 5] {BSY_SWEEP}: {'PASS' if ok else 'FAIL'} "
          f"({checked} checks, {elapsed:.2f}s)")
    sys.exit(0 if ok else 1)
