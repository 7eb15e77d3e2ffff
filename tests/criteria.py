"""The eight acceptance criteria, without pytest.

    python tests/criteria.py

`criterion_1` to `criterion_8` each compute one criterion's check, hold it
to its wall-clock bound where it has one, print its `[criterion N]` PASS/FAIL
line and return whether it passed; `tests/test_acceptance.py` asserts the
same functions under pytest.  Criteria 7 and 8 run `python -m duvalk3.cli
search` as subprocesses with this checkout's `src/` first on PYTHONPATH.
The script runs all eight and exits 1 if any fails, else 0.  Needs only the
standard library and the `src/` tree, so any interpreter can run it before
anything is installed.
"""

import os
import random
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
from duvalk3.catalog import embedded_catalog, load_catalog, verify_row  # noqa: E402
from duvalk3.homology import (  # noqa: E402
    CoveringMap,
    FormalClass,
    Generator,
    SpaceLabel,
    fundamental_class,
    l_class_surface,
    product_class,
    pushforward,
    transfer,
)
from duvalk3.search import enumerate_baskets  # noqa: E402
from duvalk3.threefolds import (  # noqa: E402
    KawamataDiagram,
    SurfaceModel,
    bsy_check,
    kawamata_cover,
    sigma_k3,
    t1_surface,
    threefold_lclass,
)
from sturm_oracle import signature_oracle  # noqa: E402

FLETCHER_BOUND = 19
TRANSFER_SEED = 6180339
TRANSFER_TRIALS = 1000


def bsy_sweep(all_baskets) -> tuple[bool, int, float]:
    """Whether `bsy_check` passed for q = 1 over every basket, with the Hodge
    route's p_*[pt_F×E] coefficient equal to sigma over the cover degree,
    and for q = 2, 3 with the Hodge route [X], each at cover degrees 1 to 8;
    how many checks ran, and the seconds they took.  Stops after the first
    degree with a failure."""
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


def _random_cover(rng: random.Random) -> tuple[CoveringMap, FormalClass]:
    """A random degree-d cover scenario and a random class on its target.

    Each target generator gets a random preimage splitting into components
    whose local degrees sum to d, which pins down both tables.
    """
    d = rng.randint(1, 12)
    dim = 2 * rng.randint(0, 3)
    target = SpaceLabel("B", dim)
    source = SpaceLabel("T", dim)
    push: dict[Generator, FormalClass] = {}
    pull: dict[Generator, FormalClass] = {}
    coeffs: dict[Generator, Fraction] = {}
    for degree in range(0, dim + 1, 2):
        for idx in range(rng.randint(1, 2)):
            g = Generator(f"g{degree}_{idx}", degree, target)
            parts = rng.randint(1, min(3, d))
            cuts = sorted(rng.sample(range(1, d), parts - 1)) if parts > 1 else []
            local = [b - a for a, b in zip([0] + cuts, cuts + [d])]
            lifts = [
                Generator(f"g{degree}_{idx}^{i}", degree, source)
                for i in range(parts)
            ]
            for lift, mult in zip(lifts, local):
                push[lift] = FormalClass({g: mult})
            pull[g] = FormalClass({lift: 1 for lift in lifts})
            coeffs[g] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    cover = CoveringMap(source, target, d, push, pull)
    return cover, FormalClass(coeffs)


def transfer_laws(all_baskets) -> tuple[bool, int]:
    """Whether p_* p_! = d held on `TRANSFER_TRIALS` random covers drawn
    from `random.Random(TRANSFER_SEED)` (stopping at the first failure) and
    transfer carried each 3-fold L-class to the product class over about 40
    sampled baskets and q = 2, 3 at cover degrees 1 to 12; and how many
    cover scenarios that second check ran."""
    rng = random.Random(TRANSFER_SEED)
    ok = True
    for _ in range(TRANSFER_TRIALS):
        cover, cls = _random_cover(rng)
        if pushforward(cover, transfer(cover, cls)) != cover.degree * cls:
            ok = False
            break
    # transfer carries the base L-class to the cover's L-class
    vrr_checked = 0
    sample = [basket for basket, _ in all_baskets[:: max(1, len(all_baskets) // 40)]]
    for degree in range(1, 13):
        for basket in sample:
            k = KawamataDiagram(1, degree, SurfaceModel(basket))
            f_space, e_space, cover = kawamata_cover(k.q, k.cover_degree)
            product = product_class(
                l_class_surface(sigma_k3(basket), f_space),
                fundamental_class(e_space),
            )
            if transfer(cover, threefold_lclass(k)) != product:
                ok = False
            vrr_checked += 1
        for q in (2, 3):
            k = KawamataDiagram(q, degree)
            f_space, e_space, cover = kawamata_cover(k.q, k.cover_degree)
            product = product_class(
                fundamental_class(f_space), fundamental_class(e_space)
            )
            if transfer(cover, threefold_lclass(k)) != product:
                ok = False
            vrr_checked += 1
    return ok, vrr_checked


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
    """Print criterion `number`'s PASS/FAIL line and return `ok`."""
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def criterion_1() -> bool:
    """The embedded catalog has 19 rows, and `verify_row` recomputes every
    stored field of each, inside the wall-clock bound."""
    start = time.perf_counter()
    rows = embedded_catalog()
    mismatches = sum(len(verify_row(row).mismatches()) for row in rows)
    elapsed = time.perf_counter() - start
    return _line(1, "table reproduction (19 rows, exact)",
                 len(rows) == 19 and not mismatches and elapsed < 1.0,
                 f"{len(rows)} rows, {mismatches} mismatches, {elapsed:.3f}s")


def criterion_2(all_baskets) -> bool:
    """Every basket has sigma = -16 + its curve count and at most 19 curves,
    and the sigmas fill [-16, 3]; the recheck stays inside the wall-clock
    bound."""
    start = time.perf_counter()
    sigmas = {sigma for _, sigma in all_baskets}
    recheck = all(
        sigma == -16 + basket.total_d and basket.total_d <= FLETCHER_BOUND
        for basket, sigma in all_baskets
    )
    elapsed = time.perf_counter() - start
    return _line(2, "signature bound over all baskets",
                 sigmas == set(range(-16, 4)) and recheck and elapsed < 10.0,
                 f"{len(all_baskets)} baskets, sigma in [{min(sigmas)},{max(sigmas)}], "
                 f"{elapsed:.2f}s")


def criterion_3() -> bool:
    """Every ADE tube of rank at most 20 has inertia (0, rank, 0), and those
    of rank at most 8 match the Sturm oracle, inside the wall-clock bound."""
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
    elapsed = time.perf_counter() - start
    return _line(3, "ADE tube signatures (rank <= 20, Sturm cross-check <= 8)",
                 diagonalization_ok and oracle_ok and elapsed < 1.0,
                 f"{len(types)} types, {elapsed:.2f}s")


def criterion_4(all_baskets) -> bool:
    """Each basket's Hodge L-class `t1_surface` is the topological L-class
    of its signature."""
    surface = SpaceLabel("F", 4)
    failures = sum(
        t1_surface(basket) != l_class_surface(sigma, surface)
        for basket, sigma in all_baskets
    )
    return _line(4, "Hodge = topological L-class on surfaces", not failures,
                 f"{len(all_baskets)} baskets, {failures} failures")


def criterion_5(all_baskets) -> bool:
    """Every check of `bsy_sweep` passes, inside the wall-clock bound."""
    ok, checked, elapsed = bsy_sweep(all_baskets)
    return _line(5, "BSY equality on 3-folds (q in 1..3, d in 1..8)", ok and elapsed < 10.0,
                 f"{checked} checks, {elapsed:.2f}s")


def criterion_6(all_baskets) -> bool:
    """Both laws of `transfer_laws` hold."""
    ok, scenarios = transfer_laws(all_baskets)
    return _line(6, "transfer laws (p_* p_! = d, transfer of L-class)", ok,
                 f"{TRANSFER_TRIALS} random classes from seed {TRANSFER_SEED}, "
                 f"{scenarios} cover scenarios")


def criterion_7(stabilized: tuple[bool, int, int, int, float]) -> bool:
    """`stabilized`, the result of `reids_95()`, holds, inside the
    wall-clock bound."""
    ok, families, bound, hits, elapsed = stabilized
    return _line(7, "Reid's 95 hypersurface families (search --stabilize)",
                 ok and elapsed < 300.0,
                 f"{families} families, stabilized bound {bound}, "
                 f"{hits}/18 catalog rows, {elapsed:.1f}s")


def criterion_8(bound: int) -> bool:
    """`sigma_three_probe(bound)` holds."""
    return _line(8, "sigma = 3 probe (search --target 3)", sigma_three_probe(bound),
                 f"no hypersurface family up to weight {bound}; consistent with the "
                 "open question, not a proof of non-realizability")


if __name__ == "__main__":
    results = [criterion_1()]
    all_baskets = enumerate_baskets(FLETCHER_BOUND)
    results += [criterion_2(all_baskets), criterion_3(), criterion_4(all_baskets),
                criterion_5(all_baskets), criterion_6(all_baskets)]
    stabilized = reids_95()
    results += [criterion_7(stabilized), criterion_8(stabilized[2])]
    sys.exit(0 if all(results) else 1)
