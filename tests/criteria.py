"""The eight acceptance criteria, without pytest.

    python tests/criteria.py

Criterion 1 recomputes every field of the 19 embedded catalog rows.
Criterion 2 rechecks sigma = -16 + (number of exceptional curves) over every
basket of at most 19 curves.  Criterion 3 computes the exact inertia of every
negated Cartan matrix up to rank 20 and cross-checks those up to rank 8
against the Sturm oracle.  Criterion 4 compares the Hodge L-class of each of
those baskets with the topological one.  Criterion 5 runs `bsy_check` for
q = 1 over every basket and for q = 2, 3, each at cover degrees 1 to 8, and
compares the Hodge route's coefficients with the fiber signature over the
degree.  Criterion 6 checks p_* p_! = d on 1000 random covers drawn from a
fixed seed, and that transfer carries each 3-fold L-class to the product
class.  Criteria 7 and 8 run `python -m duvalk3.cli search --stabilize`,
then `search --target 3` at the stabilized bound, as subprocesses with this
checkout's `src/` first on PYTHONPATH, and read their output with
`load_catalog`.  Each prints its `[criterion N]` line; the script exits 1
if a check fails or a timed criterion takes its bound (1 s, 10 s and 300 s)
or more, else 0.  Needs only the standard library and the `src/` tree, so
any interpreter can run it before anything is installed.
`tests/test_acceptance.py` runs the same functions under pytest.
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
TABLE = "table reproduction (19 rows, exact)"
TABLE_BOUND_S = 1.0
SIGNATURE_BOUND = "signature bound over all baskets"
SIGNATURE_BOUND_S = 10.0
ADE_TUBES = "ADE tube signatures (rank <= 20, Sturm cross-check <= 8)"
ADE_TUBES_BOUND_S = 1.0
SURFACES = "Hodge = topological L-class on surfaces"
BSY_SWEEP = "BSY equality on 3-folds (q in 1..3, d in 1..8)"
BSY_SWEEP_BOUND_S = 10.0
TRANSFER_LAWS = "transfer laws (p_* p_! = d, transfer of L-class)"
TRANSFER_SEED = 6180339
TRANSFER_TRIALS = 1000
REIDS_95 = "Reid's 95 hypersurface families (search --stabilize)"
REIDS_95_BOUND_S = 300.0
SIGMA_PROBE = "sigma = 3 probe (search --target 3)"


def table_reproduction() -> tuple[bool, int, int, float]:
    """Whether the embedded catalog has 19 rows and `verify_row` recomputes
    every stored field of each, the row and mismatch counts, and the seconds
    they took."""
    start = time.perf_counter()
    rows = embedded_catalog()
    mismatches = sum(len(verify_row(row).mismatches()) for row in rows)
    elapsed = time.perf_counter() - start
    return len(rows) == 19 and not mismatches, len(rows), mismatches, elapsed


def signature_bound(all_baskets) -> tuple[bool, int, int, float]:
    """Whether every basket has sigma = -16 + its curve count with at most
    19 curves and the sigmas fill [-16, 3], the least and greatest sigma,
    and the seconds the recheck took."""
    start = time.perf_counter()
    sigmas = {sigma for _, sigma in all_baskets}
    recheck = all(
        sigma == -16 + basket.total_d and basket.total_d <= FLETCHER_BOUND
        for basket, sigma in all_baskets
    )
    elapsed = time.perf_counter() - start
    return sigmas == set(range(-16, 4)) and recheck, min(sigmas), max(sigmas), elapsed


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


def surface_failures(all_baskets) -> int:
    """How many baskets' Hodge L-class `t1_surface` differs from the
    topological L-class of their signature."""
    surface = SpaceLabel("F", 4)
    return sum(
        t1_surface(basket) != l_class_surface(sigma, surface)
        for basket, sigma in all_baskets
    )


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
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


if __name__ == "__main__":
    ok, rows, mismatches, elapsed = table_reproduction()
    ok1 = _line(1, TABLE, ok and elapsed < TABLE_BOUND_S,
                f"{rows} rows, {mismatches} mismatches, {elapsed:.3f}s")
    all_baskets = enumerate_baskets(FLETCHER_BOUND)
    ok, low, high, elapsed = signature_bound(all_baskets)
    ok2 = _line(2, SIGNATURE_BOUND, ok and elapsed < SIGNATURE_BOUND_S,
                f"{len(all_baskets)} baskets, sigma in [{low},{high}], {elapsed:.2f}s")
    ok, types, elapsed = ade_tube_signatures()
    ok3 = _line(3, ADE_TUBES, ok and elapsed < ADE_TUBES_BOUND_S,
                f"{types} types, {elapsed:.2f}s")
    failures = surface_failures(all_baskets)
    ok4 = _line(4, SURFACES, not failures,
                f"{len(all_baskets)} baskets, {failures} failures")
    ok, checked, elapsed = bsy_sweep(all_baskets)
    ok5 = _line(5, BSY_SWEEP, ok and elapsed < BSY_SWEEP_BOUND_S,
                f"{checked} checks, {elapsed:.2f}s")
    ok, scenarios = transfer_laws(all_baskets)
    ok6 = _line(6, TRANSFER_LAWS, ok,
                f"{TRANSFER_TRIALS} random classes from seed {TRANSFER_SEED}, "
                f"{scenarios} cover scenarios")
    ok, families, bound, hits, elapsed = reids_95()
    ok7 = _line(7, REIDS_95, ok and elapsed < REIDS_95_BOUND_S,
                f"{families} families, stabilized bound {bound}, "
                f"{hits}/18 catalog rows, {elapsed:.1f}s")
    ok8 = _line(8, SIGMA_PROBE, sigma_three_probe(bound),
                f"no hypersurface family up to weight {bound}; consistent with the "
                "open question, not a proof of non-realizability")
    sys.exit(0 if all((ok1, ok2, ok3, ok4, ok5, ok6, ok7, ok8)) else 1)
