"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every comparison is equality (tolerance 0).
Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; stated runtime budgets are asserted as wall-clock bounds.
"""

import random
import time
from fractions import Fraction

import pytest

from duvalk3.catalog import embedded_catalog, verify_row
from duvalk3.homology import (
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
from duvalk3.search import enumerate_baskets
from duvalk3.threefolds import (
    KawamataDiagram,
    SurfaceModel,
    kawamata_cover,
    sigma_k3,
    t1_surface,
    threefold_lclass,
)
from criteria import (
    ADE_TUBES,
    BSY_SWEEP,
    FLETCHER_BOUND,
    REIDS_95,
    SIGMA_PROBE,
    ade_tube_signatures,
    bsy_sweep,
    reids_95,
    sigma_three_probe,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def all_baskets():
    return enumerate_baskets(FLETCHER_BOUND)


@pytest.fixture(scope="module")
def stabilized():
    return reids_95()


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    rows = embedded_catalog()
    reports = [verify_row(row) for row in rows]
    elapsed = time.perf_counter() - start
    mismatches = [
        (r.row.name, c.field, c.expected, c.actual)
        for r in reports
        for c in r.mismatches()
    ]
    ok = len(rows) == 19 and not mismatches and elapsed < 1.0
    report(
        1,
        "table reproduction (19 rows, exact)",
        ok,
        f"{len(rows)} rows, {len(mismatches)} mismatches, {elapsed:.3f}s",
    )


def test_criterion_2_signature_bound(all_baskets):
    start = time.perf_counter()
    sigmas = {sigma for _, sigma in all_baskets}
    recheck = all(
        sigma == -16 + basket.total_d and basket.total_d <= FLETCHER_BOUND
        for basket, sigma in all_baskets
    )
    elapsed = time.perf_counter() - start
    ok = sigmas == set(range(-16, 4)) and recheck and elapsed < 10.0
    report(
        2,
        "signature bound over all baskets",
        ok,
        f"{len(all_baskets)} baskets, sigma in [{min(sigmas)},{max(sigmas)}], "
        f"{elapsed:.2f}s",
    )


def test_criterion_3_ade_tube_signatures():
    ok, types, elapsed = ade_tube_signatures()
    ok = ok and elapsed < 1.0
    report(3, ADE_TUBES, ok, f"{types} types, {elapsed:.2f}s")


def test_criterion_4_hodge_equals_topological_surfaces(all_baskets):
    surface = SpaceLabel("F", 4)
    failures = [
        basket.tokens()
        for basket, sigma in all_baskets
        if t1_surface(basket) != l_class_surface(sigma, surface)
    ]
    report(
        4,
        "Hodge = topological L-class on surfaces",
        not failures,
        f"{len(all_baskets)} baskets, {len(failures)} failures",
    )


def test_criterion_5_bsy_threefolds(all_baskets):
    ok, checked, elapsed = bsy_sweep(all_baskets)
    ok = ok and elapsed < 10.0
    report(5, BSY_SWEEP, ok, f"{checked} checks, {elapsed:.2f}s")


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


def test_criterion_6_transfer_laws(all_baskets):
    rng = random.Random(6180339)
    trials = 1000
    ok = True
    for _ in range(trials):
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
    report(
        6,
        "transfer laws (p_* p_! = d, transfer of L-class)",
        ok,
        f"{trials} random classes, {vrr_checked} cover scenarios",
    )


def test_criterion_7_reids_95(stabilized):
    ok, families, bound, hits, elapsed = stabilized
    ok = ok and elapsed < 300.0
    report(
        7,
        REIDS_95,
        ok,
        f"{families} families, stabilized bound {bound}, "
        f"{hits}/18 catalog rows, {elapsed:.1f}s",
    )


def test_criterion_8_sigma_three_probe(stabilized):
    bound = stabilized[2]
    report(
        8,
        SIGMA_PROBE,
        sigma_three_probe(bound),
        f"no hypersurface family up to weight {bound}; consistent with the "
        "open question, not a proof of non-realizability",
    )
