"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every comparison is equality (tolerance 0).
Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; stated runtime budgets are asserted as wall-clock bounds.
"""

import pytest

from duvalk3.search import enumerate_baskets
from criteria import (
    ADE_TUBES,
    BSY_SWEEP,
    FLETCHER_BOUND,
    REIDS_95,
    SIGMA_PROBE,
    SIGNATURE_BOUND,
    SURFACES,
    TABLE,
    TRANSFER_LAWS,
    TRANSFER_SEED,
    TRANSFER_TRIALS,
    ade_tube_signatures,
    bsy_sweep,
    reids_95,
    sigma_three_probe,
    signature_bound,
    surface_failures,
    table_reproduction,
    transfer_laws,
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
    ok, rows, mismatches, elapsed = table_reproduction()
    ok = ok and elapsed < 1.0
    report(1, TABLE, ok, f"{rows} rows, {mismatches} mismatches, {elapsed:.3f}s")


def test_criterion_2_signature_bound(all_baskets):
    ok, low, high, elapsed = signature_bound(all_baskets)
    ok = ok and elapsed < 10.0
    report(
        2,
        SIGNATURE_BOUND,
        ok,
        f"{len(all_baskets)} baskets, sigma in [{low},{high}], {elapsed:.2f}s",
    )


def test_criterion_3_ade_tube_signatures():
    ok, types, elapsed = ade_tube_signatures()
    ok = ok and elapsed < 1.0
    report(3, ADE_TUBES, ok, f"{types} types, {elapsed:.2f}s")


def test_criterion_4_hodge_equals_topological_surfaces(all_baskets):
    failures = surface_failures(all_baskets)
    report(4, SURFACES, not failures, f"{len(all_baskets)} baskets, {failures} failures")


def test_criterion_5_bsy_threefolds(all_baskets):
    ok, checked, elapsed = bsy_sweep(all_baskets)
    ok = ok and elapsed < 10.0
    report(5, BSY_SWEEP, ok, f"{checked} checks, {elapsed:.2f}s")


def test_criterion_6_transfer_laws(all_baskets):
    ok, scenarios = transfer_laws(all_baskets)
    report(
        6,
        TRANSFER_LAWS,
        ok,
        f"{TRANSFER_TRIALS} random classes from seed {TRANSFER_SEED}, "
        f"{scenarios} cover scenarios",
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
