"""Acceptance suite: one test per criterion of `criteria.py`.

All arithmetic is exact, so every comparison is equality (tolerance 0).
Each criterion function applies its own wall-clock bound and prints its
PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py`` to see them.
"""

import pytest

from duvalk3.search import enumerate_baskets
from criteria import (
    FLETCHER_BOUND,
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    reids_95,
)


@pytest.fixture(scope="module")
def all_baskets():
    return enumerate_baskets(FLETCHER_BOUND)


@pytest.fixture(scope="module")
def stabilized():
    return reids_95()


def test_criterion_1_table_reproduction():
    assert criterion_1()


def test_criterion_2_signature_bound(all_baskets):
    assert criterion_2(all_baskets)


def test_criterion_3_ade_tube_signatures():
    assert criterion_3()


def test_criterion_4_hodge_equals_topological_surfaces(all_baskets):
    assert criterion_4(all_baskets)


def test_criterion_5_bsy_threefolds(all_baskets):
    assert criterion_5(all_baskets)


def test_criterion_6_transfer_laws(all_baskets):
    assert criterion_6(all_baskets)


def test_criterion_7_reids_95(stabilized):
    assert criterion_7(stabilized)


def test_criterion_8_sigma_three_probe(stabilized):
    assert criterion_8(stabilized[2])
