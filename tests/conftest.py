"""Shared fixtures and golden constants for the test suite.

The worked GF(7) example (r=4, s=2, t=4, points 1..4) anchors most exact
checks: its codeword, received word, key-equation system, and decoder
output are all pinned below.
"""

import random

import pytest

from hrscodes import CodeParams, NrtMatrix, Poly, PrimeField, hrs

GOLDEN_MESSAGE = [5, 2, 3, 1]
GOLDEN_CODEWORD = [[4, 1, 2, 6], [4, 5, 5, 4]]
GOLDEN_ERROR = [[0, 0, 0, 0], [1, 0, 1, 0]]
GOLDEN_RECEIVED = [[4, 1, 2, 6], [5, 5, 6, 4]]
GOLDEN_M = [
    [1, 1, 1, 1, 1, 1, 3, 3],
    [1, 2, 4, 1, 2, 4, 6, 5],
    [1, 3, 2, 6, 4, 5, 5, 1],
    [1, 4, 2, 1, 4, 2, 1, 4],
    [0, 1, 2, 3, 4, 5, 2, 5],
    [0, 1, 4, 5, 4, 3, 2, 3],
    [0, 1, 6, 6, 3, 6, 1, 1],
    [0, 1, 1, 6, 4, 6, 3, 6],
]
GOLDEN_RHS = [4, 4, 4, 5, 6, 3, 3, 0]
GOLDEN_SOLUTION = [1, 0, 6, 0, 6, 1, 3, 3]
GOLDEN_EVALUATOR = [1, 0, 6, 0, 6, 1]
GOLDEN_LOCATOR = [3, 3, 1]


@pytest.fixture
def empty_table_store():
    """hrscodes.hrs's shared code-table store, emptied before and after one
    test."""
    hrs._shared_tables.cache_clear()
    yield hrs._shared_tables
    hrs._shared_tables.cache_clear()


@pytest.fixture
def gf7():
    return PrimeField(7)


@pytest.fixture
def golden_params(gf7):
    return CodeParams(gf7, 4, 2, 4, [1, 2, 3, 4])


@pytest.fixture
def golden_message(gf7):
    return Poly(gf7, GOLDEN_MESSAGE)


@pytest.fixture
def golden_received(gf7):
    return NrtMatrix(gf7, GOLDEN_RECEIVED)


def random_code(rnd: random.Random, p: int, max_s: int = 3, max_rs: int | None = None):
    """Draw valid (r, s, t, alphas) for GF(p) and build the code."""
    s = rnd.randint(1, min(max_s, p))
    r_hi = p if max_rs is None else min(p, max(1, max_rs // s))
    r = rnd.randint(1, r_hi)
    t = rnd.randint(1, r * s)
    alphas = rnd.sample(range(p), r)
    return CodeParams(p, r, s, t, alphas)


def random_poly(rnd: random.Random, field: PrimeField, count: int) -> Poly:
    """Uniform polynomial with `count` coefficient slots (degree < count)."""
    return Poly(field, [rnd.randrange(field.p) for _ in range(count)])
