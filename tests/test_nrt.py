import random

import numpy as np
import pytest

from hrscodes import (
    FieldMismatchError,
    NrtMatrix,
    ParameterError,
    PrimeField,
    nrt_distance,
    nrt_weight,
)
from hrscodes.nrt import column_weights
from conftest import GOLDEN_ERROR
from reference import column_weight


@pytest.fixture
def gf7():
    return PrimeField(7)


def rand_matrix(rnd, gf, s, r):
    return NrtMatrix(gf, [[rnd.randrange(gf.p) for _ in range(r)] for _ in range(s)])


def test_column_weight_cases():
    assert column_weight((0, 1), 2) == 1
    assert column_weight((0, 0, 0, 0)) == 0
    assert column_weight((3, 0, 0), 3) == 3
    assert column_weight((0, 0, 5)) == 1
    with pytest.raises(ParameterError):
        column_weight((1, 2), 3)


def test_weight_examples(gf7):
    assert nrt_weight(NrtMatrix(gf7, GOLDEN_ERROR)) == 2
    assert nrt_weight(NrtMatrix(gf7, [[0] * 4, [0] * 4])) == 0
    full = NrtMatrix(gf7, [[1, 2, 3], [0, 0, 0]])
    assert nrt_weight(full) == 6  # every top entry nonzero: r*s


def test_weight_is_sum_of_column_weights(gf7):
    rnd = random.Random(0)
    for _ in range(200):
        s, r = rnd.randint(1, 4), rnd.randint(1, 5)
        m = rand_matrix(rnd, gf7, s, r)
        cols = [column_weight([int(m.entries[i, j]) for i in range(s)], s) for j in range(r)]
        assert nrt_weight(m) == sum(cols)
        assert 0 <= nrt_weight(m) <= s * r
        nonzero_cols = sum(1 for j in range(r) if any(int(x) for x in m.entries[:, j]))
        assert nrt_weight(m) >= nonzero_cols


def test_column_weights_batch(gf7):
    rnd = random.Random(1)
    batch = [
        NrtMatrix(gf7, [[rnd.choice((0, 0, 0, 1, 6)) for _ in range(4)] for _ in range(3)])
        for _ in range(60)
    ]
    weights = column_weights(np.stack([m.entries for m in batch]))
    assert weights.shape == (60, 4)
    assert weights.sum(axis=1).tolist() == [nrt_weight(m) for m in batch]


def test_distance_examples(gf7):
    a = NrtMatrix(gf7, [[4, 1, 2, 6], [4, 5, 5, 4]])
    b = NrtMatrix(gf7, [[4, 1, 2, 6], [5, 5, 6, 4]])
    assert nrt_distance(a, b) == 2
    assert nrt_distance(a, a) == 0


def test_metric_axioms(gf7):
    rnd = random.Random(1)
    for _ in range(1000):
        a = rand_matrix(rnd, gf7, 3, 4)
        b = rand_matrix(rnd, gf7, 3, 4)
        c = rand_matrix(rnd, gf7, 3, 4)
        dab = nrt_distance(a, b)
        assert dab == nrt_distance(b, a)
        assert (dab == 0) == (a == b)
        assert nrt_distance(a, c) <= dab + nrt_distance(b, c)


def test_matrix_validation_and_arithmetic(gf7):
    with pytest.raises(ParameterError):
        NrtMatrix(gf7, [1, 2, 3])
    with pytest.raises(ParameterError):
        NrtMatrix(gf7, [[]])
    m = NrtMatrix(gf7, [[8, -1], [0, 3]])
    assert m.to_lists() == [[1, 6], [0, 3]]
    assert m.s == 2 and m.r == 2 and m.shape == (2, 2)
    other = NrtMatrix(gf7, [[1, 1], [1, 1]])
    assert (m + other).to_lists() == [[2, 0], [1, 4]]
    assert (m - other).to_lists() == [[0, 5], [6, 2]]
    assert (-m).to_lists() == [[6, 1], [0, 4]]
    assert m + other - other == m


def test_matrix_mismatches(gf7):
    m = NrtMatrix(gf7, [[1, 2]])
    with pytest.raises(ParameterError):
        m + NrtMatrix(gf7, [[1], [2]])
    with pytest.raises(FieldMismatchError):
        m + NrtMatrix(PrimeField(11), [[1, 2]])
    with pytest.raises(TypeError):
        m + [[1, 2]]


def test_matrix_immutability(gf7):
    m = NrtMatrix(gf7, [[1, 2]])
    with pytest.raises(AttributeError):
        m.entries = None
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5
