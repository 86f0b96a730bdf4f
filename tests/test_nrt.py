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
from hrscodes import nrt
from hrscodes.nrt import column_weights
from conftest import GOLDEN_ERROR
from reference import column_weight, neg_matrix


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
    # Float, complex and bool entries are refused, not truncated.
    for bad in ([[1.7, 2]], [[1, 2j]], [[True, False]], np.ones((2, 2))):
        for field in (gf7, PrimeField(2**61 - 1)):
            with pytest.raises(ParameterError, match="must be an integer"):
                NrtMatrix(field, bad)
    big = NrtMatrix(PrimeField(2**61 - 1), np.array([[2**61, 3]], dtype=object))
    assert big.to_lists() == [[1, 3]]
    m = NrtMatrix(gf7, [[8, -1], [0, 3]])
    assert m.to_lists() == [[1, 6], [0, 3]]
    assert m.s == 2 and m.r == 2 and m.shape == (2, 2)
    other = NrtMatrix(gf7, [[1, 1], [1, 1]])
    assert (m + other).to_lists() == [[2, 0], [1, 4]]
    assert (m - other).to_lists() == [[0, 5], [6, 2]]
    assert neg_matrix(m).to_lists() == [[6, 1], [0, 4]]
    assert m + other - other == m


def test_matrix_integer_entries():
    """Bools mixed into an integer list are refused, and integers past int64
    are reduced mod p on both paths, from lists and from uint64 arrays."""
    for p in (7, 2**31 - 1, 2**61 - 1):
        field = PrimeField(p)
        for bad in (
            [[True, 2]],
            [[3, np.False_]],
            [[1, 2], [3, False]],
            np.array([[1.5, 2]], dtype=object),
            np.array([[True, 2]], dtype=object),
            np.array([[1, 2 + 0j]], dtype=object),
        ):
            with pytest.raises(ParameterError, match="must be an integer"):
                NrtMatrix(field, bad)
        big = [[2**63, 2**64 + 5], [-(2**70), np.int64(-3)]]
        want = [[x % p for x in row] for row in ([2**63, 2**64 + 5], [-(2**70), -3])]
        assert NrtMatrix(field, big).to_lists() == want
        top = np.array([[2**63, 2**64 - 1]], dtype=np.uint64)
        assert NrtMatrix(field, top).to_lists() == [[2**63 % p, (2**64 - 1) % p]]
    assert NrtMatrix(PrimeField(2**61 - 1), [[2**63]]).to_lists() == [[4]]


def test_matrix_arrays_skip_the_entry_loop(gf7, monkeypatch):
    # Arrays are checked by dtype: encode, sample_error and + build them on
    # the hot path.
    def refuse(x, name):
        raise AssertionError("per-entry check on an array input")

    monkeypatch.setattr(nrt, "require_int", refuse)
    for field in (gf7, PrimeField(2**61 - 1)):
        for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64, object):
            m = NrtMatrix(field, np.array([[1, 9], [0, 3]], dtype=dtype))
            assert m.to_lists() == [[1, 9 % field.p], [0, 3]]
        # A narrow signed dtype is cast before it is reduced: int8 % (2**61 - 1)
        # overflows in numpy.
        assert NrtMatrix(field, np.array([[-1]], np.int8)).to_lists() == [[field.p - 1]]
    with pytest.raises(AssertionError):
        NrtMatrix(gf7, [[1, np.int64(2)]])


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
