import random

import numpy as np
import pytest

from hrscodes import ParameterError, PrimeField
from conftest import GOLDEN_M, GOLDEN_RHS, GOLDEN_SOLUTION
from reference import as_matrix, as_vector, mat_vec, solve


@pytest.fixture
def gf7():
    return PrimeField(7)


def test_as_matrix_vector_validation(gf7):
    m = as_matrix(gf7, [[8, -1], [0, 3]])
    assert m.tolist() == [[1, 6], [0, 3]]
    with pytest.raises(ParameterError):
        as_matrix(gf7, [1, 2, 3])
    v = as_vector(gf7, [9, -2])
    assert v.tolist() == [2, 5]
    with pytest.raises(ParameterError):
        as_vector(gf7, [[1], [2]])


def test_mat_vec_against_naive(gf7):
    rnd = random.Random(0)
    for _ in range(100):
        rows, cols = rnd.randint(1, 6), rnd.randint(1, 6)
        m = as_matrix(gf7, [[rnd.randrange(7) for _ in range(cols)] for _ in range(rows)])
        x = [rnd.randrange(7) for _ in range(cols)]
        got = mat_vec(gf7, m, x)
        want = [sum(int(m[i, j]) * x[j] for j in range(cols)) % 7 for i in range(rows)]
        assert got.tolist() == want
    with pytest.raises(ParameterError):
        mat_vec(gf7, as_matrix(gf7, [[1, 2]]), [1, 2, 3])


def test_solve_golden_system(gf7):
    sol = solve(gf7, np.array(GOLDEN_M), GOLDEN_RHS)
    assert sol is not None
    assert mat_vec(gf7, as_matrix(gf7, GOLDEN_M), sol.particular).tolist() == GOLDEN_RHS
    # The pinned solution solves it too, so it differs from the particular
    # one by a kernel element.
    assert mat_vec(gf7, as_matrix(gf7, GOLDEN_M), GOLDEN_SOLUTION).tolist() == GOLDEN_RHS
    gap = (np.array(GOLDEN_SOLUTION) - sol.particular) % 7
    if gap.any():
        assert sol.nullspace
        span = solve(gf7, as_matrix(gf7, [list(v) for v in sol.nullspace]).T, gap)
        assert span is not None


def test_solve_random_consistent(gf7):
    rnd = random.Random(1)
    for _ in range(200):
        rows, cols = rnd.randint(1, 8), rnd.randint(1, 8)
        m = as_matrix(gf7, [[rnd.randrange(7) for _ in range(cols)] for _ in range(rows)])
        x = as_vector(gf7, [rnd.randrange(7) for _ in range(cols)])
        rhs = mat_vec(gf7, m, x)
        sol = solve(gf7, m, rhs)
        assert sol is not None
        assert (mat_vec(gf7, m, sol.particular) == rhs).all()
        assert len(sol.nullspace) == cols - sol.rank
        for v in sol.nullspace:
            assert not (v == 0).all()
            assert (mat_vec(gf7, m, v) == 0).all()
        # A random kernel combination still solves the system.
        if sol.nullspace:
            combo = sol.particular.copy()
            for v in sol.nullspace:
                combo = (combo + rnd.randrange(7) * v) % 7
            assert (mat_vec(gf7, m, combo) == rhs).all()


def test_solve_inconsistent_returns_none(gf7):
    m = as_matrix(gf7, [[1, 2], [2, 4]])
    assert solve(gf7, m, [1, 3]) is None
    assert solve(gf7, m, [1, 2]) is not None
    # Tall system missing the target.
    m2 = as_matrix(gf7, [[1], [1], [1]])
    assert solve(gf7, m2, [1, 1, 2]) is None


def test_solve_nullspace_flag(gf7):
    m = as_matrix(gf7, [[1, 2, 3]])
    sol = solve(gf7, m, [1], nullspace=False)
    assert sol is not None and sol.nullspace == ()
    assert (mat_vec(gf7, m, sol.particular) == as_vector(gf7, [1])).all()


def test_solve_determinism(gf7):
    rnd = random.Random(2)
    m = as_matrix(gf7, [[rnd.randrange(7) for _ in range(6)] for _ in range(4)])
    rhs = [rnd.randrange(7) for _ in range(4)]
    a = solve(gf7, m, rhs)
    b = solve(gf7, m, rhs)
    assert a.particular.tolist() == b.particular.tolist()
    assert [v.tolist() for v in a.nullspace] == [v.tolist() for v in b.nullspace]


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_solve_large_modulus_exact(p):
    # 2**31-1 exercises the deferred-reduction int64 path at its widest;
    # 2**61-1 exercises exact object arrays.
    gf = PrimeField(p)
    rnd = random.Random(p)
    n = 24
    m = as_matrix(gf, [[rnd.randrange(p) for _ in range(n)] for _ in range(n)])
    x = as_vector(gf, [rnd.randrange(p) for _ in range(n)])
    rhs = mat_vec(gf, m, x)
    sol = solve(gf, m, rhs, nullspace=False)
    assert sol is not None
    assert (mat_vec(gf, m, sol.particular) == rhs).all()
    if sol.rank == n:
        assert (sol.particular == x).all()


def test_edge_shapes(gf7):
    sol = solve(gf7, np.zeros((3, 2), dtype=np.int64), [0, 0, 0])
    assert sol is not None and sol.rank == 0 and len(sol.nullspace) == 2
    assert solve(gf7, np.zeros((3, 2), dtype=np.int64), [0, 1, 0]) is None
