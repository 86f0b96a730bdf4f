"""Dense Gaussian elimination over GF(p).

Matrices are numpy arrays (int64 for moduli below 2**31, exact object
arrays beyond) with entries reduced into ``[0, p)``.  Elimination defers
modular reduction as long as int64 magnitudes permit, which keeps the
inner loop vectorized.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .field import PrimeField
from .poly import _dot


@dataclass(frozen=True, eq=False)
class LinearSolution:
    """One solution of M x = rhs plus a basis of the homogeneous solutions.

    particular: length-cols vector with free variables set to 0.
    nullspace:  tuple of independent vectors spanning ker M.
    rank:       rank of M.
    """

    particular: np.ndarray
    nullspace: tuple
    rank: int


def as_matrix(field: PrimeField, rows) -> np.ndarray:
    """Build a reduced 2-D matrix over the field from nested sequences."""
    m = np.array(rows, dtype=field.dtype)
    if m.ndim != 2:
        raise ParameterError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m % field.p


def as_vector(field: PrimeField, values) -> np.ndarray:
    v = np.array(values, dtype=field.dtype)
    if v.ndim != 1:
        raise ParameterError(f"expected a 1-D vector, got ndim={v.ndim}")
    return v % field.p


def mat_vec(field: PrimeField, m: np.ndarray, x) -> np.ndarray:
    """Exact matrix-vector product over GF(p)."""
    x = as_vector(field, x)
    if m.shape[1] != x.shape[0]:
        raise ParameterError(
            f"dimension mismatch: matrix has {m.shape[1]} columns, vector has {x.shape[0]}"
        )
    return _dot(m % field.p, x, field.p)


def _pending_limit(p: int) -> int:
    # How many unreduced (p-1)**2 updates an int64 entry can absorb.
    return max(1, ((1 << 62) - p) // ((p - 1) * (p - 1) + 1))


def solve(
    field: PrimeField, m: np.ndarray, rhs, nullspace: bool = True
) -> LinearSolution | None:
    """Solve M x = rhs over GF(p); returns None when inconsistent.

    Deterministic: pivots are the first nonzero entry per column in row
    order, and free variables are fixed to 0 in the particular solution.
    Pass nullspace=False to skip the kernel basis (returned empty).
    """
    m = as_matrix(field, m)
    rhs = as_vector(field, rhs)
    rows, cols = m.shape
    if rhs.shape[0] != rows:
        raise ParameterError(
            f"dimension mismatch: matrix has {rows} rows, rhs has {rhs.shape[0]}"
        )
    p = field.p
    a = np.concatenate([m, rhs[:, np.newaxis]], axis=1)

    limit = _pending_limit(p) if field.uses_int64 else 1
    pending = 0
    pivots = []  # (row, col)
    rank = 0
    for c in range(cols):
        col = a[rank:, c] % p
        a[rank:, c] = col
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            a[[rank, pr]] = a[[pr, rank]]
        a[rank, c:] %= p
        a[rank, c:] = a[rank, c:] * field.inv(int(a[rank, c])) % p
        factors = a[rank + 1 :, c].copy()
        if factors.size:
            if pending >= limit:
                a[rank + 1 :, c:] %= p
                factors %= p
                pending = 0
            a[rank + 1 :, c:] -= np.outer(factors, a[rank, c:])
            pending += 1
        pivots.append((rank, c))
        rank += 1
        if rank == rows:
            break

    a[rank:] %= p
    if np.any(a[rank:, cols] != 0):
        return None

    def back_substitute(x, rhs_col):
        for k, c in reversed(pivots):
            tail = (a[k, c + 1 : cols] * x[c + 1 :]) % p
            x[c] = (rhs_col[k] - int(tail.sum() % p)) % p
        return x

    particular = back_substitute(np.zeros(cols, dtype=field.dtype), a[:, cols])
    basis = []
    if nullspace:
        zeros_rhs = np.zeros(rows, dtype=field.dtype)
        pivot_cols = {c for _, c in pivots}
        for f in range(cols):
            if f in pivot_cols:
                continue
            v = np.zeros(cols, dtype=field.dtype)
            v[f] = 1
            basis.append(back_substitute(v, zeros_rhs))
    return LinearSolution(particular=particular, nullspace=tuple(basis), rank=rank)
