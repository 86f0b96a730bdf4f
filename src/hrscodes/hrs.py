"""Hyperderivative Reed-Solomon codes over GF(p).

A code is fixed by (p, r, s, t, alphas, multipliers): messages are
polynomials of degree < t, and the codeword of f is the s x r matrix with
entry (i, j) = v_{i,j} * (order-(i-1) hyperderivative of f)(alpha_j).

The entries C(k, i) * alpha_j**(k-i) live in one cached table
(CodeParams.derivative_table), which feeds both the encoder and the Hermite
tables.  Besides the encoder this module provides Hermite interpolation
(the inverse of the unscaled encoder on full-length messages) and the
exhaustive minimum-distance scan behind the CLI's mindist; its budget may
not pass 2**63 - 1, since messages are numbered in int64.  The generator is
the first t columns of the derivative table: the encoder is one exact GF(p)
matrix product with them, poly._dot, scaled entrywise by the multipliers
afterwards, and the scan's batched re-encoding is the same product unscaled.
_unscaled divides the multipliers out again: only this module touches them.

Hermite interpolation is one product with a cached basis: entry (i, j) of
the basis is the polynomial of degree < rs whose only nonzero
hyperderivative of order < s at the points is order i at alpha_j.  In
closed form it is sum_{k >= i} inv_j[k-i] * Z**k * Q_j, with Z = X - alpha_j,
Q_j = G / Z**s, inv_j = 1 / Q_j(alpha_j + Z) mod Z**s and
G = prod_j (X - alpha_j)**s (the Hermite form of the Chinese remainder
theorem: von zur Gathen & Gerhard, Modern Computer Algebra, ch. 5 and 10).
G is cached beside it and is the modulus of the decoder's key equation.
So an interpolation is one (rs)-by-(rs) vector-matrix product, poly._dot:
the private _interpolate, on arrays, which the decoder calls;
hermite_interpolate wraps it to take an NrtMatrix and return a Poly.

The two (rs)**2-sized tables, the derivative table and the basis, are read
only by poly._dot, so both are stored as int64 on every path (their entries
are below p < 2**61), since _dot multiplies int64 limbs for every p.  G, the
multipliers and their inverses keep the field's dtype: they feed elementwise
arithmetic.

The derivative table, G and the basis depend on (p, s, alphas) alone, so
codes that differ only in t or the multipliers share them: when it is built,
a code with (rs)**2 <= _SHARED_AREA takes its entry in the module-level store
_shared_tables, which keeps the _SHARED_CODES most recently used codes; a
larger code keeps its own.  The inverse multipliers are built with the code.
"""

from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError, ParameterError, require_int
from .field import PrimeField
from .nrt import NrtMatrix, _elements, column_weights
from .poly import Poly, _divmod, _dot, _mul, _shift_scale

# Cap on p**t for the exhaustive-search oracles.
DEFAULT_BUDGET = 10**6

# Messages enumerated per block inside the brute-force scans.
_BATCH = 1 << 15

# The scans number messages in int64, so p**t may not pass 2**63 - 1.
_MAX_BUDGET = (1 << 63) - 1

# Largest code length r*s.  The two biggest cached tables, the Hermite basis
# and the derivative table, hold (rs)**2 entries each: at 2048 that is
# 4,194,304 entries, stored as int64 on every path, 32 MiB each.  The object
# path builds each in the field's dtype first, 176 MiB (measured; an 8-byte
# pointer plus a Python int per entry) until the cast, while a code past it
# could ask for tens of GB.
MAX_CODE_LENGTH = 2048

# The shared table store holds the tables of the 8 most recently used codes
# with (rs)**2 <= 64**2, under 1 MiB in all (two int64 tables, 16 bytes per
# (rs)**2 on every path): a sweep over a few small codes builds each once,
# while the tables of larger codes live only as long as their CodeParams.
_SHARED_AREA = 64**2
_SHARED_CODES = 8


@lru_cache(maxsize=_SHARED_CODES)
def _shared_tables(p: int, s: int, alphas: tuple) -> dict:
    """The store entry of the code (p, s, alphas), taken by CodeParams when
    it is built and filled on first use of each table."""
    return {}


class CodeParams:
    """Validated parameters of one HRS code, with cached lookup tables."""

    def __init__(self, p, r: int, s: int, t: int, alphas, multipliers=None):
        field = p if isinstance(p, PrimeField) else PrimeField(require_int(p, "p"))
        r, s, t = require_int(r, "r"), require_int(s, "s"), require_int(t, "t")
        if not 1 <= s <= field.p:
            raise ParameterError(f"s must satisfy 1 <= s <= p, got s={s}, p={field.p}")
        if not 1 <= r <= field.p:
            raise ParameterError(f"r must satisfy 1 <= r <= p, got r={r}, p={field.p}")
        if r * s > MAX_CODE_LENGTH:
            raise ParameterError(
                f"code length r*s = {r * s} exceeds the limit {MAX_CODE_LENGTH}"
            )
        if not 1 <= t <= r * s:
            raise ParameterError(f"t must satisfy 1 <= t <= r*s, got t={t}, r*s={r * s}")
        alphas = tuple(require_int(a, "alpha") % field.p for a in alphas)
        if len(alphas) != r:
            raise ParameterError(f"expected {r} evaluation points, got {len(alphas)}")
        if len(set(alphas)) != r:
            raise ParameterError("evaluation points must be pairwise distinct")
        v = np.ones((s, r), np.int64) if multipliers is None else np.array(multipliers, dtype=object)
        if v.shape != (s, r):
            raise ParameterError(f"multiplier matrix must have shape {(s, r)}, got {v.shape}")
        v = _elements(field, v, "multiplier")
        if np.any(v == 0):
            raise ParameterError("multiplier entries must be nonzero")

        self.field = field
        self.r = r
        self.s = s
        self.t = t
        self.alphas = alphas
        self.multipliers = v
        self._alpha_col = np.array(alphas, dtype=field.dtype).reshape(r, 1)
        small = (r * s) ** 2 <= _SHARED_AREA
        self._tables = _shared_tables(field.p, s, alphas) if small else {}
        self._vinv = v  # unit multipliers are their own inverses
        if not np.all(v == 1):
            self._vinv = np.array([[field.inv(int(x)) for x in row] for row in v], dtype=field.dtype)
            self._vinv.flags.writeable = False

    @property
    def p(self) -> int:
        return self.field.p

    def __eq__(self, other):
        return (
            isinstance(other, CodeParams)
            and self.field == other.field
            and (self.r, self.s, self.t) == (other.r, other.s, other.t)
            and self.alphas == other.alphas
            and bool(np.all(self.multipliers == other.multipliers))
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"CodeParams(p={self.p}, r={self.r}, s={self.s}, t={self.t}, "
            f"alphas={self.alphas})"
        )

    # -- cached tables --------------------------------------------------------

    def derivative_table(self) -> np.ndarray:
        """Array of shape (s, r, rs) with entry (i, j, k) the order-i
        hyperderivative of X**k at alpha_j: C(k, i) * alpha_j**(k-i), and 0
        for k < i.  Built in the field's dtype, stored as int64.

        The encoder and the scan read at most the first t columns, the Taylor step of
        the Hermite tables the first rs - s + 1, and the dense key-equation
        system of tests/reference.py, for error bound e, the first e + t.
        """
        tab = self._tables.get("deriv")
        if tab is None:
            s, r, p = self.s, self.r, self.p
            n = r * s
            tab = np.zeros((s, r, n), dtype=self.field.dtype)
            # Row 0 holds the powers: columns [k, 2k) are columns [0, k)
            # times alpha**k.
            tab[0, :, 0] = 1
            step = self._alpha_col
            k = 1
            while k < n:
                tab[0, :, k : 2 * k] = tab[0, :, : min(k, n - k)] * step % p
                step = step * step % p
                k *= 2
            binom = np.ones(n, dtype=tab.dtype)  # C(k, 0)
            for i in range(1, s):
                # Hockey stick: C(k, i) = sum of C(i-1 .. k-1, i-1), k >= i.
                binom[i:] = np.cumsum(binom[i - 1 : n - 1]) % p
                tab[i, :, i:] = tab[0, :, : n - i] * binom[i:] % p
            tab = tab.astype(np.int64, copy=False)
            tab.flags.writeable = False
            self._tables["deriv"] = tab
        return tab

    def _interpolation_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(G, basis): G is prod_j (X - alpha_j)**s as rs + 1 coefficients,
        basis is int64 of shape (s, r, rs), basis[i, j] in the closed form
        of the module docstring.

        Products by Z = X - alpha_j are poly._shift_scale; G is a product
        tree of poly._mul, the Q_j one poly._divmod of G tiled r times, and
        their Taylor coefficients one poly._dot with the derivative table.
        No term of the basis sum reaches degree rs, so none is reduced mod G,
        and a sum of s terms, each below p, fits int64 until the one reduction.
        """
        tables = self._tables.get("interp")
        if tables is None:
            p, r, s = self.p, self.r, self.s
            n = r * s
            local = np.ones((r, 1), dtype=self.field.dtype)  # (X - alpha_j)**s
            for _ in range(s):
                local = _shift_scale(local, self._alpha_col, p)
            g = local
            while len(g) > 1:
                if len(g) % 2:
                    g = np.concatenate([g, np.eye(1, g.shape[1], dtype=g.dtype)])
                g = _mul(g[0::2], g[1::2], p)
            g = g[0, : n + 1]

            # Taylor coefficient i of Q_j at alpha_j is its order-i
            # hyperderivative, sum_k Q_jk * C(k, i) * alpha_j**(k-i).
            m = n - s + 1
            quot = _divmod(np.tile(g, (r, 1)), local, p)[0]
            deriv = self.derivative_table()[:, :, :m].transpose(1, 2, 0)
            taylor = _dot(quot[:, np.newaxis], deriv, p)[:, 0]

            # inv = 1 / Q_j(alpha_j + Z) mod Z**s, one coefficient at a time.
            inv = np.zeros((r, s), dtype=g.dtype)
            inv[:, 0] = [self.field.inv(int(c)) for c in taylor[:, 0]]
            for k in range(1, s):
                acc = (taylor[:, 1 : k + 1] * inv[:, k - 1 :: -1] % p).sum(axis=1) % p
                inv[:, k] = -acc * inv[:, 0] % p

            basis = np.zeros((s, r, n), dtype=g.dtype)
            for k in range(s):
                term = _shift_scale(term, self._alpha_col, p) if k else quot  # Z**k * Q_j
                for i in range(k + 1):
                    basis[i, :, : m + k] += inv[:, k - i, np.newaxis] * term % p
            basis %= p  # in place: a second object copy would raise the peak
            basis = basis.astype(np.int64, copy=False)
            g.flags.writeable = False
            basis.flags.writeable = False
            tables = self._tables["interp"] = (g, basis)
        return tables

    def inverse_multipliers(self) -> np.ndarray:
        """Entrywise inverses of the multiplier matrix, built with the code."""
        return self._vinv


def _check_message(params: CodeParams, f: Poly) -> None:
    if not isinstance(f, Poly):
        raise ParameterError(f"expected Poly, got {type(f).__name__}")
    params.field.require_same(f.field)
    if f.degree > params.t - 1:
        raise ParameterError(
            f"message degree {f.degree} exceeds the bound t-1 = {params.t - 1}"
        )


def _encode(params: CodeParams, coeffs) -> np.ndarray:
    """The s x r codeword entries, in the field's dtype, of the message with
    coefficients `coeffs` (k <= t of them, in [0, p), low degree first; a
    stack gives a stack): one product with the first k columns of the
    derivative table, then the multipliers entrywise, which _unscaled undoes."""
    s, r = params.s, params.r
    coeffs = np.asarray(coeffs, dtype=np.int64)
    *lead, k = coeffs.shape
    gen = params.derivative_table()[:, :, :k].reshape(s * r, k)
    entries = _dot(coeffs, gen.T, params.p).reshape(*lead, s, r)
    return entries * params.multipliers % params.p


def _unscaled(params: CodeParams, entries: np.ndarray) -> np.ndarray:
    """Received s x r entries, or a stack, with the multipliers divided out:
    the raw derivative values that _interpolate reads."""
    return entries * params.inverse_multipliers() % params.p


def encode(params: CodeParams, f: Poly) -> NrtMatrix:
    """Evaluate f and its first s-1 hyperderivatives at every alpha:
    _encode, as an NrtMatrix."""
    _check_message(params, f)
    return NrtMatrix(params.field, _encode(params, f.coeffs))


def _check_received(params: CodeParams, y: NrtMatrix) -> None:
    if not isinstance(y, NrtMatrix):
        raise ParameterError(f"expected NrtMatrix, got {type(y).__name__}")
    params.field.require_same(y.field)
    if y.shape != (params.s, params.r):
        raise ParameterError(
            f"matrix shape {y.shape} does not match code shape {(params.s, params.r)}"
        )


def _interpolate(params: CodeParams, entries: np.ndarray) -> np.ndarray:
    """Coefficients of the Hermite interpolant of the s x r raw derivative
    values `entries` (a stack gives one row each), rs of them, low degree
    first and untrimmed, in the dtype of G: one product with the cached basis."""
    n = params.r * params.s
    basis = params._interpolation_tables()[1]
    return _dot(entries.reshape(*entries.shape[:-2], n), basis.reshape(n, n), params.p)


def hermite_interpolate(params: CodeParams, y: NrtMatrix) -> Poly:
    """The unique H with deg H < rs whose order-(i-1) hyperderivative at
    alpha_j equals y_{i,j} for all i, j: _interpolate, as a Poly.

    H is the sum of y_{i,j} times the cached basis polynomial for (i, j).
    Multipliers play no role here; y holds raw derivative values.
    """
    _check_received(params, y)
    return Poly(params.field, _interpolate(params, y.entries).tolist())


def _check_budget(budget: int, count: int, what: str) -> int:
    """count, the size of an exhaustive job named by what, if budget allows it."""
    budget = require_int(budget, "budget")
    if budget < 0:
        raise ParameterError(f"budget must be non-negative, got {budget}")
    if budget > _MAX_BUDGET:
        raise ParameterError(f"budget {budget} exceeds the int64 limit 2**63 - 1")
    if count > budget:
        raise BudgetExceededError(f"{what} {count} exceeds the budget of {budget}")
    return count


def _message_batch(params: CodeParams, lo: int, hi: int) -> np.ndarray:
    """Coefficient rows of messages lo..hi-1 in lexicographic order.

    Message n has coefficient k equal to digit t-1-k of n in base p, so
    increasing n enumerates coefficient tuples (c_0, ..., c_{t-1}) in
    lexicographic order.
    """
    place = params.p ** np.arange(params.t - 1, -1, -1, dtype=np.int64)
    ns = np.arange(lo, hi, dtype=np.int64)
    return ns[:, np.newaxis] // place[np.newaxis, :] % params.p


def brute_force_min_distance(params: CodeParams, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum NRT weight over all nonzero codewords, by full enumeration.

    The codewords are enumerated without the multipliers: a nonzero entrywise
    scale keeps the zero pattern of every column, and so its NRT weight.
    """
    count = _check_budget(budget, params.p**params.t, "codeword count")
    s, r, t = params.s, params.r, params.t
    gen_t = params.derivative_table()[:, :, :t].reshape(s * r, t).T
    best = s * r
    for lo in range(0, count, _BATCH):
        hi = min(lo + _BATCH, count)
        msgs = _message_batch(params, lo, hi)
        flat = _dot(msgs, gen_t, params.p)
        weights = column_weights(flat.reshape(-1, s, r)).sum(axis=1)
        if lo == 0:
            weights = weights[1:]  # message 0 is the zero codeword
        if weights.size:
            best = min(best, int(weights.min()))
    return best
