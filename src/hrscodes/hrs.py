"""Hyperderivative Reed-Solomon codes over GF(p).

A code is fixed by (p, r, s, t, alphas, multipliers): messages are
polynomials of degree < t, and the codeword of f is the s x r matrix with
entry (i, j) = v_{i,j} * (order-(i-1) hyperderivative of f)(alpha_j).

The entries C(k, i) * alpha_j**(k-i) live in one cached table
(CodeParams.derivative_table), which feeds both the encoder and the Hermite
tables.  Besides the encoder this module provides Hermite interpolation
(the inverse of the all-ones encoder on full-length messages) and the
exhaustive minimum-distance scan behind the CLI's mindist; its budget may
not pass 2**63 - 1, since messages are numbered in int64.  The encoder and
the scan's batched re-encoding are each one exact GF(p) matrix product,
poly._dot.

Hermite interpolation is one product with a cached basis: entry (i, j) of
the basis is the polynomial of degree < rs whose only nonzero
hyperderivative of order < s at the points is order i at alpha_j.  It
equals Q_j * (Z**i / Q_j(alpha_j + Z) mod Z**s) with Z = X - alpha_j and
Q_j = G / Z**s, where G = prod_j (X - alpha_j)**s; G is cached beside it
and is the modulus of the decoder's key equation.  The basis is built once
per code with the array kernel of the poly module (poly._mul for the
product tree of G, the Horner steps and the basis recurrence, poly._divmod
for every Q_j at once, then the Taylor coefficients of each Q_j from the
derivative table and their series inverses), so an interpolation is one
(rs)-by-(rs) vector-matrix product, poly._dot.  That product is the
private _interpolate, on arrays, which the decoder calls;
hermite_interpolate wraps it to take an NrtMatrix and return a Poly.

The two tables only poly._dot reads, the basis and the encoding matrix, are
stored as int64 on every path (their entries are below p < 2**61), since
_dot multiplies int64 limbs for every p.  G and the derivative table keep
the field's dtype: they feed elementwise arithmetic.
"""

import numpy as np

from .errors import BudgetExceededError, ParameterError, require_int
from .field import PrimeField
from .nrt import NrtMatrix, column_weights
from .poly import Poly, _divmod, _dot, _mul

# Cap on p**t for the exhaustive-search oracles.
DEFAULT_BUDGET = 10**6

# Messages enumerated per block inside the brute-force scans.
_BATCH = 1 << 15

# The scans number messages in int64, so p**t may not pass 2**63 - 1.
_MAX_BUDGET = (1 << 63) - 1

# Largest code length r*s.  The two biggest cached tables, the Hermite basis
# and the derivative table, hold (rs)**2 entries each: at 2048 that is
# 4,194,304 entries.  The basis is int64 on every path, 32 MiB; the
# derivative table is 32 MiB on the int64 path and about 160 MiB on the
# object path (an 8-byte pointer plus a 32-byte int per entry), while a code
# past it could ask for tens of GB.
MAX_CODE_LENGTH = 2048


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
        if multipliers is None:
            v = np.ones((s, r), dtype=field.dtype)
        else:
            v = np.array(multipliers, dtype=object)
            if v.shape != (s, r):
                raise ParameterError(
                    f"multiplier matrix must have shape {(s, r)}, got {v.shape}"
                )
            v = np.array(
                [require_int(x, "multiplier") % field.p for x in v.flat], dtype=field.dtype
            ).reshape(s, r)
            if np.any(v == 0):
                raise ParameterError("multiplier entries must be nonzero")
        v.flags.writeable = False

        self.field = field
        self.r = r
        self.s = s
        self.t = t
        self.alphas = alphas
        self.multipliers = v
        self.unit_multipliers = bool(np.all(v == 1))
        self._alpha_vec = np.array(alphas, dtype=field.dtype)
        self._deriv = None
        self._enc = None
        self._vinv = None
        self._interp = None

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
        for k < i.

        The encoder reads the first t columns, the Taylor step of the Hermite
        tables the first rs - s + 1, and the dense key-equation system of
        tests/reference.py, for error bound e, the first e + t.
        """
        if self._deriv is None:
            s, r, p = self.s, self.r, self.p
            n = r * s
            tab = np.zeros((s, r, n), dtype=self.field.dtype)
            # Row 0 holds the powers: columns [k, 2k) are columns [0, k)
            # times alpha**k.
            tab[0, :, 0] = 1
            step = self._alpha_vec[:, np.newaxis]
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
            tab.flags.writeable = False
            self._deriv = tab
        return self._deriv

    def encoding_matrix(self) -> np.ndarray:
        """The (s*r) x t int64 matrix mapping coefficient vectors to codeword
        entries.

        Row i*r+j holds the coefficients of c -> v_{i,j} * d^(i)f(alpha_j):
        entry k is v_{i,j} * C(k, i) * alpha_j**(k-i).
        """
        if self._enc is None:
            s, r, t = self.s, self.r, self.t
            enc = self.derivative_table()[:, :, :t].reshape(s * r, t)
            if not self.unit_multipliers:
                enc = enc * self.multipliers.reshape(s * r, 1) % self.p
            enc = enc.astype(np.int64, copy=False)
            enc.flags.writeable = False
            self._enc = enc
        return self._enc

    def _interpolation_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(G, basis): G is prod_j (X - alpha_j)**s as rs + 1 coefficients,
        basis is int64 of shape (s, r, rs) with basis[i, j] the coefficients
        of the polynomial of degree < rs whose order-i hyperderivative at
        alpha_j is 1 and whose other hyperderivatives of order < s at every
        point are 0.
        """
        if self._interp is None:
            p, r, s = self.p, self.r, self.s
            n = r * s
            lin = np.stack([-self._alpha_vec % p, np.ones_like(self._alpha_vec)], axis=1)
            local = np.ones((r, 1), dtype=self.field.dtype)  # (X - alpha_j)**s
            for _ in range(s):
                local = _mul(local, lin, p)
            g = local
            while len(g) > 1:
                if len(g) % 2:
                    g = np.concatenate([g, np.eye(1, g.shape[1], dtype=g.dtype)])
                g = _mul(g[0::2], g[1::2], p)
            g = g[0, : n + 1]

            # Q_j = G / (X - alpha_j)**s, all j in one division, and its
            # Taylor coefficients at alpha_j: coefficient i is the order-i
            # hyperderivative, sum_k Q_jk * C(k, i) * alpha_j**(k-i).
            m = n - s + 1
            quot = _divmod(np.tile(g, (r, 1)), local, p)[0]
            deriv = self.derivative_table()[:, :, :m]
            taylor = np.stack([(quot * d % p).sum(axis=1) % p for d in deriv], axis=1)

            # inv = 1 / Q_j(alpha_j + Z) mod Z**s, expanded back into powers
            # of X as poly = inv(X - alpha_j).
            inv = np.zeros((r, s), dtype=g.dtype)
            inv[:, 0] = [self.field.inv(int(c)) for c in taylor[:, 0]]
            for k in range(1, s):
                acc = (taylor[:, 1 : k + 1] * inv[:, k - 1 :: -1] % p).sum(axis=1) % p
                inv[:, k] = -acc * inv[:, 0] % p
            poly = np.zeros((r, s), dtype=g.dtype)
            for k in range(s - 1, -1, -1):
                poly = _mul(poly, lin, p)[:, :s]
                poly[:, 0] = (poly[:, 0] + inv[:, k]) % p

            # Order 0 is Q_j * poly; order i+1 is (X - alpha_j) times order
            # i, minus the multiple of the monic G that cancels its X**rs term.
            basis = np.empty((s, r, n), dtype=g.dtype)
            basis[0] = _mul(poly, quot, p)
            for i in range(1, s):
                prev = basis[i - 1]
                top = prev[:, n - 1 : n]
                basis[i] = (_mul(prev, lin, p) - top * g % p)[:, :n] % p
            basis = basis.astype(np.int64, copy=False)
            g.flags.writeable = False
            basis.flags.writeable = False
            self._interp = (g, basis)
        return self._interp

    def inverse_multipliers(self) -> np.ndarray:
        """Entrywise inverses of the multiplier matrix."""
        if self._vinv is None:
            inv = np.array(
                [[self.field.inv(int(v)) for v in row] for row in self.multipliers],
                dtype=self.field.dtype,
            )
            inv.flags.writeable = False
            self._vinv = inv
        return self._vinv


def _check_message(params: CodeParams, f: Poly) -> None:
    params.field.require_same(f.field)
    if f.degree > params.t - 1:
        raise ParameterError(
            f"message degree {f.degree} exceeds the bound t-1 = {params.t - 1}"
        )


def encode(params: CodeParams, f: Poly) -> NrtMatrix:
    """Evaluate f and its first s-1 hyperderivatives at every alpha."""
    _check_message(params, f)
    coeffs = np.zeros(params.t, dtype=np.int64)
    coeffs[: len(f.coeffs)] = f.coeffs
    flat = _dot(coeffs, params.encoding_matrix().T, params.p)
    return NrtMatrix(params.field, flat.reshape(params.s, params.r))


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
    values `entries`, rs of them, low degree first and untrimmed, in the
    dtype of G: one product with the cached basis."""
    n = params.r * params.s
    basis = params._interpolation_tables()[1]
    return _dot(entries.reshape(n), basis.reshape(n, n), params.p)


def hermite_interpolate(params: CodeParams, y: NrtMatrix) -> Poly:
    """The unique H with deg H < rs whose order-(i-1) hyperderivative at
    alpha_j equals y_{i,j} for all i, j: _interpolate, as a Poly.

    H is the sum of y_{i,j} times the cached basis polynomial for (i, j).
    Multipliers play no role here; y holds raw derivative values.
    """
    _check_received(params, y)
    return Poly(params.field, _interpolate(params, y.entries).tolist())


def _check_budget(params: CodeParams, budget: int) -> int:
    if budget < 0:
        raise ParameterError(f"budget must be non-negative, got {budget}")
    if budget > _MAX_BUDGET:
        raise ParameterError(f"budget {budget} exceeds the int64 limit 2**63 - 1")
    count = params.p**params.t
    if count > budget:
        raise BudgetExceededError(
            f"enumerating {count} codewords exceeds the budget of {budget}"
        )
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
    """Minimum NRT weight over all nonzero codewords, by full enumeration."""
    count = _check_budget(params, budget)
    enc_t = params.encoding_matrix().T
    best = params.s * params.r
    for lo in range(0, count, _BATCH):
        hi = min(lo + _BATCH, count)
        msgs = _message_batch(params, lo, hi)
        flat = _dot(msgs, enc_t, params.p)
        weights = column_weights(flat.reshape(-1, params.s, params.r)).sum(axis=1)
        if lo == 0:
            weights = weights[1:]  # message 0 is the zero codeword
        if weights.size:
            best = min(best, int(weights.min()))
    return best
