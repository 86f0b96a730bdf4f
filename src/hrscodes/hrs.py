"""Hyperderivative Reed-Solomon codes over GF(p).

A code is fixed by (p, r, s, t, alphas, multipliers): messages are
polynomials of degree < t, and the codeword of f is the s x r matrix with
entry (i, j) = v_{i,j} * (order-(i-1) hyperderivative of f)(alpha_j).

The entries C(k, i) * alpha_j**(k-i) live in one cached table
(CodeParams.derivative_table), shared by the encoder and the decoder's key
equation.  Besides the encoder this module provides Hermite interpolation
(the inverse of the all-ones encoder on full-length messages), the
root-multiplicity weight formula, and exhaustive-search oracles used to
cross-check the fast decoder on small codes; their budget may not pass
2**63 - 1, since messages are numbered in int64.
"""

import numpy as np

from .errors import BudgetExceededError, ParameterError
from .field import PrimeField
from .nrt import NrtMatrix, column_weights
from .poly import Poly

# Cap on p**t for the exhaustive-search oracles.
DEFAULT_BUDGET = 10**6

# Messages enumerated per block inside the brute-force scans.
_BATCH = 1 << 15

# The scans number messages in int64, so p**t may not pass 2**63 - 1.
_MAX_BUDGET = (1 << 63) - 1


class CodeParams:
    """Validated parameters of one HRS code, with cached lookup tables."""

    def __init__(self, p, r: int, s: int, t: int, alphas, multipliers=None):
        field = p if isinstance(p, PrimeField) else PrimeField(p)
        for name, value in (("r", r), ("s", s), ("t", t)):
            if not isinstance(value, int):
                raise ParameterError(f"{name} must be an int, got {type(value).__name__}")
        if not 1 <= s <= field.p:
            raise ParameterError(f"s must satisfy 1 <= s <= p, got s={s}, p={field.p}")
        if not 1 <= r <= field.p:
            raise ParameterError(f"r must satisfy 1 <= r <= p, got r={r}, p={field.p}")
        if not 1 <= t <= r * s:
            raise ParameterError(f"t must satisfy 1 <= t <= r*s, got t={t}, r*s={r * s}")
        alphas = tuple(int(a) % field.p for a in alphas)
        if len(alphas) != r:
            raise ParameterError(f"expected {r} evaluation points, got {len(alphas)}")
        if len(set(alphas)) != r:
            raise ParameterError("evaluation points must be pairwise distinct")
        if multipliers is None:
            v = np.ones((s, r), dtype=field.dtype)
        else:
            v = np.array(multipliers, dtype=field.dtype) % field.p
            if v.shape != (s, r):
                raise ParameterError(
                    f"multiplier matrix must have shape {(s, r)}, got {v.shape}"
                )
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
        self._pow = None
        self._binom = None
        self._deriv = None
        self._enc = None
        self._vinv = None

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

    def power_table(self, count: int) -> np.ndarray:
        """Array of shape (r, count) with entry (j, k) = alpha_j ** k."""
        if self._pow is None or self._pow.shape[1] < count:
            n = max(count, 1)
            tab = np.ones((self.r, n), dtype=self.field.dtype)
            for k in range(1, n):
                tab[:, k] = tab[:, k - 1] * self._alpha_vec % self.p
            tab.flags.writeable = False
            self._pow = tab
        return self._pow[:, :count]

    def binomial_table(self, kmax: int, jmax: int) -> np.ndarray:
        """Array of shape (kmax, jmax) with entry (k, j) = C(k, j) mod p."""
        cached = self._binom
        if cached is None or cached.shape[0] < kmax or cached.shape[1] < jmax:
            n, m = max(kmax, 1), max(jmax, 1)
            if cached is not None:
                n, m = max(n, cached.shape[0]), max(m, cached.shape[1])
            tab = np.zeros((n, m), dtype=self.field.dtype)
            tab[:, 0] = 1
            for j in range(1, m):
                # Hockey stick: C(k, j) = sum of C(j-1 .. k-1, j-1).
                tab[j:, j] = np.cumsum(tab[j - 1 : n - 1, j - 1]) % self.p
            tab.flags.writeable = False
            self._binom = tab
        return self._binom[:kmax, :jmax]

    def derivative_table(self) -> np.ndarray:
        """Array of shape (s, r, t + radius) with entry (i, j, k) the
        order-i hyperderivative of X**k at alpha_j: C(k, i) * alpha_j**(k-i),
        and 0 for k < i.

        The encoder reads the first t columns; the decoder's key equation
        for error bound e reads the first e + t <= t + radius.
        """
        if self._deriv is None:
            s, r, p = self.s, self.r, self.p
            width = self.t + decoding_radius(self)
            pow_tab = self.power_table(width)
            binom = self.binomial_table(width, s)
            tab = np.zeros((s, r, width), dtype=self.field.dtype)
            for i in range(min(s, width)):
                tab[i, :, i:] = pow_tab[:, : width - i] * binom[i:, i] % p
            tab.flags.writeable = False
            self._deriv = tab
        return self._deriv

    def encoding_matrix(self) -> np.ndarray:
        """The (s*r) x t matrix mapping coefficient vectors to codeword entries.

        Row i*r+j holds the coefficients of c -> v_{i,j} * d^(i)f(alpha_j):
        entry k is v_{i,j} * C(k, i) * alpha_j**(k-i).
        """
        if self._enc is None:
            s, r, t = self.s, self.r, self.t
            enc = self.derivative_table()[:, :, :t].reshape(s * r, t)
            if not self.unit_multipliers:
                enc = enc * self.multipliers.reshape(s * r, 1) % self.p
            enc.flags.writeable = False
            self._enc = enc
        return self._enc

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


def decoding_radius(params: CodeParams) -> int:
    """Largest error weight with a guaranteed unique decoding: (rs-t)//2."""
    return (params.r * params.s - params.t) // 2


def _check_message(params: CodeParams, f: Poly) -> None:
    params.field.require_same(f.field)
    if f.degree > params.t - 1:
        raise ParameterError(
            f"message degree {f.degree} exceeds the bound t-1 = {params.t - 1}"
        )


def encode(params: CodeParams, f: Poly) -> NrtMatrix:
    """Evaluate f and its first s-1 hyperderivatives at every alpha."""
    _check_message(params, f)
    coeffs = np.zeros(params.t, dtype=params.field.dtype)
    for k, c in enumerate(f.coeffs):
        coeffs[k] = c
    enc = params.encoding_matrix()
    flat = ((enc * coeffs[np.newaxis, :]) % params.p).sum(axis=1) % params.p
    return NrtMatrix(params.field, flat.reshape(params.s, params.r))


def _check_received(params: CodeParams, y: NrtMatrix) -> None:
    if not isinstance(y, NrtMatrix):
        raise ParameterError(f"expected NrtMatrix, got {type(y).__name__}")
    params.field.require_same(y.field)
    if y.shape != (params.s, params.r):
        raise ParameterError(
            f"matrix shape {y.shape} does not match code shape {(params.s, params.r)}"
        )


def _poly_from_taylor(field: PrimeField, alpha: int, coeffs) -> Poly:
    """Expand sum of coeffs[j] * (X - alpha)**j into monomial form."""
    lin = Poly(field, (-alpha % field.p, 1))
    out = Poly.zero(field)
    for c in reversed(list(coeffs)):
        out = out * lin + Poly(field, (c,))
    return out


def _series_inverse(field: PrimeField, m, count: int) -> list[int]:
    """First `count` coefficients of 1/m as a power series; m[0] nonzero."""
    p = field.p
    lead = field.inv(int(m[0]))
    inv = [lead] + [0] * (count - 1)
    for k in range(1, count):
        acc = 0
        for j in range(1, k + 1):
            acc += m[j] * inv[k - j]
        inv[k] = -lead * acc % p
    return inv


def hermite_interpolate(params: CodeParams, y: NrtMatrix) -> Poly:
    """The unique H with deg H < rs whose order-(i-1) hyperderivative at
    alpha_j equals y_{i,j} for all i, j.

    Built point by point: the residue of H modulo (X - alpha_j)**s is the
    Taylor polynomial read off column j, and the moduli are pairwise coprime,
    so each step patches H with a multiple of the product of the previous
    moduli.  Multipliers play no role here; y holds raw derivative values.
    """
    _check_received(params, y)
    field, p, s = params.field, params.p, params.s
    h = Poly.zero(field)
    modulus = Poly.one(field)
    for j, alpha in enumerate(params.alphas):
        target = [int(v) for v in y.entries[:, j]]
        residue = h.taylor(alpha, s)
        delta = [(a - b) % p for a, b in zip(target, residue)]
        if any(delta):
            m_local = modulus.taylor(alpha, s)
            m_inv = _series_inverse(field, m_local, s)
            patch = [0] * s
            for k in range(s):
                acc = 0
                for i in range(k + 1):
                    acc += delta[i] * m_inv[k - i]
                patch[k] = acc % p
            h = h + modulus * _poly_from_taylor(field, alpha, patch)
        step = Poly(field, (-alpha % p, 1))
        for _ in range(s):
            modulus = modulus * step
    return h


def codeword_weight_formula(params: CodeParams, f: Poly) -> int:
    """NRT weight of encode(f) from root multiplicities: sr - sum of
    min(multiplicity of alpha_j in f, s)."""
    _check_message(params, f)
    total = params.s * params.r
    for alpha in params.alphas:
        total -= f.vanishing_order(alpha, cap=params.s)
    return total


def _check_budget(params: CodeParams, budget: int) -> int:
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
        flat = msgs @ enc_t % params.p
        weights = column_weights(flat.reshape(-1, params.s, params.r)).sum(axis=1)
        if lo == 0:
            weights = weights[1:]  # message 0 is the zero codeword
        if weights.size:
            best = min(best, int(weights.min()))
    return best


def _nearest_scan(params: CodeParams, y: NrtMatrix, budget: int):
    count = _check_budget(params, budget)
    enc_t = params.encoding_matrix().T
    target = y.entries.reshape(1, params.s * params.r)
    best_dist = None
    best_n = 0
    ties = 0
    for lo in range(0, count, _BATCH):
        hi = min(lo + _BATCH, count)
        msgs = _message_batch(params, lo, hi)
        flat = (msgs @ enc_t - target) % params.p
        dists = column_weights(flat.reshape(-1, params.s, params.r)).sum(axis=1)
        low = int(dists.min())
        if best_dist is None or low < best_dist:
            best_dist = low
            best_n = lo + int(np.argmin(dists))
            ties = int((dists == low).sum())
        elif low == best_dist:
            ties += int((dists == low).sum())
    coeffs = _message_batch(params, best_n, best_n + 1)[0]
    return Poly(params.field, [int(c) for c in coeffs]), best_dist, ties


def brute_force_nearest_codeword(
    params: CodeParams, y: NrtMatrix, budget: int = DEFAULT_BUDGET
):
    """Message whose codeword is NRT-nearest to y, by full enumeration.

    Ties go to the lexicographically smallest coefficient tuple.  Returns
    (message polynomial, distance).
    """
    _check_received(params, y)
    f, dist, _ = _nearest_scan(params, y, budget)
    return f, dist


def nearest_codeword_multiplicity(
    params: CodeParams, y: NrtMatrix, budget: int = DEFAULT_BUDGET
):
    """Like brute_force_nearest_codeword plus the count of codewords
    attaining the minimum distance: (message, distance, count)."""
    _check_received(params, y)
    return _nearest_scan(params, y, budget)
