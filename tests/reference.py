"""Reference implementations that the tests check the codec against.

Nothing here is on the codec's path; every function is a slow, direct
transcription of a definition or of the paper's dense algorithm:

- polynomial arithmetic on the codec's Poly value type (zero, negation,
  difference, product and Euclidean division over the array kernel) and
  the negation of an NrtMatrix;
- scalar polynomial helpers (Horner evaluation, hyperderivatives, Taylor
  coefficients by synthetic division, root multiplicities, monomials,
  schoolbook long division) and C(i, j) mod p by Lucas' theorem;
- dense Gaussian elimination over GF(p) with a nullspace basis;
- the dense rs x (2e+t) Welch-Berlekamp system of the key equation, which
  decode solves by a partial extended Euclid instead, and a hand-built
  solution of it for words close to the code;
- the NRT weight of one column, the number of matrices of a given NRT
  weight, the channel's tail-count table by direct convolution, the
  codeword weight from root multiplicities, the generator matrix with
  the multipliers applied, and the exhaustive nearest-codeword scan;
- the exact-weight sampler written with numpy ``Generator`` calls
  (``bytes`` and ``integers``), whose draws the codec's raw-word sampler
  reproduces word for word;
- the trial loop that encodes and decodes one trial at a time through
  the public decode, whose reports the codec's block loop reproduces.
"""

from dataclasses import dataclass

import numpy as np

from hrscodes import CodeParams, NrtMatrix, ParameterError, Poly, PrimeField
from hrscodes.channel import (
    MISCORRECTED,
    ChannelSpec,
    TrialReport,
    _stream,
    _tail_counts,
    count_matrices_of_weight,
    sample_error,
)
from hrscodes.decoder import DecodeSuccess, FailureReason, _check_bound, decode
from hrscodes.hrs import (
    _BATCH,
    DEFAULT_BUDGET,
    _check_budget,
    _check_message,
    _check_received,
    _encode,
    _message_batch,
    _unscaled,
    encode,
    hermite_interpolate,
)
from hrscodes.nrt import column_weights, nrt_distance
from hrscodes.poly import _divmod, _dot, _mul

# -- arithmetic on the codec's value types --------------------------------------


def zero_poly(field: PrimeField) -> Poly:
    return Poly(field, ())


def is_zero(f: Poly) -> bool:
    return not f.coeffs


def neg(f: Poly) -> Poly:
    p = f.field.p
    return Poly(f.field, [-c % p for c in f.coeffs])


def sub(f: Poly, g: Poly) -> Poly:
    return f + neg(g)


def mul(f: Poly, g: Poly) -> Poly:
    """f * g, one _mul call."""
    f.field.require_same(g.field)
    if is_zero(f) or is_zero(g):
        return zero_poly(f.field)
    dtype = f.field.dtype
    a = np.array([f.coeffs], dtype=dtype)
    b = np.array([g.coeffs], dtype=dtype)
    return Poly(f.field, _mul(a, b, f.field.p)[0].tolist())


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: f = q * g + r with deg r < deg g, one _divmod
    call, which inverts the leading coefficient of g."""
    f.field.require_same(g.field)
    if is_zero(g):
        raise ZeroDivisionError("polynomial division by zero polynomial")
    field = f.field
    a = np.array(f.coeffs, dtype=field.dtype)
    b = np.array(g.coeffs, dtype=field.dtype)
    quot, rem = _divmod(a, b, field.p)
    return Poly(field, quot.tolist()), Poly(field, rem.tolist())


def neg_matrix(a: NrtMatrix) -> NrtMatrix:
    return NrtMatrix(a.field, (-a.entries) % a.field.p)


# -- scalars and polynomials ----------------------------------------------------


def binomial(field: PrimeField, i: int, j: int) -> int:
    """C(i, j) mod p by Lucas' theorem, with C(i, j) = 0 for j > i or j < 0.

    Safe for arbitrary non-negative i, j: each base-p digit pair is a
    small binomial computed multiplicatively mod p.
    """
    if j < 0 or j > i:
        return 0
    result = 1
    p = field.p
    while i or j:
        di, dj = i % p, j % p
        if dj > di:
            return 0
        result = result * _small_binomial(field, di, dj) % p
        i //= p
        j //= p
    return result


def _small_binomial(field: PrimeField, n: int, k: int) -> int:
    # n, k < p, so no factor below is divisible by p.
    k = min(k, n - k)
    num = den = 1
    for step in range(k):
        num = num * (n - step) % field.p
        den = den * (step + 1) % field.p
    return num * field.inv(den) % field.p if k else 1


def monomial(field: PrimeField, degree: int, coeff: int = 1) -> Poly:
    """coeff * X**degree"""
    return Poly(field, (0,) * degree + (coeff,))


def evaluate(f: Poly, alpha: int) -> int:
    """f(alpha) by Horner's rule."""
    p = f.field.p
    alpha = int(alpha) % p
    acc = 0
    for c in reversed(f.coeffs):
        acc = (acc * alpha + c) % p
    return acc


def hyperderivative(f: Poly, j: int) -> Poly:
    """Order-j hyperderivative: sum of C(i, j) * f_i * X**(i - j).

    The zero polynomial is returned whenever j exceeds the degree.
    """
    if j < 0:
        raise ValueError("derivative order must be non-negative")
    if j == 0:
        return f
    p = f.field.p
    out = []
    for i in range(j, len(f.coeffs)):
        out.append(binomial(f.field, i, j) * f.coeffs[i] % p)
    return Poly(f.field, out)


def taylor(f: Poly, alpha: int, count: int) -> list[int]:
    """First `count` coefficients of f expanded in powers of (X - alpha).

    Computed by repeated synthetic division; entry j equals the order-j
    hyperderivative of f at alpha.
    """
    p = f.field.p
    alpha = int(alpha) % p
    coeffs = list(f.coeffs)
    out = []
    for _ in range(count):
        # Synthetic division by (X - alpha): the remainder is the next
        # Taylor coefficient and the quotient carries on.
        acc = 0
        for k in range(len(coeffs) - 1, -1, -1):
            acc = (acc * alpha + coeffs[k]) % p
            coeffs[k] = acc
        out.append(coeffs.pop(0) if coeffs else 0)
    return out


def vanishing_order(f: Poly, alpha: int, cap: int) -> int:
    """Multiplicity of (X - alpha) in f, saturated at `cap`.

    The zero polynomial vanishes to every order and returns `cap`.
    """
    if cap < 0:
        raise ValueError("cap must be non-negative")
    coeffs = taylor(f, alpha, cap)
    return next((k for k, c in enumerate(coeffs) if c), cap)


def long_division(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Schoolbook division of a by b over GF(p) on lists of Python ints, low
    degree first, b with a nonzero top coefficient.

    Returns (q, r) with a = q*b + r in the layout of poly._divmod: q has
    len(a) - len(b) + 1 coefficients (none when a is shorter than b) and r
    the len(b) - 1 lowest coefficients of the remainder (all of a when a is
    shorter); neither is trimmed.
    """
    deg = len(b) - 1
    inv = pow(b[-1], -1, p)
    rem = [c % p for c in a]
    quot = [0] * max(len(a) - deg, 0)
    for k in reversed(range(len(quot))):
        quot[k] = rem[k + deg] * inv % p
        for i, c in enumerate(b):
            rem[k + i] = (rem[k + i] - quot[k] * c) % p
    return quot, rem[:deg]


# -- dense linear algebra over GF(p) -----------------------------------------------


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
    Elimination defers modular reduction as long as int64 magnitudes
    permit.
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


# -- the dense Welch-Berlekamp system ----------------------------------------------


@dataclass(frozen=True)
class WbSystem:
    """The dense rs x (2e+t) linear form of the key equation for one error
    bound: the reference that decode's Euclid solve is checked against.

    Row (l-1)*r + (i-1) states the order-(l-1) constraint at alpha_i,

        d^(l-1)N(alpha_i) = sum_{j=1..l} y_{j,i} * d^(l-j)E(alpha_i)

    (d^(k) the order-k hyperderivative).  Column layout: columns
    0..e+t-1 hold the coefficients a_0..a_{e+t-1} of N, columns
    e+t..2e+t-1 hold b_0..b_{e-1} of E.  The top coefficient b_e = 1
    (E monic of degree exactly e) is folded into the right-hand side.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    e: int
    t: int

    @property
    def unknown_count(self) -> int:
        return 2 * self.e + self.t

    def split(self, field, x) -> tuple[Poly, Poly]:
        """Read (N, E) off an unknown vector, restoring the monic top of E."""
        cut = self.e + self.t
        n_poly = Poly(field, [int(c) for c in x[:cut]])
        e_poly = Poly(field, [int(c) for c in x[cut:]] + [1])
        return n_poly, e_poly


def build_wb_system(params: CodeParams, y: NrtMatrix, e: int) -> WbSystem:
    """Assemble the key-equation system for the given error bound.

    y is used as-is; callers with a non-unit multiplier matrix divide it
    out first (see decode).
    """
    _check_received(params, y)
    _check_bound(params, e)
    s, r, t, p = params.s, params.r, params.t, params.p
    table = params.derivative_table()
    # Leibniz rule: the order-d row pairs y[d-m] with the order-m derivative
    # of E, zero for m > e, so E's columns are y convolved with the table.
    conv = np.zeros((s, r, e + 1), dtype=params.field.dtype)
    for m in range(min(s, e + 1)):
        conv[m:] += y.entries[: s - m, :, np.newaxis] * table[m, :, : e + 1] % p
    conv %= p
    # N takes columns 0..e+t-1; E's monic top b_e = 1 moves column e to
    # the right-hand side, leaving b_0..b_{e-1} negated.
    matrix = np.concatenate([table[:, :, : e + t], -conv[:, :, :e] % p], axis=2)
    rhs = conv[:, :, e].reshape(s * r)
    return WbSystem(matrix=matrix.reshape(s * r, 2 * e + t), rhs=rhs, e=e, t=t)


def existence_witness(
    params: CodeParams, message: Poly, y: NrtMatrix, e: int
) -> tuple[Poly, Poly]:
    """A hand-built (E1, N1) solving the key equation for a close message.

    With Q the gap between the message and the degree-< rs interpolant of
    y, the locator E1 = X**(e-delta) * prod (X-alpha_j)**(s-nu_j) collects
    the deficient vanishing orders nu_j of Q, and N1 = E1 * message.  It
    certifies the dense system is satisfiable whenever y lies within
    distance e of the code.
    """
    _check_received(params, y)
    params.field.require_same(message.field)
    field, p, s = params.field, params.p, params.s
    _check_bound(params, e)
    if nrt_distance(encode(params, message), y) > e:
        raise ParameterError("message is farther than e from y")

    gap = sub(message, hermite_interpolate(params, NrtMatrix(field, _unscaled(params, y.entries))))
    orders = [vanishing_order(gap, alpha, cap=s) for alpha in params.alphas]
    delta = sum(s - nu for nu in orders)
    if delta < e and 0 in params.alphas:
        raise ParameterError(
            "witness padding X**(e-delta) would vanish at the evaluation point 0"
        )
    locator = monomial(field, e - delta)
    for alpha, nu in zip(params.alphas, orders):
        lin = Poly(field, (-alpha % p, 1))
        for _ in range(s - nu):
            locator = mul(locator, lin)
    return locator, mul(locator, message)


# -- weights and exhaustive search -------------------------------------------------


def column_weight(col, s: int | None = None) -> int:
    """NRT weight of one length-s column: s - i + 1 at topmost nonzero row i."""
    col = list(col)
    if s is None:
        s = len(col)
    elif len(col) != s:
        raise ParameterError(f"column has length {len(col)}, expected {s}")
    return int(column_weights(np.array(col).reshape(s, 1))[0])


def count_error_matrices(s: int, r: int, p: int, w: int) -> int:
    """Number of s x r matrices of NRT weight exactly w."""
    return _tail_counts(p, s, r, w)[r][w]


def tail_counts(p: int, s: int, r: int, w: int) -> list[list[int]]:
    """table[c][v] = number of ways c columns can carry total weight v <= w,
    each row the convolution of the one before with the column counts."""
    table = [[0] * (w + 1) for _ in range(r + 1)]
    table[0][0] = 1
    col = [count_matrices_of_weight(s, p, u) for u in range(min(s, w) + 1)]
    for c in range(1, r + 1):
        for v in range(w + 1):
            table[c][v] = sum(col[u] * table[c - 1][v - u] for u in range(min(s, v) + 1))
    return table


def codeword_weight_formula(params: CodeParams, f: Poly) -> int:
    """NRT weight of encode(f) from root multiplicities: sr - sum of
    min(multiplicity of alpha_j in f, s)."""
    _check_message(params, f)
    total = params.s * params.r
    for alpha in params.alphas:
        total -= vanishing_order(f, alpha, cap=params.s)
    return total


def encoding_matrix(params: CodeParams) -> np.ndarray:
    """The (s*r) x t int64 generator matrix: row i*r+j maps coefficient
    vectors to v_{i,j} * d^(i)f(alpha_j), so entry k is
    v_{i,j} * C(k, i) * alpha_j**(k-i)."""
    s, r, t = params.s, params.r, params.t
    gen = params.derivative_table()[:, :, :t].reshape(s * r, t)
    return (gen * params.multipliers.reshape(s * r, 1) % params.p).astype(np.int64)


def nearest_codeword_multiplicity(
    params: CodeParams, y: NrtMatrix, budget: int = DEFAULT_BUDGET
):
    """Message whose codeword is NRT-nearest to y, by full enumeration, with
    the count of codewords attaining the minimum: (message, distance, count).

    Ties go to the lexicographically smallest coefficient tuple.
    """
    _check_received(params, y)
    count = _check_budget(budget, params.p**params.t, "codeword count")
    enc_t = encoding_matrix(params).T
    target = y.entries.reshape(1, params.s * params.r)
    best_dist = None
    best_n = 0
    ties = 0
    for lo in range(0, count, _BATCH):
        hi = min(lo + _BATCH, count)
        msgs = _message_batch(params, lo, hi)
        flat = (_dot(msgs, enc_t, params.p) - target) % params.p
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
    """nearest_codeword_multiplicity without the count: (message, distance)."""
    f, dist, _ = nearest_codeword_multiplicity(params, y, budget)
    return f, dist


# -- the channel -------------------------------------------------------------------


def uniform_below(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n) for arbitrary-precision n, by rejection."""
    bits = (n - 1).bit_length()
    nbytes = (bits + 7) // 8
    mask = (1 << bits) - 1
    while True:
        x = int.from_bytes(rng.bytes(nbytes), "little") & mask
        if x < n:
            return x


def generator_sample_error(spec: ChannelSpec, rng: np.random.Generator | None = None) -> NrtMatrix:
    """sample_error as numpy Generator calls: one uniform_below per column
    for its weight, then integers(1, p) for its top entry and
    integers(0, p, size=u-1) for the entries below it."""
    if rng is None:
        rng = spec.rng()
    gf = PrimeField(spec.p)
    s, r, p = spec.s, spec.r, spec.p
    entries = np.zeros((s, r), dtype=gf.dtype)
    remaining = spec.weight
    table = _tail_counts(p, s, r, spec.weight)
    col_counts = [count_matrices_of_weight(s, p, u) for u in range(s + 1)]
    for j in range(r):
        tail = table[r - 1 - j]
        draw = uniform_below(rng, table[r - j][remaining])
        u = 0
        while True:
            bucket = col_counts[u] * tail[remaining - u]
            if draw < bucket:
                break
            draw -= bucket
            u += 1
        if u > 0:
            entries[s - u, j] = int(rng.integers(1, p))
            if u > 1:
                # Plain ints so object arrays never hold numpy scalars.
                entries[s - u + 1 :, j] = [int(x) for x in rng.integers(0, p, size=u - 1)]
        remaining -= u
    return NrtMatrix(gf, entries)


def run_trials(params: CodeParams, weight: int, trials: int, seed: int) -> TrialReport:
    """channel.run_trials one trial at a time, without its timing: draw the
    message and the error from the trial's own stream, encode the message,
    decode the received word with the public decode and compare."""
    spec = ChannelSpec(p=params.p, s=params.s, r=params.r, weight=weight, seed=seed)
    counts = {
        FailureReason.NO_SOLUTION.value: 0,
        FailureReason.NON_DIVISIBLE.value: 0,
        FailureReason.DISTANCE_EXCEEDED.value: 0,
        MISCORRECTED: 0,
    }
    successes = 0
    rng = _stream(spec.seed, 0)
    fresh = rng.bit_generator.state
    for index in range(trials):
        fresh["state"]["key"][1] = index
        rng.bit_generator.state = fresh
        coeffs = rng.integers(0, params.p, size=params.t)
        noisy = NrtMatrix(params.field, _encode(params, coeffs) + sample_error(spec, rng).entries)
        outcome = decode(params, noisy)
        if isinstance(outcome, DecodeSuccess):
            if outcome.message == Poly(params.field, coeffs.tolist()):
                successes += 1
            else:
                counts[MISCORRECTED] += 1
        else:
            counts[outcome.reason.value] += 1
    return TrialReport(weight=spec.weight, trials=trials, successes=successes, failures=counts)
