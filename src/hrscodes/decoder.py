"""Welch-Berlekamp unique decoding for HRS codes under the NRT metric.

For a received s x r matrix y and an error bound e, the decoder looks for a
locator E of degree at most e and an N of degree at most e+t-1 tied
together by one linear constraint per matrix position:

    d^(l-1)N(alpha_i) = sum_{j=1..l} y_{j,i} * d^(l-j)E(alpha_i)

(d^(k) is the order-k hyperderivative, y unscaled by hrs._unscaled).
By the Leibniz rule these rows say N = E*H (mod G), where H is the Hermite
interpolant of y (deg H < rs) and G = prod_i (X - alpha_i)**s.  The stage
chain _decode_block, run by decode on one word and by channel.run_trials on
a block, solves that key equation by a partial extended Euclid on (G, H) in
O((rs)**2) field operations per word: it stops at the first remainder r_j of
degree < e+t, and (N0, E0) = (r_j, t_j) scaled to make E0 monic, where t_j
is the cofactor with r_j = t_j*H (mod G).  Since (e+t) + e <= rs, every pair
(N, E) solving the constraints with deg N < e+t and deg E <= e is
lambda*(N0, E0) for a polynomial lambda (von zur Gathen & Gerhard, Modern
Computer Algebra, Lemma 5.15).  So:

- the dense system with E monic of degree exactly e has no solution
  (no_solution) iff deg E0 > e or deg N0 - deg E0 > t-1;
- otherwise every solution has E dividing N iff E0 divides N0
  (non_divisible when not), and the quotient N/E = N0/E0 = r_j/t_j,
  which _decode_block divides unscaled, is the same; its degree is
  deg N0 - deg E0 <= t-1, so it is a message of the code.

decode returns deg E0 as the error weight, the NRT distance from y to the
codeword of f = N0/E0, without re-encoding f; it never returns a wrong
message.  At most: N0 = E0*H (mod G) gives E0*(H - f) = 0 (mod G), so with
m_j the multiplicity of alpha_j in E0, H - f vanishes to order >= s - m_j
at alpha_j: the top s - m_j entries of column j of y - enc(f), unscaled,
are 0, and the distance is at most sum m_j <= deg E0 <= e.  At least: the
error locator L = prod_j (X - alpha_j)**w_j of y - enc(f), w_j its column
weights, has degree d <= e and (L*f, L) solves the key equation, so E0
divides L and deg E0 <= d.  So DISTANCE_EXCEEDED is never returned,
and fail_distance in a trial report always reads 0; both keep the CSV layout.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError, require_int
from .hrs import CodeParams, _check_received, _interpolate, _unscaled
from .nrt import NrtMatrix
from .poly import Poly, _divmod, _trim


class FailureReason(str, Enum):
    # The key equation has no solution with E monic of degree e.
    NO_SOLUTION = "no_solution"
    # Solutions exist but their locator does not divide their N.
    NON_DIVISIBLE = "non_divisible"
    # Never returned (see the module docstring); kept for the CSV column.
    DISTANCE_EXCEEDED = "distance_exceeded"


@dataclass(frozen=True)
class DecodeSuccess:
    message: Poly
    error_weight: int
    locator: Poly
    evaluator: Poly

    ok = True


@dataclass(frozen=True)
class DecodeFailure:
    reason: FailureReason

    ok = False


def decoding_radius(params: CodeParams) -> int:
    """Largest error weight with a guaranteed unique decoding: (rs-t)//2."""
    return (params.r * params.s - params.t) // 2


def _check_bound(params: CodeParams, e: int) -> int:
    e, radius = require_int(e, "e"), decoding_radius(params)
    if not 0 <= e <= radius:
        raise ParameterError(f"error bound {e} outside [0, {radius}]")
    return e


def _partial_euclid(p: int, g: np.ndarray, h: np.ndarray, stop: int):
    """Extended Euclid on (g, h), deg h < deg g, halted at the first
    remainder r_j of degree < stop: returns (r_j, t_j) with
    r_j = t_j * h (mod g), as trimmed coefficient arrays, low degree first.

    Each remainder carries its cofactor below it as w_i = t_i + X**m * r_i
    with m = len(g) - stop.  While the loop runs, deg r_i >= stop, so
    deg t_{i+1} = deg g - deg r_i < m: the cofactor never reaches the
    remainder part.  And deg t_i + deg q_i = deg g - deg r_i < m + deg r_i,
    where q_i is the quotient of r_{i-1} by r_i, so q_i * t_i stays below
    the leading term of w_i and the quotient of w_{i-1} by w_i is q_i too.
    Hence the remainder of w_{i-1} divided by w_i is
    w_{i+1} = w_{i-1} - q_i * w_i: one division updates both.  w_i is passed
    as it is; _divmod inverts its leading coefficient.
    """
    m, h = len(g) - stop, _trim(h)
    w0, w1 = np.zeros(m + len(g), dtype=g.dtype), np.zeros(m + len(h), dtype=g.dtype)
    w0[m:], w1[0], w1[m:] = g, 1, h
    while len(w1) - m > stop:
        w = _divmod(w0, w1, p)[1]
        w0, w1 = w1, w[: m + len(_trim(w[m:]))]
    return w1[m:], _trim(w1[:m])


def _decode_block(params: CodeParams, entries: np.ndarray, e: int) -> list:
    """decode's stages on a stack of received s x r entries at bound e: one
    unscale-and-_interpolate product, the partial Euclid and the two degree
    tests per word, and one _divmod of r_j by t_j per (len r_j, len t_j)
    group.  Per word it returns a FailureReason or (quotient, r_j, t_j),
    r_j and t_j being N0 and E0 up to the scale that makes E0 monic."""
    p, t, out, shapes = params.p, params.t, [], {}
    g = params._interpolation_tables()[0]
    for h in _interpolate(params, _unscaled(params, entries)):
        rem, cof = _partial_euclid(p, g, h, e + t)
        # Both are trimmed, so deg = len - 1; r_j = 0 passes the second test.
        if len(cof) - 1 > e or len(rem) - len(cof) > t - 1:
            out.append(FailureReason.NO_SOLUTION)
        else:
            shapes.setdefault((len(rem), len(cof)), []).append(len(out))
            out.append((rem, cof))
    for index in shapes.values():
        rems, cofs = map(np.array, zip(*(out[i] for i in index)))
        for i, quot, rest in zip(index, *_divmod(rems, cofs, p)):
            out[i] = FailureReason.NON_DIVISIBLE if rest.any() else (quot, *out[i])
    return out


def decode(params: CodeParams, y: NrtMatrix, e: int | None = None):
    """Check the input, then run _decode_block on a stack of one word, whose
    one-row division _divmod runs as a row; Poly values are built only for
    a success, the locator and evaluator scaled to make E0 monic.

    Returns DecodeSuccess or DecodeFailure; received words beyond the error
    bound are an expected condition, never an exception.  Whenever y is
    within NRT distance e of a codeword of the code, that codeword's
    message is returned.  On success the error weight is deg E0, the NRT
    distance from y to that codeword, the locator X**(e - deg E0) * E0 is
    monic of degree exactly e, and the evaluator is locator * message.
    """
    _check_received(params, y)
    e = _check_bound(params, decoding_radius(params) if e is None else e)
    solved = _decode_block(params, y.entries[np.newaxis], e)[0]
    if isinstance(solved, FailureReason):
        return DecodeFailure(solved)
    quot, rem, cof = solved
    field, p, pad = params.field, params.p, [0] * (e + 1 - len(cof))
    scale = field.inv(int(cof[-1]))  # makes E0 monic
    return DecodeSuccess(
        message=Poly(field, quot.tolist()),
        error_weight=len(cof) - 1,
        locator=Poly(field, pad + (cof * scale % p).tolist()),
        evaluator=Poly(field, pad + (rem * scale % p).tolist()),
    )
