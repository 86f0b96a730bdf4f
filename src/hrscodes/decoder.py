"""Welch-Berlekamp unique decoding for HRS codes under the NRT metric.

For a received s x r matrix y and an error bound e, the decoder looks for a
locator E of degree at most e and an N of degree at most e+t-1 tied
together by one linear constraint per matrix position:

    d^(l-1)N(alpha_i) = sum_{j=1..l} y_{j,i} * d^(l-j)E(alpha_i)

(d^(k) is the order-k hyperderivative, y with the multipliers divided out).
By the Leibniz rule these rows say N = E*H (mod G), where H is the Hermite
interpolant of y (deg H < rs) and G = prod_i (X - alpha_i)**s.  decode
solves that key equation by a partial extended Euclid on (G, H) in
O((rs)**2) field operations: it stops at the first remainder r_j of degree
< e+t, and (N0, E0) = (r_j, t_j) scaled to make E0 monic, where t_j is the
cofactor with r_j = t_j*H (mod G).  Since (e+t) + e <= rs, every pair
(N, E) solving the constraints with deg N < e+t and deg E <= e is
lambda*(N0, E0) for a polynomial lambda (von zur Gathen & Gerhard, Modern
Computer Algebra, Lemma 5.15).  So:

- the dense system with E monic of degree exactly e has no solution
  (no_solution) iff deg E0 > e or deg N0 - deg E0 > t-1;
- otherwise every solution has E dividing N iff E0 divides N0
  (non_divisible when not), and the quotient N/E = N0/E0 is the same;
  its degree is deg N0 - deg E0 <= t-1, so it is a message of the code.

Any quotient is re-encoded and its NRT distance to y checked, so decode
never returns a wrong message.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError
from .field import PrimeField
from .hrs import CodeParams, _check_received, decoding_radius, encode, hermite_interpolate
from .nrt import NrtMatrix, nrt_distance
from .poly import Poly, _divmod, _trim


class FailureReason(str, Enum):
    # The key equation has no solution with E monic of degree e.
    NO_SOLUTION = "no_solution"
    # Solutions exist but their locator does not divide their N.
    NON_DIVISIBLE = "non_divisible"
    # N/E is a polynomial but its codeword is farther than e from y.
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


def _check_bound(params: CodeParams, e: int) -> None:
    radius = decoding_radius(params)
    if not 0 <= e <= radius:
        raise ParameterError(f"error bound {e} outside [0, {radius}]")


def _unscaled(params: CodeParams, y: NrtMatrix) -> NrtMatrix:
    """y with the multipliers divided out: raw hyperderivative values."""
    if params.unit_multipliers:
        return y
    return NrtMatrix(params.field, y.entries * params.inverse_multipliers() % params.p)


def _partial_euclid(field: PrimeField, g: np.ndarray, h: np.ndarray, stop: int):
    """Extended Euclid on (g, h), deg h < deg g, halted at the first
    remainder r_j of degree < stop: returns (r_j, t_j) with
    r_j = t_j * h (mod g), as trimmed coefficient arrays, low degree first.

    Each remainder carries its cofactor below it as w_i = t_i + X**m * r_i
    with m = len(g).  Since deg t_{i+1} = deg g - deg r_i < m, the remainder
    of w_{i-1} divided by w_i (made monic, which keeps the remainder) is
    w_{i+1} = w_{i-1} - q_i * w_i, where q_i is the quotient of r_{i-1} by
    r_i: one division updates both.
    """
    p, m = field.p, len(g)
    w0 = np.concatenate([np.zeros(m, dtype=g.dtype), g])
    w1 = np.concatenate([np.eye(1, m, dtype=g.dtype)[0], _trim(h)])
    while len(w1) - m > stop:
        inv_lead = field.inv(int(w1[-1]))
        w = _divmod(w0, w1 * inv_lead % p, p)[1]
        w0, w1 = w1, w[: m + len(_trim(w[m:]))]
    return w1[m:], _trim(w1[:m])


def decode(params: CodeParams, y: NrtMatrix, e: int | None = None):
    """Run the full pipeline: interpolate, solve the key equation, divide,
    re-encode, verify.

    Returns DecodeSuccess or DecodeFailure; received words beyond the error
    bound are an expected condition, never an exception.  Whenever y is
    within NRT distance e of a codeword of the code, that codeword's
    message is returned.  On success the locator is monic of degree exactly
    e and the evaluator is locator * message.
    """
    _check_received(params, y)
    if e is None:
        e = decoding_radius(params)
    _check_bound(params, e)
    field, t = params.field, params.t
    h = hermite_interpolate(params, _unscaled(params, y))
    g = params._interpolation_tables()[0]
    rem, cof = _partial_euclid(field, g, np.array(h.coeffs, dtype=g.dtype), e + t)
    scale = field.inv(int(cof[-1]))
    n_poly = Poly(field, (rem * scale).tolist())
    e_poly = Poly(field, (cof * scale).tolist())
    if e_poly.degree > e or n_poly.degree - e_poly.degree > t - 1:
        return DecodeFailure(FailureReason.NO_SOLUTION)
    quotient, remainder = divmod(n_poly, e_poly)
    if not remainder.is_zero:
        return DecodeFailure(FailureReason.NON_DIVISIBLE)
    weight = nrt_distance(encode(params, quotient), y)
    if weight > e:
        return DecodeFailure(FailureReason.DISTANCE_EXCEEDED)
    pad = (0,) * (e - e_poly.degree)
    return DecodeSuccess(
        message=quotient,
        error_weight=weight,
        locator=Poly(field, pad + e_poly.coeffs),
        evaluator=Poly(field, pad + n_poly.coeffs),
    )
