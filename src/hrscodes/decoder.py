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
never returns a wrong message.  build_wb_system keeps the dense rs x (2e+t)
form of the same constraints as a reference for tests.
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


@dataclass(frozen=True)
class WbSystem:
    """The dense rs x (2e+t) linear form of the key equation for one error
    bound: the reference that decode's Euclid solve is checked against.

    Column layout: columns 0..e+t-1 hold the coefficients a_0..a_{e+t-1} of
    N, columns e+t..2e+t-1 hold b_0..b_{e-1} of E.  The top coefficient
    b_e = 1 (E monic of degree exactly e) is folded into the right-hand
    side.  Row (l-1)*r + (i-1) states the order-(l-1) constraint at
    alpha_i.
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


def _check_bound(params: CodeParams, e: int) -> None:
    radius = decoding_radius(params)
    if not 0 <= e <= radius:
        raise ParameterError(f"error bound {e} outside [0, {radius}]")


def _unscaled(params: CodeParams, y: NrtMatrix) -> NrtMatrix:
    """y with the multipliers divided out: raw hyperderivative values."""
    if params.unit_multipliers:
        return y
    return NrtMatrix(params.field, y.entries * params.inverse_multipliers() % params.p)


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


def existence_witness(
    params: CodeParams, message: Poly, y: NrtMatrix, e: int
) -> tuple[Poly, Poly]:
    """A hand-built (E1, N1) solving the key equation for a close message.

    With Q the gap between the message and the degree-< rs interpolant of
    y, the locator E1 = X**(e-delta) * prod (X-alpha_j)**(s-nu_j) collects
    the deficient vanishing orders nu_j of Q, and N1 = E1 * message.  Used
    as a test oracle: it certifies the solved system is satisfiable
    whenever y lies within distance e of the code.
    """
    _check_received(params, y)
    params.field.require_same(message.field)
    field, p, s = params.field, params.p, params.s
    _check_bound(params, e)
    if nrt_distance(encode(params, message), y) > e:
        raise ParameterError("message is farther than e from y")

    gap = message - hermite_interpolate(params, _unscaled(params, y))
    orders = [gap.vanishing_order(alpha, cap=s) for alpha in params.alphas]
    delta = sum(s - nu for nu in orders)
    if delta < e and 0 in params.alphas:
        raise ParameterError(
            "witness padding X**(e-delta) would vanish at the evaluation point 0"
        )
    locator = Poly.monomial(field, e - delta)
    for alpha, nu in zip(params.alphas, orders):
        lin = Poly(field, (-alpha % p, 1))
        for _ in range(s - nu):
            locator = locator * lin
    return locator, locator * message
