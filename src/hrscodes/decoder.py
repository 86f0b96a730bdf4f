"""Welch-Berlekamp unique decoding for HRS codes under the NRT metric.

For a received s x r matrix y and an error bound e, the decoder looks for a
monic locator E of degree exactly e and an N of degree at most e+t-1 tied
together by one linear constraint per matrix position:

    d^(l-1)N(alpha_i) = sum_{j=1..l} y_{j,i} * d^(l-j)E(alpha_i)

(d^(k) is the order-k hyperderivative).  Any solution with E dividing N
yields the message N/E; re-encoding and checking the NRT distance against y
makes the procedure never return a wrong message.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError
from .hrs import CodeParams, _check_received, decoding_radius, encode, hermite_interpolate
from .linalg import solve
from .nrt import NrtMatrix, nrt_distance
from .poly import Poly


class FailureReason(str, Enum):
    # The linear system has no solution at all.
    NO_SOLUTION = "no_solution"
    # A solution exists but its locator does not divide its N.
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
    """The rs x (2e+t) linear system behind one decoding attempt.

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


def decode(params: CodeParams, y: NrtMatrix, e: int | None = None):
    """Run the full pipeline: solve, divide, re-encode, verify.

    Returns DecodeSuccess or DecodeFailure; received words beyond the error
    bound are an expected condition, never an exception.  Whenever y is
    within NRT distance e of a codeword of the code, that codeword's
    message is returned.
    """
    _check_received(params, y)
    if e is None:
        e = decoding_radius(params)
    system = build_wb_system(params, _unscaled(params, y), e)
    sol = solve(params.field, system.matrix, system.rhs, nullspace=False)
    if sol is None:
        return DecodeFailure(FailureReason.NO_SOLUTION)
    n_poly, e_poly = system.split(params.field, sol.particular)
    assert e_poly.degree == e
    quotient, remainder = divmod(n_poly, e_poly)
    if not remainder.is_zero:
        return DecodeFailure(FailureReason.NON_DIVISIBLE)
    if quotient.degree > params.t - 1:
        return DecodeFailure(FailureReason.DISTANCE_EXCEEDED)
    weight = nrt_distance(encode(params, quotient), y)
    if weight > e:
        return DecodeFailure(FailureReason.DISTANCE_EXCEEDED)
    return DecodeSuccess(
        message=quotient, error_weight=weight, locator=e_poly, evaluator=n_poly
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
