import hashlib
import random

import numpy as np
import pytest

from hrscodes import (
    ChannelSpec,
    CodeParams,
    DecodeFailure,
    DecodeSuccess,
    FailureReason,
    NrtMatrix,
    ParameterError,
    Poly,
    decode,
    decoding_radius,
    encode,
    nrt_distance,
    sample_error,
)
from hrscodes.decoder import _key_equation
from hrscodes.hrs import _interpolate, _unscaled
from conftest import (
    GOLDEN_LOCATOR,
    GOLDEN_M,
    GOLDEN_MESSAGE,
    GOLDEN_RHS,
    random_code,
    random_poly,
)
from reference import (
    binomial,
    build_wb_system,
    existence_witness,
    is_zero,
    mat_vec,
    monomial,
    mul,
    nearest_codeword_multiplicity,
    poly_divmod,
    solve,
    taylor,
    zero_poly,
)


def witness_vector(system, n_poly, e_poly):
    """Pack (N, E) into the system's unknown layout, checking monicity."""
    assert e_poly.coeffs[-1] == 1 and e_poly.degree == system.e
    x = np.zeros(system.unknown_count, dtype=np.int64)
    for k, c in enumerate(n_poly.coeffs):
        x[k] = c
    for k, c in enumerate(e_poly.coeffs[:-1]):
        x[system.e + system.t + k] = c
    return x


def classical_wb_decode(params, y, e):
    """Independent reference for s=1: textbook Welch-Berlekamp."""
    assert params.s == 1
    field, p, t = params.field, params.p, params.t
    rows = []
    rhs = []
    for j, a in enumerate(params.alphas):
        yj = int(y.entries[0, j])
        row = [pow(a, k, p) for k in range(e + t)]
        row += [-yj * pow(a, k, p) % p for k in range(e)]
        rows.append(row)
        rhs.append(yj * pow(a, e, p) % p)
    sol = solve(field, np.array(rows), rhs)
    if sol is None:
        return None
    n_poly = Poly(field, [int(c) for c in sol.particular[: e + t]])
    e_poly = Poly(field, [int(c) for c in sol.particular[e + t :]] + [1])
    q, rem = poly_divmod(n_poly, e_poly)
    if not is_zero(rem):
        return None
    if q.degree > t - 1 or nrt_distance(encode(params, q), y) > e:
        return None
    return q


def dense_decode(params, y, e):
    """Reference decoder on the dense key-equation system: one solution of
    build_wb_system, then divide, re-encode and check the distance.
    Returns (failure reason or None, message, error weight)."""
    raw = NrtMatrix(params.field, y.entries * params.inverse_multipliers() % params.p)
    system = build_wb_system(params, raw, e)
    sol = solve(params.field, system.matrix, system.rhs, nullspace=False)
    if sol is None:
        return FailureReason.NO_SOLUTION, None, None
    n_poly, e_poly = system.split(params.field, sol.particular)
    quotient, remainder = poly_divmod(n_poly, e_poly)
    if not is_zero(remainder):
        return FailureReason.NON_DIVISIBLE, None, None
    if quotient.degree > params.t - 1:
        return FailureReason.DISTANCE_EXCEEDED, None, None
    weight = nrt_distance(encode(params, quotient), y)
    if weight > e:
        return FailureReason.DISTANCE_EXCEEDED, None, None
    return None, quotient, weight


def differential_codes(rnd):
    """Small codes over every field path: alpha = 0 in half of them, random
    multipliers in another half, t = rs in every fourth, and s = p, r = p
    for p in {2, 3}."""
    shapes = [(p, r, s) for p in (2, 3) for r, s in ((p, p), (p, 1), (1, p))]
    for p in (2, 3, 5, 7, 13, 101, 2**31 - 1, 2**61 - 1):
        for _ in range(15):
            s = rnd.randint(1, min(p, 3))
            shapes.append((p, rnd.randint(1, min(p, 16 // s)), s))
    for index, (p, r, s) in enumerate(shapes):
        t = r * s if index % 4 == 0 else rnd.randint(1, r * s)
        pool = range(min(p, 10**6))
        if index % 2:
            alphas = rnd.sample(pool, r)
        else:
            alphas = [0] + rnd.sample(pool[1:], r - 1)
        multipliers = None
        if index % 4 in (1, 2):
            multipliers = [[rnd.randrange(1, p) for _ in range(r)] for _ in range(s)]
        yield CodeParams(p, r, s, t, alphas, multipliers)


def test_decoding_radius():
    assert decoding_radius(CodeParams(7, 4, 2, 4, [1, 2, 3, 4])) == 2
    assert decoding_radius(CodeParams(3, 2, 2, 4, [0, 1])) == 0
    assert decoding_radius(CodeParams(5, 3, 2, 3, [0, 1, 2])) == 1


class TestBuildSystem:
    def test_golden_matrix(self, golden_params, golden_received):
        system = build_wb_system(golden_params, golden_received, 2)
        assert system.matrix.tolist() == GOLDEN_M
        assert system.rhs.tolist() == GOLDEN_RHS
        assert system.e == 2 and system.t == 4 and system.unknown_count == 8

    def test_e_zero_is_interpolation_constraints(self, gf7):
        params = CodeParams(7, 3, 2, 4, [1, 2, 4])
        y = NrtMatrix(gf7, [[3, 1, 0], [2, 2, 5]])
        system = build_wb_system(params, y, 0)
        assert system.matrix.shape == (6, 4)
        want = []
        for d in range(2):
            for a in params.alphas:
                want.append(
                    [binomial(gf7, k, d) * pow(a, k - d, 7) % 7 if k >= d else 0 for k in range(4)]
                )
        assert system.matrix.tolist() == want
        assert system.rhs.tolist() == [3, 1, 0, 2, 2, 5]

    def test_s1_rows_are_classical(self, gf7):
        params = CodeParams(7, 4, 1, 2, [1, 3, 5, 6])
        y = NrtMatrix(gf7, [[2, 0, 6, 1]])
        e = 1
        system = build_wb_system(params, y, e)
        for j, a in enumerate(params.alphas):
            yj = int(y.entries[0, j])
            want = [pow(a, k, 7) for k in range(3)] + [-yj % 7]
            assert system.matrix[j].tolist() == want
            assert int(system.rhs[j]) == yj * a % 7

    def test_bounds(self, golden_params, golden_received):
        with pytest.raises(ParameterError):
            build_wb_system(golden_params, golden_received, 3)
        with pytest.raises(ParameterError):
            build_wb_system(golden_params, golden_received, -1)


class TestDecode:
    def test_golden(self, golden_params, golden_received, gf7):
        out = decode(golden_params, golden_received, 2)
        assert isinstance(out, DecodeSuccess)
        assert out.message == Poly(gf7, GOLDEN_MESSAGE)
        assert out.error_weight == 2
        assert out.locator.degree == 2 and out.locator.coeffs[-1] == 1
        assert out.evaluator == mul(out.locator, out.message)

    def test_golden_internal_pair(self, golden_params, golden_received, gf7):
        # The pinned (N, E) pair solves the same system the decoder builds.
        system = build_wb_system(golden_params, golden_received, 2)
        x = witness_vector(
            system, Poly(gf7, [1, 0, 6, 0, 6, 1]), Poly(gf7, GOLDEN_LOCATOR)
        )
        assert (mat_vec(gf7, system.matrix, x) == system.rhs).all()

    def test_exact_codeword(self, golden_params, golden_message):
        out = decode(golden_params, encode(golden_params, golden_message))
        assert isinstance(out, DecodeSuccess)
        assert out.message == golden_message and out.error_weight == 0

    def test_failure_reasons_pinned(self):
        # Constants code with radius 0: y off the diagonal is undecodable
        # and the degree-0 system is contradictory.
        params = CodeParams(3, 2, 1, 1, [0, 1])
        out = decode(params, NrtMatrix(params.field, [[0, 1]]))
        assert out == DecodeFailure(FailureReason.NO_SOLUTION)
        assert not out.ok
        # Found by exhaustive scan: consistent system, non-dividing locator.
        params = CodeParams(5, 3, 1, 1, [0, 1, 2])
        out = decode(params, NrtMatrix(params.field, [[0, 1, 3]]))
        assert out == DecodeFailure(FailureReason.NON_DIVISIBLE)

    def test_beyond_radius_never_wrong(self):
        rnd = random.Random(20)
        reasons = set()
        for _ in range(300):
            p = rnd.choice([3, 5, 7])
            params = random_code(rnd, p, max_rs=8)
            y = NrtMatrix(
                params.field,
                [[rnd.randrange(p) for _ in range(params.r)] for _ in range(params.s)],
            )
            e = rnd.randint(0, decoding_radius(params))
            out = decode(params, y, e)
            if isinstance(out, DecodeSuccess):
                assert out.message.degree <= params.t - 1
                assert nrt_distance(encode(params, out.message), y) <= e
                assert out.error_weight <= e
            else:
                reasons.add(out.reason)
                assert out.reason in set(FailureReason)
        assert reasons  # random words beyond the radius do occur

    def test_default_e_is_radius(self, golden_params, golden_received):
        assert decode(golden_params, golden_received) == decode(
            golden_params, golden_received, 2
        )

    def test_e_validation(self, golden_params, golden_received):
        with pytest.raises(ParameterError):
            decode(golden_params, golden_received, 3)
        with pytest.raises(ParameterError):
            decode(golden_params, golden_received, -1)
        for e in (2.0, True):
            with pytest.raises(ParameterError, match="e must be an integer"):
                decode(golden_params, golden_received, e)
        assert decode(golden_params, golden_received, np.int64(2)).ok

    def test_roundtrip_with_multipliers(self):
        rnd = random.Random(21)
        for _ in range(60):
            p = rnd.choice([5, 7])
            base = random_code(rnd, p)
            v = [[rnd.randint(1, p - 1) for _ in range(base.r)] for _ in range(base.s)]
            params = CodeParams(p, base.r, base.s, base.t, base.alphas, v)
            f = random_poly(rnd, params.field, params.t)
            w = rnd.randint(0, decoding_radius(params))
            err = sample_error(
                ChannelSpec(p=p, s=params.s, r=params.r, weight=w, seed=rnd.getrandbits(32))
            )
            out = decode(params, encode(params, f) + err)
            assert isinstance(out, DecodeSuccess) and out.message == f

    def test_numpy_integers_in_an_object_array(self):
        # A codeword given as an object array of np.int64 at p = 2**61 - 1
        # with non-unit multipliers: unscaling must not multiply in int64.
        rnd = random.Random(24)
        p = 2**61 - 1
        v = [[rnd.randrange(1, p) for _ in range(4)] for _ in range(3)]
        params = CodeParams(p, 4, 3, 6, [0, 1, 5, 9], v)
        f = random_poly(rnd, params.field, params.t)
        rows = encode(params, f).to_lists()
        entries = np.array([[np.int64(x) for x in row] for row in rows], dtype=object)
        out = decode(params, NrtMatrix(params.field, entries))
        assert isinstance(out, DecodeSuccess) and out.message == f and out.error_weight == 0

    def test_s1_agrees_with_classical_reference(self):
        rnd = random.Random(22)
        for _ in range(150):
            p = rnd.choice([5, 7, 11])
            r = rnd.randint(1, p)
            t = rnd.randint(1, r)
            params = CodeParams(p, r, 1, t, rnd.sample(range(p), r))
            y = NrtMatrix(params.field, [[rnd.randrange(p) for _ in range(r)]])
            e = rnd.randint(0, decoding_radius(params))
            ours = decode(params, y, e)
            ref = classical_wb_decode(params, y, e)
            if isinstance(ours, DecodeSuccess):
                assert ref == ours.message
            else:
                assert ref is None

    def test_determinism(self, golden_params, golden_received):
        a = decode(golden_params, golden_received)
        b = decode(golden_params, golden_received)
        assert a == b


class TestEuclidAgainstDenseSystem:
    def test_matches_dense_reference(self):
        rnd = random.Random(25)
        seen = set()
        for params in differential_codes(rnd):
            p, n = params.p, params.r * params.s
            radius = decoding_radius(params)
            for e in range(radius + 1):
                beyond = rnd.randint(radius + 1, n) if radius < n else n
                for weight in (rnd.randint(0, e), beyond, None):
                    if weight is None:
                        rows = [[rnd.randrange(p) for _ in range(params.r)] for _ in range(params.s)]
                        y = NrtMatrix(params.field, rows)
                    else:
                        f = random_poly(rnd, params.field, params.t)
                        spec = ChannelSpec(
                            p=p, s=params.s, r=params.r, weight=weight, seed=rnd.getrandbits(32)
                        )
                        y = encode(params, f) + sample_error(spec)
                    out = decode(params, y, e)
                    reason, message, error_weight = dense_decode(params, y, e)
                    case = (p, params.r, params.s, params.t, params.alphas, e, y.to_lists())
                    if reason is None:
                        assert isinstance(out, DecodeSuccess), case
                        assert out.message == message, case
                        assert out.error_weight == error_weight, case
                        assert out.locator.degree == e and out.locator.coeffs[-1] == 1, case
                        assert out.evaluator == mul(out.locator, out.message), case
                        seen.add("ok")
                    else:
                        assert out == DecodeFailure(reason), case
                        seen.add(reason)
        assert seen == {"ok", FailureReason.NO_SOLUTION, FailureReason.NON_DIVISIBLE}


def scalar_distance(params, f, y):
    """NRT distance from y to the codeword of f, column by column: the
    codeword column is v_j times the first s Taylor coefficients of f at
    alpha_j, and a column whose topmost difference is in row i weighs s - i."""
    p, s, total = params.p, params.s, 0
    for j, alpha in enumerate(params.alphas):
        column = taylor(f, alpha, s)
        diff = [(int(y.entries[i, j]) - int(params.multipliers[i, j]) * column[i]) % p for i in range(s)]
        total += s - next((i for i, d in enumerate(diff) if d), s)
    return total


class TestErrorWeightIsLocatorDegree:
    def test_weight_is_deg_e0_and_the_distance(self):
        """The reported weight is deg E0, the locator is X**(e - deg E0) * E0,
        and both equal the NRT distance from y to the decoded codeword,
        recomputed from Taylor coefficients; DISTANCE_EXCEEDED never occurs."""
        rnd = random.Random(27)
        seen = set()
        for params in differential_codes(rnd):
            p, n, field = params.p, params.r * params.s, params.field
            radius = decoding_radius(params)
            rows = [[rnd.randrange(p) for _ in range(params.r)] for _ in range(params.s)]
            words = [NrtMatrix(field, rows)]
            for weight in (rnd.randint(0, radius), radius, rnd.randint(radius, n)):
                f = random_poly(rnd, field, params.t)
                spec = ChannelSpec(p=p, s=params.s, r=params.r, weight=weight, seed=rnd.getrandbits(32))
                words.append(encode(params, f) + sample_error(spec))
            for y in words:
                for e in sorted({rnd.randint(0, radius), radius}):
                    out = decode(params, y, e)
                    case = (p, params.r, params.s, params.t, params.alphas, e, y.to_lists())
                    if not out.ok:
                        assert out.reason != FailureReason.DISTANCE_EXCEEDED, case
                        continue
                    h = _interpolate(params, _unscaled(params, y.entries))
                    cof = _key_equation(params, h, e)[1]  # E0 up to a scale
                    e0 = Poly(field, (cof * field.inv(int(cof[-1])) % p).tolist())
                    assert e0.degree == out.error_weight == scalar_distance(params, out.message, y), case
                    assert out.locator == mul(monomial(field, e - e0.degree), e0), case
                    seen.add(out.error_weight == e)
        assert seen == {False, True}


EDGE_MODULI = (2, 7, 101, 2**31 - 1, 2**61 - 1)


def edge_code(p, t=None, multiplied=False):
    """(r, s) = (2, 2) at p = 2, else (4, 2), with alpha = 0 first and
    alpha = 1 second; t = 2 unless given."""
    r = 2 if p == 2 else 4
    multipliers = None
    if multiplied:
        rnd = random.Random(p)
        multipliers = [[rnd.randrange(1, p) for _ in range(r)] for _ in range(2)]
    return CodeParams(p, r, 2, 2 if t is None else t, list(range(r)), multipliers)


def column_error(params, column, weight, rnd):
    """An error of NRT weight `weight` <= s in one column: a nonzero entry
    `weight` rows from the bottom, random entries below it."""
    rows = [[0] * params.r for _ in range(params.s)]
    top = params.s - weight
    for i in range(top, params.s):
        rows[i][column] = rnd.randrange(1 if i == top else 0, params.p)
    return NrtMatrix(params.field, rows)


def assert_decoded(out, message, weight, e):
    """Success with the given message and weight, a monic locator of degree
    exactly e, and evaluator = locator * message."""
    assert isinstance(out, DecodeSuccess)
    assert out.message == message and out.error_weight == weight
    assert out.locator.degree == e and out.locator.coeffs[-1] == 1
    assert out.evaluator == mul(out.locator, out.message)


@pytest.mark.parametrize("multiplied", [False, True])
@pytest.mark.parametrize("p", EDGE_MODULI)
class TestDegreeEdges:
    """Edges of decode's degree tests on array lengths: N0 = 0, a Euclid of
    no step, deg E0 < e and a zero constant term in E0, on every field
    path."""

    def test_zero_word(self, p, multiplied):
        params = edge_code(p, multiplied=multiplied)
        zero = NrtMatrix(params.field, [[0] * params.r] * params.s)
        for e in range(decoding_radius(params) + 1):
            out = decode(params, zero, e)
            assert_decoded(out, zero_poly(params.field), 0, e)
            assert out.locator == monomial(params.field, e)
            assert is_zero(out.evaluator)

    def test_full_rate(self, p, multiplied):
        # t = rs: every word is a codeword, the radius is 0, and the Euclid
        # stops before its first step.
        params = edge_code(p, t=4 if p == 2 else 8, multiplied=multiplied)
        assert decoding_radius(params) == 0
        rnd = random.Random(p)
        rows = [[rnd.randrange(p) for _ in range(params.r)] for _ in range(params.s)]
        y = NrtMatrix(params.field, rows)
        out = decode(params, y)
        assert_decoded(out, out.message, 0, 0)
        assert encode(params, out.message) == y
        assert out.locator == Poly.one(params.field) and out.evaluator == out.message

    def test_fewer_errors_than_e(self, p, multiplied):
        # w errors at alpha = 1: E0 = (X - 1)**w, padded by X**(e - w).
        params = edge_code(p, multiplied=multiplied)
        rnd = random.Random(p)
        lin = Poly(params.field, [p - 1, 1])
        for w in (0, 1):
            for e in range(w + 1, decoding_radius(params) + 1):
                f = random_poly(rnd, params.field, params.t)
                y = encode(params, f) + column_error(params, 1, w, rnd)
                out = decode(params, y, e)
                assert_decoded(out, f, w, e)
                want = monomial(params.field, e - w)
                for _ in range(w):
                    want = mul(want, lin)
                assert out.locator == want

    def test_error_at_zero(self, p, multiplied):
        # An error of weight w at alpha = 0: E0 = X**w has a zero constant
        # term, and the locator is X**e.
        params = edge_code(p, multiplied=multiplied)
        rnd = random.Random(p)
        for w in range(1, params.s + 1):
            for e in range(w, decoding_radius(params) + 1):
                f = random_poly(rnd, params.field, params.t)
                y = encode(params, f) + column_error(params, 0, w, rnd)
                out = decode(params, y, e)
                assert_decoded(out, f, w, e)
                assert out.locator == monomial(params.field, e)


def brute_force_codes(rnd):
    """Codes whose p**t messages the exhaustive scan can enumerate: s = p,
    r = p and both for p in {2, 3}, then p in {5, 7, 13}; alpha = 0 in
    every even-numbered code and absent from the others where r < p,
    random multipliers in half of the codes with p > 2, and t as large as
    the budget allows (t = rs where p**(rs) fits) in every fourth."""
    shapes = [
        (p, r, s)
        for p in (2, 3)
        for r, s in ((p, p), (p, 1), (1, p), (p, 2), (2, p))
        for _ in range(2)
    ]
    shapes += [
        (p, rnd.randint(2, min(p, 6)), rnd.randint(1, 3)) for p in (5, 7, 13) for _ in range(6)
    ]
    for index, (p, r, s) in enumerate(shapes):
        top = max(t for t in range(1, r * s + 1) if p**t <= 20_000)
        t = top if index % 4 == 0 else rnd.randint(1, top)
        if index % 2 and r < p:
            alphas = rnd.sample(range(1, p), r)
        else:
            alphas = [0] + rnd.sample(range(1, p), r - 1)
        multipliers = None
        if index % 4 in (1, 2) and p > 2:
            multipliers = [[rnd.randrange(1, p) for _ in range(r)] for _ in range(s)]
        yield CodeParams(p, r, s, t, alphas, multipliers)


class TestDecodeAgainstBruteForce:
    def test_matches_nearest_codeword(self):
        """decode(y, e) succeeds exactly when the brute-force nearest
        codeword lies within e, and then returns its message: inside the
        radius the nearest message is unique, and beyond it a success is
        still the nearest message within e.

        The scan enumerates all p**t messages, so p = 2**31 - 1 and
        p = 2**61 - 1 cannot be covered here; on those paths decode is
        checked against the dense key-equation system by
        TestEuclidAgainstDenseSystem.
        """
        rnd = random.Random(26)
        seen = set()
        for params in brute_force_codes(rnd):
            p, n = params.p, params.r * params.s
            radius = decoding_radius(params)
            rows = [[rnd.randrange(p) for _ in range(params.r)] for _ in range(params.s)]
            # (word, weight of the error it was built with); a random word
            # counts as weight n.
            words = [(NrtMatrix(params.field, rows), n)]
            for weight in range(min(radius + 2, n) + 1):
                f = random_poly(rnd, params.field, params.t)
                spec = ChannelSpec(
                    p=p, s=params.s, r=params.r, weight=weight, seed=rnd.getrandbits(32)
                )
                words.append((encode(params, f) + sample_error(spec), weight))
            for y, weight in words:
                best, dist, count = nearest_codeword_multiplicity(params, y)
                if dist <= radius:
                    assert count == 1
                for e in range(radius + 1):
                    out = decode(params, y, e)
                    case = (p, params.r, params.s, params.t, params.alphas, e, y.to_lists())
                    if dist <= e:
                        assert isinstance(out, DecodeSuccess), case
                        assert out.message == best, case
                        assert out.error_weight == dist, case
                        seen.add("ok" if weight <= e else "ok beyond e")
                    else:
                        assert isinstance(out, DecodeFailure), case
                        seen.add("fail")
        assert seen == {"ok", "ok beyond e", "fail"}


def digest_codes(rnd):
    """Codes over every field path for the decode pin: s = p, r = p or both
    for p in {2, 3}, t = rs in every third, alpha = 0 in every even-numbered
    code, random multipliers in every code with index 1 or 2 mod 4, and one
    n = 64, t = 32 code per modulus above 7, whose divisions run long enough
    to reduce mid-loop on the int64 path."""
    shapes = [(p, r, s, None) for p in (2, 3) for r, s in ((p, p), (p, 1), (1, p), (p, 2))]
    for p in (7, 101, 2**31 - 1, 2**61 - 1):
        shapes += [(p, rnd.randint(2, 8), rnd.randint(1, 3), None) for _ in range(6)]
        if p > 7:
            shapes.append((p, 16, 4, 32))
    for index, (p, r, s, t) in enumerate(shapes):
        if t is None:
            t = r * s if index % 3 == 0 else rnd.randint(1, r * s)
        pool = range(min(p, 10**6))
        alphas = [0] + rnd.sample(pool[1:], r - 1) if index % 2 == 0 else rnd.sample(pool, r)
        multipliers = None
        if index % 4 in (1, 2):
            multipliers = [[rnd.randrange(1, p) for _ in range(r)] for _ in range(s)]
        yield CodeParams(p, r, s, t, alphas, multipliers)


def decode_digest():
    """sha256 over every decode outcome (message, locator, evaluator and
    error weight, or the failure reason) on seeded words of weight
    0..radius+2 and random words, for every e up to the radius."""
    rnd = random.Random(27)
    digest = hashlib.sha256()
    for params in digest_codes(rnd):
        p, n = params.p, params.r * params.s
        radius = decoding_radius(params)
        rows = [[rnd.randrange(p) for _ in range(params.r)] for _ in range(params.s)]
        words = [NrtMatrix(params.field, rows)]
        for weight in range(min(radius + 2, n) + 1):
            f = random_poly(rnd, params.field, params.t)
            spec = ChannelSpec(p=p, s=params.s, r=params.r, weight=weight, seed=rnd.getrandbits(32))
            words.append(encode(params, f) + sample_error(spec))
        for y in words:
            for e in range(radius + 1):
                out = decode(params, y, e)
                if isinstance(out, DecodeSuccess):
                    record = (
                        out.message.coeffs,
                        out.locator.coeffs,
                        out.evaluator.coeffs,
                        out.error_weight,
                    )
                else:
                    record = out.reason.value
                digest.update(repr((p, params.r, params.s, params.t, e, record)).encode())
    return digest.hexdigest()


def test_decode_outcomes_pinned():
    """Every outcome of decode_digest's words, byte for byte.  The digest
    was taken from the decoder whose division kernel reduced after every
    elimination, so a change in arithmetic that moves any outcome fails
    here."""
    assert decode_digest() == "aadfc321790ee9230941fd87be873d4c234840ed7c7bac97a4a847d598706250"


class TestRatioInvariance:
    def test_solution_pairs_share_the_fraction(self):
        rnd = random.Random(23)
        done = 0
        while done < 25:
            p = rnd.choice([5, 7])
            params = random_code(rnd, p, max_rs=12)
            e = decoding_radius(params)
            f = random_poly(rnd, params.field, params.t)
            w = rnd.randint(0, e)
            err = sample_error(
                ChannelSpec(p=p, s=params.s, r=params.r, weight=w, seed=rnd.getrandbits(32))
            )
            y = encode(params, f) + err
            system = build_wb_system(params, y, e)
            sol = solve(params.field, system.matrix, system.rhs)
            assert sol is not None
            pairs = [system.split(params.field, sol.particular)]
            for _ in range(5):
                x = sol.particular.copy()
                for v in sol.nullspace:
                    x = (x + rnd.randrange(p) * v) % p
                pairs.append(system.split(params.field, x))
            for n1, e1 in pairs:
                for n2, e2 in pairs:
                    assert mul(n1, e2) == mul(n2, e1)
            done += 1


class TestExistenceWitness:
    def test_golden(self, golden_params, golden_received, gf7):
        f = Poly(gf7, GOLDEN_MESSAGE)
        e1, n1 = existence_witness(golden_params, f, golden_received, 2)
        assert e1.degree == 2 and e1.coeffs[-1] == 1
        assert n1 == mul(e1, f)
        system = build_wb_system(golden_params, golden_received, 2)
        x = witness_vector(system, n1, e1)
        assert (mat_vec(gf7, system.matrix, x) == system.rhs).all()

    def test_zero_error_gives_pure_power(self, golden_params, golden_message, gf7):
        cw = encode(golden_params, golden_message)
        e1, n1 = existence_witness(golden_params, golden_message, cw, 2)
        assert e1 == monomial(gf7, 2)
        assert n1 == mul(e1, golden_message)

    def test_random_witnesses_satisfy_system(self):
        rnd = random.Random(24)
        for _ in range(60):
            p = rnd.choice([5, 7])
            while True:
                params = random_code(rnd, p, max_rs=10)
                if 0 not in params.alphas:
                    break
            e = decoding_radius(params)
            f = random_poly(rnd, params.field, params.t)
            w = rnd.randint(0, e)
            err = sample_error(
                ChannelSpec(p=p, s=params.s, r=params.r, weight=w, seed=rnd.getrandbits(32))
            )
            y = encode(params, f) + err
            e1, n1 = existence_witness(params, f, y, e)
            assert e1.degree == e and e1.coeffs[-1] == 1
            assert n1 == mul(e1, f)
            system = build_wb_system(params, y, e)
            x = witness_vector(system, n1, e1)
            assert (mat_vec(params.field, system.matrix, x) == system.rhs).all()

    def test_preconditions(self, golden_params, golden_received, gf7):
        # Min distance 5 and y within 2 of the true codeword: every other
        # message is at least 3 away, so the distance check must fire.
        far = Poly(gf7, [1, 1, 1, 1])
        assert nrt_distance(encode(golden_params, far), golden_received) > 2
        with pytest.raises(ParameterError):
            existence_witness(golden_params, far, golden_received, 2)
        # Zero among the points with slack padding (delta < e) is refused.
        params = CodeParams(5, 3, 2, 2, [0, 1, 2])
        f = Poly(params.field, [1, 2])
        cw = encode(params, f)
        with pytest.raises(ParameterError):
            existence_witness(params, f, cw, decoding_radius(params))
