import hashlib
import math
import random

import numpy as np
import pytest

from hrscodes import (
    BudgetExceededError,
    CodeParams,
    FieldMismatchError,
    NrtMatrix,
    ParameterError,
    Poly,
    PrimeField,
    brute_force_min_distance,
    decoding_radius,
    encode,
    hermite_interpolate,
    nrt_distance,
    nrt_weight,
)
from hrscodes import hrs
from hrscodes.hrs import _unscaled
from conftest import (
    GOLDEN_CODEWORD,
    GOLDEN_MESSAGE,
    GOLDEN_RECEIVED,
    random_code,
    random_poly,
)
from reference import (
    binomial,
    brute_force_nearest_codeword,
    codeword_weight_formula,
    encoding_matrix,
    evaluate,
    hyperderivative,
    monomial,
    mul,
    nearest_codeword_multiplicity,
    solve,
    zero_poly,
)


def encode_slow(params, f):
    """Scalar re-implementation of the evaluation map, used as an oracle."""
    rows = []
    for i in range(params.s):
        d = hyperderivative(f, i)
        rows.append(
            [
                int(params.multipliers[i, j]) * evaluate(d, a) % params.p
                for j, a in enumerate(params.alphas)
            ]
        )
    return NrtMatrix(params.field, rows)


class TestCodeParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            CodeParams(5, 3, 6, 2, [0, 1, 2])  # s > p
        with pytest.raises(ParameterError):
            CodeParams(5, 6, 1, 2, [0, 1, 2, 3, 4, 0])  # r > p
        with pytest.raises(ParameterError):
            CodeParams(5, 2, 2, 5, [0, 1])  # t > rs
        with pytest.raises(ParameterError):
            CodeParams(5, 2, 2, 0, [0, 1])
        with pytest.raises(ParameterError):
            CodeParams(5, 2, 1, 1, [1, 6])  # 6 = 1 mod 5: duplicate points
        with pytest.raises(ParameterError):
            CodeParams(5, 2, 1, 1, [0])  # wrong count
        with pytest.raises(ParameterError):
            CodeParams(5, 2, 1, 2, [0, 1], [[1, 0]])  # zero multiplier
        with pytest.raises(ParameterError):
            CodeParams(5, 2, 1, 2, [0, 1], [[1, 1], [1, 1]])  # wrong V shape
        with pytest.raises(ValueError):
            CodeParams(6, 2, 1, 2, [0, 1])
        with pytest.raises(ParameterError):
            CodeParams(5, 2, 1, 2.0, [0, 1])
        with pytest.raises(ParameterError, match="t must be an integer"):
            CodeParams(5, 2, 1, True, [0, 1])
        # Non-integer points and multipliers are refused, not truncated.
        for alphas in ([0.5, 1.9], [0, True], np.array([0.0, 1.0])):
            with pytest.raises(ParameterError, match="alpha must be an integer"):
                CodeParams(7, 2, 1, 1, alphas)
        for v in ([[2.9, 1]], [[1, True]], np.array([[2.0, 1.0]]), [[1, 1j]]):
            with pytest.raises(ParameterError, match="multiplier must be an integer"):
                CodeParams(7, 2, 1, 1, [0, 1], v)
        with pytest.raises(ParameterError, match="shape"):
            CodeParams(7, 2, 1, 1, [0, 1], [[1, 2], [3]])

    def test_basics(self):
        params = CodeParams(7, 4, 2, 4, [1, 2, 3, 4])
        assert params.p == 7 and (params.multipliers == 1).all()
        assert params == CodeParams(PrimeField(7), 4, 2, 4, [8, 2, 3, 4])
        assert params != CodeParams(7, 4, 2, 3, [1, 2, 3, 4])
        numpy_ints = CodeParams(*np.array([7, 4, 2, 4]), [1, 2, 3, 4])
        assert numpy_ints == params and type(numpy_ints.t) is int
        v = [[2, 2, 2, 2], [3, 3, 3, 3]]
        scaled = CodeParams(7, 4, 2, 4, [1, 2, 3, 4], v)
        assert scaled == CodeParams(7, 4, 2, 4, np.arange(1, 5), np.array(v) + 7)
        assert not (scaled.multipliers == 1).all()
        inv = scaled.inverse_multipliers()
        assert (scaled.multipliers * inv % 7 == 1).all()

    @pytest.mark.parametrize("p", [7, 2**61 - 1])
    def test_inverse_multipliers_built_once(self, monkeypatch, p):
        # One frozen array, built with the code, equal to the entrywise
        # inverses; a unit code inverts nothing.
        calls = []
        inv = PrimeField.inv
        monkeypatch.setattr(PrimeField, "inv", lambda field, a: calls.append(a) or inv(field, a))
        v = [[1, 2, 3], [p - 1, 5, 1]]
        scaled = CodeParams(p, 3, 2, 2, [0, 1, 2], v)
        assert len(calls) == 6
        first = scaled.inverse_multipliers()
        assert scaled.inverse_multipliers() is first and not first.flags.writeable
        assert first.dtype == scaled.field.dtype
        assert first.tolist() == [[pow(x, -1, p) for x in row] for row in v]
        calls.clear()
        unit = CodeParams(p, 3, 2, 2, [0, 1, 2])
        assert unit.inverse_multipliers() is unit.inverse_multipliers()
        assert unit.inverse_multipliers().tolist() == [[1] * 3] * 2
        assert not unit.inverse_multipliers().flags.writeable and not calls

    def test_tables(self):
        # Row 0 of the derivative table is the powers alpha_j**k.
        params = CodeParams(7, 3, 2, 4, [1, 3, 5])
        tab = params.derivative_table()[0, :, :5]
        assert tab.tolist() == [[1, 1, 1, 1, 1], [1, 3, 2, 6, 4], [1, 5, 4, 6, 2]]
        # All rs columns, on codes whose rs is mostly not a power of two.
        for p in (2, 7, 2**31 - 1, 2**61 - 1):
            for r, s in ((2, 1), (1, 2), (3, 1), (7, 1), (13, 1), (37, 1), (1, 3), (7, 3)):
                if r > p or s > p:
                    continue
                alphas = list(dict.fromkeys([0, 1, p - 1, *range(2, 40)]))[:r]
                code = CodeParams(p, r, s, 1, alphas)
                want = [[pow(a, k, p) for k in range(r * s)] for a in alphas]
                assert code.derivative_table()[0].tolist() == want
        # At alpha = 1, row i is C(k, i) mod p, here with k past p.
        for p, r, s in ((7, 3, 2), (7, 3, 3), (2, 2, 2), (3, 3, 3)):
            code = CodeParams(p, r, s, 1, range(1, r + 1) if p > r else range(r))
            j = code.alphas.index(1)
            want = [[math.comb(k, i) % p for k in range(r * s)] for i in range(s)]
            assert code.derivative_table()[:, j].tolist() == want
        # Derivative table: rs = 9 columns, entries with k < i are zero.
        for p in (7, 2**61 - 1):
            code = CodeParams(p, 3, 3, 4, [0, 2, p - 1])
            deriv = code.derivative_table()
            assert deriv.shape == (3, 3, 9) and not deriv.flags.writeable
            assert not deriv[1, :, :1].any() and not deriv[2, :, :2].any()
            for k in range(9):
                xk = monomial(code.field, k)
                for i in range(3):
                    for j, alpha in enumerate(code.alphas):
                        assert deriv[i, j, k] == evaluate(hyperderivative(xk, i), alpha)

    def test_table_dtypes(self):
        # The derivative table and the basis, read only by _dot, are int64 on
        # every path; G keeps the field's dtype.
        for p in (101, 2**31 - 1, 2**61 - 1):
            for v in (None, [[1, 2, 3], [p - 1, 5, 6]]):
                params = CodeParams(p, 3, 2, 6, [0, 1, 5], v)
                g, basis = params._interpolation_tables()
                deriv = params.derivative_table()
                assert basis.dtype == np.int64 and deriv.dtype == np.int64
                assert not basis.flags.writeable and not deriv.flags.writeable
                assert g.dtype == params.field.dtype


def table_codes(rnd):
    """Eight seeded codes per field path: s = p or r = p on the first four
    where p allows, 0 among the points on every other code, t = rs on every
    fourth, non-unit multipliers on half."""
    for p in (2, 3, 7, 101, 2**31 - 1, 2**61 - 1):
        for index in range(8):
            if p <= 7 and index < 4:
                low = rnd.randint(1, min(p, 3))
                r, s = (p, low) if index % 2 else (low, p)
            else:
                r, s = rnd.randint(1, min(p, 8)), rnd.randint(1, min(p, 4))
            t = r * s if index % 4 == 0 else rnd.randint(1, r * s)
            pool = range(min(p, 10**6))
            alphas = [0] + rnd.sample(pool[1:], r - 1) if index % 2 == 0 else rnd.sample(pool, r)
            multipliers = None
            if index % 4 in (1, 2):
                multipliers = [[rnd.randrange(1, p) for _ in range(r)] for _ in range(s)]
            yield CodeParams(p, r, s, t, alphas, multipliers)


def table_digest():
    """sha256 over G, the Hermite basis, the encoding matrix of
    reference.encoding_matrix and the first t + radius columns of the
    derivative table of every table_codes code."""
    digest = hashlib.sha256()
    for params in table_codes(random.Random(31)):
        g, basis = params._interpolation_tables()
        width = params.t + decoding_radius(params)
        tables = (g, basis, encoding_matrix(params), params.derivative_table()[:, :, :width])
        for tab in tables:
            digest.update(repr((tab.shape, tab.tolist())).encode())
    return digest.hexdigest()


class TestSharedTables:
    """Codes with equal (p, s, alphas) share one set of table arrays."""

    @staticmethod
    def tables(params):
        return (params.derivative_table(), *params._interpolation_tables())

    def test_equal_codes_share(self, empty_table_store):
        base = CodeParams(101, 5, 3, 4, [0, 3, 7, 9, 50])
        for t, v in ((4, None), (9, None), (15, None), (4, np.arange(1, 16).reshape(3, 5))):
            other = CodeParams(101, 5, 3, t, [101, 3, 7, 9, 50], v)
            assert all(a is b for a, b in zip(self.tables(base), self.tables(other)))
        assert empty_table_store.cache_info().currsize == 1

    def test_other_codes_do_not_share(self, empty_table_store):
        base = CodeParams(101, 5, 3, 4, [0, 3, 7, 9, 50])
        others = (
            CodeParams(101, 5, 3, 4, [0, 3, 7, 9, 51]),  # one alpha
            CodeParams(101, 5, 3, 4, [3, 0, 7, 9, 50]),  # the order of the alphas
            CodeParams(103, 5, 3, 4, [0, 3, 7, 9, 50]),  # p
            CodeParams(101, 5, 2, 4, [0, 3, 7, 9, 50]),  # s
        )
        for other in others:
            assert not any(a is b for a, b in zip(self.tables(base), self.tables(other)))
        assert empty_table_store.cache_info().currsize == 5

    def test_shared_tables_match_a_fresh_build(self, empty_table_store):
        codes = [(p, 4, 3, 5, [0, 1, 5, p - 1]) for p in (101, 2**31 - 1, 2**61 - 1)]
        shared = []
        for code in codes:
            CodeParams(*code, multipliers=[[2] * 4] * 3).derivative_table()
            shared.append(self.tables(CodeParams(*code)))
        empty_table_store.cache_clear()
        for code, tabs in zip(codes, shared):
            for tab, fresh in zip(tabs, self.tables(CodeParams(*code))):
                assert tab is not fresh and not tab.flags.writeable
                assert tab.dtype == fresh.dtype and tab.tolist() == fresh.tolist()

    def test_least_recently_used_code_evicted(self, empty_table_store):
        codes = [CodeParams(101, 3, 2, 2, [0, 1, a]) for a in range(2, 2 + hrs._SHARED_CODES)]
        first, second = (code.derivative_table() for code in codes[:2])
        for code in codes[2:]:
            code.derivative_table()
        # first is used again, so second is now the oldest; one more code
        # evicts it.
        assert CodeParams(101, 3, 2, 5, [0, 1, 2]).derivative_table() is first
        CodeParams(101, 3, 2, 2, [0, 1, 99]).derivative_table()
        assert CodeParams(101, 3, 2, 3, [0, 1, 2]).derivative_table() is first
        assert CodeParams(101, 3, 2, 3, [0, 1, 3]).derivative_table() is not second
        assert empty_table_store.cache_info().currsize == hrs._SHARED_CODES

    def test_codes_take_their_entry_when_built(self, empty_table_store):
        # A code with (rs)**2 <= 64**2 looks the store up once, when it is
        # built; a larger code never does, and no table call does.
        def lookups():
            info = empty_table_store.cache_info()
            return info.hits + info.misses

        small = [CodeParams(101, 64, 1, t, range(64)) for t in (3, 9)]
        assert lookups() == 2
        large = CodeParams(101, 65, 1, 3, range(65))
        assert lookups() == 2
        for code in (*small, large, *small, large):
            self.tables(code)
        assert lookups() == 2

    def test_large_codes_keep_their_own_tables(self, empty_table_store):
        # (rs)**2 = 64**2 is shared, 65**2 is not.
        small = [CodeParams(101, 64, 1, t, range(64)) for t in (3, 9)]
        assert small[0].derivative_table() is small[1].derivative_table()
        large = [CodeParams(101, 65, 1, t, range(65)) for t in (3, 9)]
        assert all(a is not b for a, b in zip(self.tables(large[0]), self.tables(large[1])))
        assert empty_table_store.cache_info().currsize == 1


def test_tables_pinned():
    """The tables of table_codes, byte for byte as the separate power and
    binomial caches built them."""
    assert table_digest() == "5ea24ed57a31d448ae6534c8434bb055c8f86b00fa3b97398ace345c78ee05c1"


class TestEncode:
    def test_golden(self, golden_params, golden_message):
        assert encode(golden_params, golden_message).to_lists() == GOLDEN_CODEWORD

    def test_trivial(self, golden_params, gf7):
        assert encode(golden_params, zero_poly(gf7)).to_lists() == [[0] * 4, [0] * 4]
        assert encode(golden_params, Poly.one(gf7)).to_lists() == [[1] * 4, [0] * 4]

    def test_degree_bound(self, golden_params, gf7):
        with pytest.raises(ParameterError):
            encode(golden_params, monomial(gf7, 4))
        with pytest.raises(FieldMismatchError):
            encode(golden_params, Poly(PrimeField(5), [1]))

    def test_against_scalar_oracle(self):
        rnd = random.Random(10)
        for _ in range(150):
            p = rnd.choice([2, 3, 5, 7, 13])
            params = random_code(rnd, p)
            if rnd.random() < 0.5:
                v = [
                    [rnd.randint(1, p - 1) for _ in range(params.r)]
                    for _ in range(params.s)
                ]
                params = CodeParams(p, params.r, params.s, params.t, params.alphas, v)
            f = random_poly(rnd, params.field, params.t)
            assert encode(params, f) == encode_slow(params, f)

    def test_linearity(self):
        rnd = random.Random(11)
        for _ in range(100):
            params = random_code(rnd, 7)
            f = random_poly(rnd, params.field, params.t)
            g = random_poly(rnd, params.field, params.t)
            a, b = rnd.randrange(7), rnd.randrange(7)
            combo = mul(f, Poly(params.field, [a])) + mul(g, Poly(params.field, [b]))
            lhs = encode(params, combo).entries
            rhs = (a * encode(params, f).entries + b * encode(params, g).entries) % 7
            assert (lhs == rhs).all()

    def test_large_modulus(self):
        # Two limbs on the int64 path, then the object path.  The multipliers
        # p - 1 scale the product entrywise and never reach _dot; messages of
        # all p - 1 against the powers of alpha = p - 1, all 1 or p - 1, are
        # _dot's worst case for the limb width.
        for p in (2**31 - 1, 2**61 - 1):
            for mult in (None, [[p - 1] * 3] * 2):
                params = CodeParams(p, 3, 2, 4, [1, 2, p - 1], mult)
                for coeffs in ([p - 1, p - 2, 1, 5], [p - 1] * 4):
                    f = Poly(params.field, coeffs)
                    assert encode(params, f) == encode_slow(params, f)


class TestStacks:
    """_encode, _unscaled and _interpolate on a (T, ...) stack give, row by
    row, what they give on each row alone."""

    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("multiplied", [False, True])
    @pytest.mark.parametrize("p", [7, 101, 2**31 - 1, 2**61 - 1])
    def test_rows_of_a_stack(self, p, multiplied, count):
        rnd = random.Random(f"stacks:{p}:{multiplied}:{count}")
        r, s = 4, 3
        v = [[rnd.randrange(1, p) for _ in range(r)] for _ in range(s)] if multiplied else None
        params = CodeParams(p, r, s, 7, rnd.sample(range(min(p, 10**6)), r), v)
        assert params.field.uses_int64 == (p <= 2**31 - 1)
        messages = np.array([[rnd.randrange(p) for _ in range(7)] for _ in range(count)])
        words = np.array(
            [[[rnd.randrange(p) for _ in range(r)] for _ in range(s)] for _ in range(count)],
            dtype=params.field.dtype,
        )
        for stage, stack in (
            (hrs._encode, messages),
            (_unscaled, words),
            (hrs._interpolate, words),
        ):
            whole = stage(params, stack)
            rows = [stage(params, row) for row in stack]
            assert whole.shape == (count, *rows[0].shape)
            assert whole.dtype == rows[0].dtype
            assert whole.tolist() == [row.tolist() for row in rows]


class TestHermite:
    def test_roundtrip_random(self):
        rnd = random.Random(12)

        def shapes():
            for _ in range(150):
                p = rnd.choice([5, 7, 13, 2**31 - 1])
                s = rnd.randint(1, 3)
                yield p, rnd.randint(1, min(p, 4)), s
            # Deep product trees: 6 levels at r = 64, and padding at
            # several levels at r = 37.
            yield from [(101, 64, 4), (2**61 - 1, 16, 4), (101, 37, 3)]

        for p, r, s in shapes():
            params = CodeParams(p, r, s, r * s, rnd.sample(range(min(p, 64)), r))
            f = random_poly(rnd, params.field, r * s)
            assert hermite_interpolate(params, encode(params, f)) == f

    def test_s1_is_lagrange(self, gf7):
        params = CodeParams(7, 4, 1, 4, [1, 2, 5, 6])
        y = NrtMatrix(gf7, [[2, 0, 3, 3]])
        h = hermite_interpolate(params, y)
        assert h.degree < 4
        assert [evaluate(h, a) for a in params.alphas] == [2, 0, 3, 3]

    def test_golden_received_against_linear_solve(self, golden_params, golden_received, gf7):
        # Independent oracle: fit the 8 coefficients of H directly from the
        # constraint matrix with entry C(k, i) * alpha**(k-i).
        rows = []
        rhs = []
        for i in range(2):
            for j, a in enumerate(golden_params.alphas):
                rows.append(
                    [binomial(gf7, k, i) * pow(a, k - i, 7) if k >= i else 0 for k in range(8)]
                )
                rhs.append(int(golden_received.entries[i, j]))
        sol = solve(gf7, np.array(rows), rhs)
        assert sol is not None and sol.rank == 8
        expect = Poly(gf7, [int(c) for c in sol.particular])
        h = hermite_interpolate(golden_params, golden_received)
        assert h == expect
        for i in range(2):
            d = hyperderivative(h, i)
            for j, a in enumerate(golden_params.alphas):
                assert evaluate(d, a) == int(golden_received.entries[i, j])

    def test_shape_validation(self, golden_params, gf7):
        with pytest.raises(ParameterError):
            hermite_interpolate(golden_params, NrtMatrix(gf7, [[1, 2, 3, 4]]))


class TestWeightFormula:
    def test_trivial(self, golden_params, gf7):
        assert codeword_weight_formula(golden_params, zero_poly(gf7)) == 0

    def test_simple_root(self):
        # One simple root among the evaluation points with s=2: 2r - 1.
        params = CodeParams(7, 4, 2, 8, [1, 2, 3, 4])
        f = mul(Poly(params.field, [-1 % 7, 1]), Poly(params.field, [3]))
        assert codeword_weight_formula(params, f) == 2 * 4 - 1

    def test_matches_encode(self):
        rnd = random.Random(13)
        for _ in range(300):
            params = random_code(rnd, rnd.choice([5, 7]))
            f = random_poly(rnd, params.field, params.t)
            assert codeword_weight_formula(params, f) == nrt_weight(encode(params, f))

    def test_multiplier_invariance(self):
        rnd = random.Random(14)
        for _ in range(100):
            p = rnd.choice([5, 7])
            base = random_code(rnd, p)
            v = [[rnd.randint(1, p - 1) for _ in range(base.r)] for _ in range(base.s)]
            scaled = CodeParams(p, base.r, base.s, base.t, base.alphas, v)
            f = random_poly(rnd, base.field, base.t)
            assert nrt_weight(encode(base, f)) == nrt_weight(encode(scaled, f))


class TestBruteForce:
    def test_min_distance_examples(self):
        assert brute_force_min_distance(CodeParams(5, 3, 2, 3, [0, 1, 2])) == 4
        assert brute_force_min_distance(CodeParams(7, 2, 2, 2, [1, 2])) == 3
        # t = rs forces distance 1
        assert brute_force_min_distance(CodeParams(3, 2, 2, 4, [0, 1])) == 1

    def test_min_distance_ignores_multipliers(self):
        # Nonzero multipliers keep every column's zero pattern, so the scan
        # (which skips them) finds the unit code's distance, rs - t + 1.
        rnd = random.Random(15)
        for _ in range(30):
            p = rnd.choice([3, 5, 7])
            base = random_code(rnd, p)
            while p**base.t > 10**4:
                base = random_code(rnd, p)
            v = [[rnd.randint(1, p - 1) for _ in range(base.r)] for _ in range(base.s)]
            v[0][0] = rnd.randint(2, p - 1)
            scaled = CodeParams(p, base.r, base.s, base.t, base.alphas, v)
            want = base.r * base.s - base.t + 1
            assert brute_force_min_distance(scaled) == brute_force_min_distance(base) == want

    def test_budget_guard(self):
        params = CodeParams(101, 4, 2, 4, [1, 2, 3, 4])
        with pytest.raises(BudgetExceededError):
            brute_force_min_distance(params, budget=10**6)
        small = CodeParams(5, 3, 2, 3, [0, 1, 2])
        for budget in (10**6 + 0.5, True, "5", None):
            with pytest.raises(ParameterError, match="budget must be an integer"):
                brute_force_min_distance(small, budget=budget)
        assert brute_force_min_distance(small, budget=np.int64(125)) == 4
        with pytest.raises(BudgetExceededError):
            brute_force_nearest_codeword(
                params, NrtMatrix(params.field, [[0] * 4] * 2), budget=10**6
            )

    def test_nearest_codeword(self, golden_params, golden_received, gf7):
        f, dist = brute_force_nearest_codeword(golden_params, golden_received)
        assert f == Poly(gf7, GOLDEN_MESSAGE) and dist == 2
        cw = encode(golden_params, f)
        g, zero = brute_force_nearest_codeword(golden_params, cw)
        assert g == f and zero == 0

    def test_nearest_tie_breaks_lexicographically(self):
        # Constants over two points with s=1: (0,1) is at distance 1 from
        # both the all-0 and the all-1 codeword; lex picks coefficients [0].
        params = CodeParams(3, 2, 1, 1, [1, 2])
        y = NrtMatrix(params.field, [[0, 1]])
        f, dist, count = nearest_codeword_multiplicity(params, y)
        assert dist == 1 and count == 2
        assert f == zero_poly(params.field)

    def test_nearest_scan_matches_naive(self):
        rnd = random.Random(15)
        for _ in range(20):
            p = rnd.choice([2, 3])
            params = random_code(rnd, p, max_s=2, max_rs=4)
            if params.p**params.t > 100:
                continue
            y = NrtMatrix(
                params.field,
                [[rnd.randrange(p) for _ in range(params.r)] for _ in range(params.s)],
            )
            best = None
            n_msgs = params.p**params.t
            for n in range(n_msgs):
                digits = []
                for k in range(params.t):
                    digits.append(n // p ** (params.t - 1 - k) % p)
                f = Poly(params.field, digits)
                d = nrt_distance(encode(params, f), y)
                if best is None or d < best[1]:
                    best = (f, d)
            got_f, got_d = brute_force_nearest_codeword(params, y)
            assert (got_f, got_d) == best
