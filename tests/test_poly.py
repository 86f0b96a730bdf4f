import math
import random

import numpy as np
import pytest

from hrscodes import MAX_CODE_LENGTH, FieldMismatchError, Poly, PrimeField
from hrscodes.poly import NEG_INF, _divmod, _dot, _mul, _shift_scale
from reference import (
    evaluate,
    hyperderivative,
    is_zero,
    long_division,
    monomial,
    mul,
    neg,
    poly_divmod,
    sub,
    taylor,
    vanishing_order,
    zero_poly,
)


@pytest.fixture
def gf7():
    return PrimeField(7)


def naive_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def test_normalization_and_queries(gf7):
    f = Poly(gf7, [3, 0, 7, 14, 0, 0])
    assert f.coeffs == (3,)
    assert f.degree == 0
    z = Poly(gf7, [0, 0])
    assert is_zero(z) and z.degree == NEG_INF
    assert z.to_list() == [0]
    assert monomial(gf7, 3, 2).to_list() == [0, 0, 0, 2]
    assert Poly.one(gf7).to_list() == [1]


def test_immutable_and_hashable(gf7):
    f = Poly(gf7, [1, 2])
    with pytest.raises(AttributeError):
        f.coeffs = (5,)
    assert f == Poly(gf7, [1, 2, 0])
    assert hash(f) == hash(Poly(gf7, [1, 2]))
    assert f != Poly(PrimeField(11), [1, 2])


def test_field_mismatch(gf7):
    g = Poly(PrimeField(11), [1])
    with pytest.raises(FieldMismatchError):
        Poly(gf7, [1]) + g
    with pytest.raises(TypeError):
        Poly(gf7, [1]) + 3


# GF(7), GF(2) and the exact object-array path above 2**31 - 1.
KERNEL_MODULI = (7, 2, 2**61 - 1)


def random_coeffs(rnd, p, length):
    """Coefficients with many zeros, including zero top coefficients."""
    return [rnd.choice([0, 1, p - 1, rnd.randrange(p)]) for _ in range(length)]


def test_ring_ops_against_naive():
    rnd = random.Random(0)
    for p in KERNEL_MODULI:
        field = PrimeField(p)
        for _ in range(300):
            a = random_coeffs(rnd, p, rnd.randint(0, 8))
            b = random_coeffs(rnd, p, rnd.randint(0, 8))
            fa, fb = Poly(field, a), Poly(field, b)
            add = [(x + y) % p for x, y in zip(a + [0] * len(b), b + [0] * len(a))]
            assert (fa + fb) == Poly(field, add)
            assert sub(fa, fb) == fa + neg(fb)
            assert mul(fa, fb) == Poly(field, naive_mul(a, b, p))
            c = rnd.randrange(p)
            assert mul(fa, Poly(field, [c])) == Poly(field, [x * c for x in a])
            if a:
                row, alpha = np.array([a], dtype=field.dtype), np.array([[c]], dtype=field.dtype)
                assert _shift_scale(row, alpha, p).tolist() == [naive_mul(a, [-c % p, 1], p)]


def test_divmod_property():
    rnd = random.Random(1)
    for p in KERNEL_MODULI:
        field = PrimeField(p)
        for _ in range(300):
            # Divisors up to 12 coefficients, often longer than the dividend.
            a = Poly(field, random_coeffs(rnd, p, rnd.randint(0, 9)))
            b = Poly(field, random_coeffs(rnd, p, rnd.randint(1, 12)))
            if is_zero(b):
                continue
            q, r = poly_divmod(a, b)
            assert mul(q, b) + r == a
            assert is_zero(r) or r.degree < b.degree
            if a.degree < b.degree:
                assert is_zero(q) and r == a


def check_divmod_kernel(a, b, p):
    """_divmod on the rows of a and b (lists of equal-length lists) as one
    stack when every divisor is monic and, for a single row, as a rank-1
    array, against long_division; every entry returned must lie in [0, p)."""
    dtype = PrimeField(p).dtype
    want = [long_division(x, y, p) for x, y in zip(a, b)]
    results = []
    if all(y[-1] == 1 for y in b):
        quot, rem = _divmod(np.array(a, dtype=dtype), np.array(b, dtype=dtype), p)
        results.append(list(zip(quot.tolist(), rem.tolist())))
    if len(a) == 1:
        quot, rem = _divmod(np.array(a[0], dtype=dtype), np.array(b[0], dtype=dtype), p)
        results.append([(quot.tolist(), rem.tolist())])
    assert results
    for result in results:
        assert result == want
        assert all(0 <= c < p for q, r in result for c in q + r)


def test_divmod_kernel_against_long_division():
    rnd = random.Random(6)
    for p in (2, 3, 101, 2**31 - 1, 2**61 - 1):
        for case in range(40):
            # Empty, short and long dividends; divisors up to 3 longer than
            # the dividend; stacks of 3 rows in a quarter of the cases.
            la = rnd.choice([0, rnd.randint(1, 12), rnd.randint(100, 600)])
            lb = rnd.randint(1, min(la, 40) + 3)
            rows = 3 if case % 4 == 1 else 1
            a = [random_coeffs(rnd, p, la) for _ in range(rows)]
            b = [random_coeffs(rnd, p, lb - 1) for _ in range(rows)]
            # Monic divisors in half the cases, other unit leads (single
            # rows only: stacked divisors must be monic) otherwise.
            for low in b:
                low.append(1 if case % 2 else rnd.randrange(1, p))
            check_divmod_kernel(a, b, p)
    # Worst case of the int64 budget at p = 2**31 - 1: divisor, quotient and
    # remainder all p - 1 (the dividend built from them), so every step
    # subtracts (p - 1)**2 from each live entry; then a dividend of all p - 1.
    # Monic divisors and divisors with leading coefficient p - 1.
    p = 2**31 - 1
    for lead in (1, p - 1):
        for lb in (2, 3, 7, 64):
            b = [[p - 1] * (lb - 1) + [lead]]
            product = naive_mul([p - 1] * (601 - lb), b[0], p)
            worst = [(c + (p - 1) * (i < lb - 1)) % p for i, c in enumerate(product)]
            assert long_division(worst, b[0], p)[0] == [p - 1] * (601 - lb)
            for a in ([worst], [[p - 1] * 600]):
                check_divmod_kernel(a, b, p)
                if lead == 1:
                    check_divmod_kernel(a * 2, b * 2, p)


def naive_dot(a, b, p):
    """a @ b mod p on nested lists of Python ints."""
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def test_dot_against_python_ints():
    rnd = random.Random(2)
    # p = 2**31 - 1 takes two limbs of a with b whole; above it b is cut
    # into two limbs and a into up to three, and the inner lengths cross
    # the points where the limb widths change.
    for p in (2, 101, 2**31 - 1, 2**31 + 11, 2**32 + 15, 2**61 - 1):
        dtype = PrimeField(p).dtype
        for inner in (1, 2, 63, 64, 65, 256, 2048):
            for _ in range(3 if inner > 256 else 8):
                rows, cols = rnd.randint(1, 3), rnd.randint(1, 3)
                a = [random_coeffs(rnd, p, inner) for _ in range(rows)]
                b = [random_coeffs(rnd, p, cols) for _ in range(inner)]
                want = naive_dot(a, b, p)
                for a_type, b_type in (
                    (dtype, dtype), (np.int64, np.int64), (object, np.int64), (np.int64, object)
                ):
                    a_arr, b_arr = np.array(a, dtype=a_type), np.array(b, dtype=b_type)
                    got = _dot(a_arr, b_arr, p)
                    assert got.tolist() == want
                    assert _dot(a_arr[0], b_arr, p).tolist() == want[0]
                    assert _dot(a_arr[0], b_arr[:, 0], p) == want[0][0]
                    if p > 2**31 - 1:
                        assert got.dtype == object
                        assert all(type(x) is int and 0 <= x < p for x in got.flat)
                    else:
                        assert got.dtype == np.int64
    # Stacked operands, (rows, 1, K) @ (rows, K, W): the shape of _mul's band
    # product and of the Taylor step of the Hermite tables.
    for p in (2, 101, 2**31 - 1, 2**31 + 11, 2**32 + 15, 2**61 - 1):
        dtype = PrimeField(p).dtype
        for inner in (1, 64, 65, 1025):
            rows, cols = rnd.randint(1, 3), rnd.randint(1, 5)
            a = [[random_coeffs(rnd, p, inner)] for _ in range(rows)]
            b = [[random_coeffs(rnd, p, cols) for _ in range(inner)] for _ in range(rows)]
            want = [naive_dot(x, y, p) for x, y in zip(a, b)]
            for a_type, b_type in ((dtype, dtype), (np.int64, np.int64), (object, np.int64)):
                got = _dot(np.array(a, dtype=a_type), np.array(b, dtype=b_type), p)
                assert got.shape == (rows, 1, cols) and got.tolist() == want
    # Worst cases: every entry p - 1 at the longest code, on both paths; and
    # the top product of G's tree at that length, two rows of 1,025.
    k = MAX_CODE_LENGTH
    half = k // 2 + 1
    for p in (2**31 - 1, 2**61 - 1):
        a = np.full((2, k), p - 1, dtype=np.int64)
        b = np.full((k, 3), p - 1, dtype=np.int64)
        assert _dot(a, b, p).tolist() == [[k * (p - 1) ** 2 % p] * 3] * 2
        assert _dot(a[0], b[:, 0], p) == k * (p - 1) ** 2 % p
        row = np.full((1, half), p - 1, dtype=PrimeField(p).dtype)
        want = [(min(c, 2 * half - 2 - c) + 1) * (p - 1) ** 2 % p for c in range(2 * half - 1)]
        assert _mul(row, row, p).tolist() == [want]


def test_division_by_zero(gf7):
    with pytest.raises(ZeroDivisionError):
        poly_divmod(Poly(gf7, [1]), zero_poly(gf7))


def test_evaluate(gf7):
    rnd = random.Random(2)
    for _ in range(100):
        coeffs = [rnd.randrange(7) for _ in range(rnd.randint(0, 8))]
        f = Poly(gf7, coeffs)
        x = rnd.randrange(7)
        assert evaluate(f, x) == sum(c * x**k for k, c in enumerate(coeffs)) % 7


def test_hyperderivative_definition(gf7):
    rnd = random.Random(3)
    for _ in range(200):
        coeffs = [rnd.randrange(7) for _ in range(rnd.randint(0, 9))]
        f = Poly(gf7, coeffs)
        j = rnd.randint(0, 9)
        expect = [math.comb(i, j) * c % 7 for i, c in enumerate(coeffs)][j:]
        assert hyperderivative(f, j) == Poly(gf7, expect)
    assert hyperderivative(Poly(gf7, [1, 1]), 0) == Poly(gf7, [1, 1])
    with pytest.raises(ValueError):
        hyperderivative(Poly(gf7, [1]), -1)


def test_hyperderivative_characteristic_p(gf7):
    # The order-1 derivative of X^7 is 7*X^6 = 0 in GF(7), while the
    # order-7 one is exactly 1.
    x7 = monomial(gf7, 7)
    assert is_zero(hyperderivative(x7, 1))
    assert hyperderivative(x7, 7) == Poly.one(gf7)


def test_taylor_matches_hyperderivatives(gf7):
    rnd = random.Random(4)
    for _ in range(200):
        f = Poly(gf7, [rnd.randrange(7) for _ in range(rnd.randint(0, 9))])
        alpha = rnd.randrange(7)
        count = rnd.randint(1, 10)
        tay = taylor(f, alpha, count)
        assert tay == [evaluate(hyperderivative(f, j), alpha) for j in range(count)]
        # Reassembling sum tay[j]*(X-alpha)^j recovers f when count > deg.
        if count > max(f.degree, 0):
            lin = Poly(gf7, [-alpha % 7, 1])
            acc = zero_poly(gf7)
            for c in reversed(tay):
                acc = mul(acc, lin) + Poly(gf7, [c])
            assert acc == f


def test_vanishing_order(gf7):
    rnd = random.Random(5)
    for _ in range(200):
        alpha = rnd.randrange(7)
        k = rnd.randint(0, 4)
        # g with g(alpha) != 0
        while True:
            g = Poly(gf7, [rnd.randrange(7) for _ in range(rnd.randint(1, 4))])
            if not is_zero(g) and evaluate(g, alpha) != 0:
                break
        lin = Poly(gf7, [-alpha % 7, 1])
        f = g
        for _ in range(k):
            f = mul(f, lin)
        assert vanishing_order(f, alpha, cap=6) == min(k, 6)
        assert vanishing_order(f, alpha, cap=max(k - 1, 0)) == max(k - 1, 0)
    assert vanishing_order(zero_poly(gf7), 3, cap=5) == 5
    with pytest.raises(ValueError):
        vanishing_order(Poly.one(gf7), 0, cap=-1)
