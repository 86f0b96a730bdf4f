import math
import random

import numpy as np
import pytest

from hrscodes import FieldMismatchError, PrimeField, is_prime
from hrscodes.field import MAX_MODULUS
from reference import binomial


def test_is_prime_small_range_against_sieve():
    limit = 2000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n], n


def test_is_prime_carmichael_and_big():
    assert not is_prime(561)  # Carmichael
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2**31 - 1)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**31 + 11))


def test_constructor_validation():
    with pytest.raises(TypeError):
        PrimeField(7.0)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(9)
    with pytest.raises(ValueError):
        PrimeField(MAX_MODULUS + 7)
    with pytest.raises(ValueError):
        PrimeField(-5)


def test_equality_and_mismatch():
    a, b, c = PrimeField(7), PrimeField(7), PrimeField(11)
    assert a == b and hash(a) == hash(b)
    assert a != c
    a.require_same(b)
    with pytest.raises(FieldMismatchError):
        a.require_same(c)


def test_dtype_cutover():
    assert PrimeField(2**31 - 1).uses_int64
    assert PrimeField(2**31 - 1).dtype is np.int64
    big = PrimeField(2**61 - 1)
    assert not big.uses_int64
    assert big.dtype is object


@pytest.mark.parametrize("p", [2, 3, 7, 101, 2**31 - 1])
def test_scalar_ops(p):
    gf = PrimeField(p)
    rnd = random.Random(p)
    for _ in range(200):
        a = rnd.randrange(p)
        if a:
            assert a * gf.inv(a) % p == 1


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(14)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_binomial_matches_comb(p):
    gf = PrimeField(p)
    rnd = random.Random(p + 1)
    for _ in range(300):
        i = rnd.randrange(0, 250)
        j = rnd.randrange(-2, 255)
        assert binomial(gf, i, j) == (math.comb(i, j) % p if 0 <= j <= i else 0)


def test_binomial_characteristic_kills_rows():
    # C(p, j) is divisible by p for 0 < j < p.
    gf = PrimeField(13)
    for j in range(1, 13):
        assert binomial(gf, 13, j) == 0
    assert binomial(gf, 13, 0) == 1
    assert binomial(gf, 13, 13) == 1
